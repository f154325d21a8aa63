"""The three-block cochain complex: differential, cohomology, chain maps."""

from itertools import product
from random import Random

import pytest

from rotabaxter import cohomology, fileformat as ff, linalg
from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, Report, ShapeError, StructuralError,
    hochschild_cohomology_dims, hochschild_matrix, hochschild_terms,
)
from rotabaxter.cohomology import (
    RRBCochain, check_derivation, cochain_space_dims,
    dendriform_differential_matrix, derivation_basis, psi_matrix,
    rb_differential_matrix, rrb_cohomology_dims, rrb_differential,
    rrb_differential_matrix, semidirect_complex, semidirect_inclusion_matrix,
)
from rotabaxter.linalg import (
    Matrix, Q, inverse, kernel_basis, rank, solve_columns, stacked,
)
from rotabaxter.rrb import (
    RMatrix, RelativeRBAlgebra, check_relative_rb, induced_dendriform,
)
from rotabaxter.rrb_modules import (
    RRBBimodule, adjoint_bimodule, check_operator_identities,
    check_rrb_bimodule, coadjoint_bimodule,
    induced_dendriform_representation, mtot_action_bimodule,
    rb_bimodule_from_r_matrix,
)
from rotabaxter.samples import (
    bump_map, random_matrix, random_rrb_cochain, random_rrb_cocycle,
    random_rrb_pair, random_transport_pair,
)

import helpers as ref
from helpers import (
    apply, at, basis_vec, bilinear, coords, dual_numbers, field_adjoint_rrb,
    from_columns, from_nested, full_rank_dims, gauss_jordan_rank,
    homology_dims, nested, nilpotent_shift_rrb, on_basis, one_sided_rrb,
    reference_elimination, reference_inverse, row_dicts, zero_cochain,
    zero_dendriform, zero_dendriform_rep, zero_rrb,
)


def ones_pair():
    """Everything zero, all four dimensions 1."""
    x = zero_rrb(1, 1)
    return x, RRBBimodule.zero(x, 1, 1)


def small_pairs():
    out = [(x, adjoint_bimodule(x))
           for x in (one_sided_rrb(), nilpotent_shift_rrb(),
                     field_adjoint_rrb())]
    out.append(ones_pair())
    out.append((zero_rrb(2, 1), RRBBimodule.zero(zero_rrb(2, 1), 1, 2)))
    return out


def kron(vectors):
    """Coordinates of v_1 (x) ... (x) v_n, first factor most significant."""
    out = [Q(1)]
    for v in vectors:
        out = [a * b for a in out for b in v]
    return tuple(out)


def flat_index(dims, idx):
    flat = 0
    for d, i in zip(dims, idx):
        flat = flat * d + i
    return flat


# ---------------------------------------------------------- space shapes


def test_space_dims_all_ones_degree_two():
    x, b = ones_pair()
    assert cochain_space_dims(x, b, 2) == (1, 2, 1)
    assert sum(cochain_space_dims(x, b, 2)) == 4


def test_space_dims_all_ones_degree_one():
    x, b = ones_pair()
    assert cochain_space_dims(x, b, 1) == (1, 1, 0)


def test_space_dims_degree_zero_is_empty():
    x, b = ones_pair()
    assert cochain_space_dims(x, b, 0) == (0, 0, 0)


def test_space_dims_formula():
    # degrees 2-4 over a nonzero structure, then (k, dA, dM) over zero ones
    cases = [(nilpotent_shift_rrb(), k) for k in (2, 3, 4)]
    cases.extend((zero_rrb(dA, dM), k) for k, dA, dM in
                 [(1, 2, 3), (2, 2, 3), (3, 2, 1), (2, 1, 1), (3, 3, 2)])
    for x, k in cases:
        b = RRBBimodule.zero(x, 3, 1)
        dA, dM, dB, dN = x.algebra.dim, x.module.dim, 3, 1
        assert cochain_space_dims(x, b, k) == \
            (dA ** k * dB, k * dA ** (k - 1) * dM * dN,
             0 if k == 1 else dM ** (k - 1) * dB), (k, dA, dM)


# ------------------------------------------------------- the four pieces

BLOCKS = ("alpha", "beta", "gamma")


def block_ranges(dims):
    starts = (0, dims[0], dims[0] + dims[1], sum(dims))
    return {name: range(starts[n], starts[n + 1])
            for n, name in enumerate(BLOCKS)}


def differential_blocks(x, b, k):
    """The degree-k differential cut along cochain_space_dims: a Matrix per
    (row block, column block) pair over alpha, beta and gamma."""
    d = rrb_differential_matrix(x, b, k)
    rows = block_ranges(cochain_space_dims(x, b, k + 1))
    cols = block_ranges(cochain_space_dims(x, b, k))
    entries = {(r, c): {} for r in BLOCKS for c in BLOCKS}
    for i, j, v in d.nonzero_items():
        r = next(n for n in BLOCKS if i in rows[n])
        c = next(n for n in BLOCKS if j in cols[n])
        entries[(r, c)][i - rows[r].start, j - cols[c].start] = v
    return {(r, c): Matrix.from_entries(len(rows[r]), len(cols[c]), e)
            for (r, c), e in entries.items()}


def zeros(m):
    return (Q(0),) * m.cols


def test_differential_is_block_lower_triangular():
    # alpha reaches alpha, beta, gamma; beta reaches beta, gamma; gamma
    # reaches gamma only; the diagonal ends are the two Hochschild complexes
    upper = (("alpha", "beta"), ("alpha", "gamma"), ("beta", "gamma"))
    reached = {pair: 0 for pair in (("beta", "alpha"), ("gamma", "alpha"),
                                    ("gamma", "beta"))}
    for seed in range(100):
        x, b = random_rrb_pair(seed)
        acts = mtot_action_bimodule(b)
        for k in (1, 2, 3):
            blocks = differential_blocks(x, b, k)
            for pair in upper:
                assert blocks[pair].is_zero(), (seed, k, pair)
            for pair in reached:
                reached[pair] += not blocks[pair].is_zero()
            assert blocks[("alpha", "alpha")] == \
                ref.ref_hochschild_matrix(b.base, k), (seed, k)
            if k >= 2:
                assert blocks[("gamma", "gamma")] == \
                    ref.ref_hochschild_matrix(acts, k - 1), (seed, k)
            else:
                assert blocks[("gamma", "gamma")].cols == 0
    # the triangle is filled below the diagonal, not only empty above it
    assert all(reached.values()), reached


def quotient_differential(blocks):
    """The differential of the quotient complex (alpha, beta): the alpha
    and beta rows of the alpha and beta columns."""
    aa, ba, bb = (blocks[pair] for pair in (("alpha", "alpha"),
                                            ("beta", "alpha"),
                                            ("beta", "beta")))
    return Matrix.from_blocks(aa.rows + bb.rows, aa.cols + bb.cols, (
        (1, aa, 0, 0), (1, ba, aa.rows, 0), (1, bb, aa.rows, aa.cols)))


def test_filtration_long_exact_sequence_bounds():
    # gamma is a subcomplex with quotient (alpha, beta), so the long exact
    # sequence ... -> H^{k-1}(ab) -> H^k(g) -> H^k -> H^k(ab) -> H^{k+1}(g)
    # bounds each H^k from below twice; gamma itself is the Hochschild
    # complex of M_Tot acting on B shifted by one, so H^2(g) counts its
    # 1-cocycles and H^3(g) = HH^2(M_Tot, B)
    gamma_seen = 0
    for seed in range(100):
        x, b = random_rrb_pair(seed)
        blocks = [differential_blocks(x, b, k) for k in (1, 2, 3)]
        h = [0] + rrb_cohomology_dims(x, b, 2)
        hg = [0] + homology_dims(bl[("gamma", "gamma")] for bl in blocks)
        hab = [0] + homology_dims(quotient_differential(bl)
                                  for bl in blocks[:2])
        for k in (1, 2):
            assert h[k] >= hg[k] - hab[k - 1], (seed, k)
            assert h[k] >= hab[k] - hg[k + 1], (seed, k)
        assert h[1] == len(derivation_basis(x, b)), seed
        acts = mtot_action_bimodule(b)
        assert hg[2] == kernel_basis(hochschild_matrix(acts, 1)).cols, seed
        assert hg[3] == hochschild_cohomology_dims(acts, 2)[2], seed
        gamma_seen += hg[2] > 0
    # the bounds are not vacuous: the subcomplex has cohomology
    assert gamma_seen


def test_delta_ab_zero_cochain_maps_to_zero():
    x, b = small_pairs()[1]
    for k in (1, 2):
        aa = differential_blocks(x, b, k)[("alpha", "alpha")]
        assert (aa.rows, aa.cols) == (x.algebra.dim ** (k + 1) * b.base.dim,
                                      x.algebra.dim ** k * b.base.dim)
        assert not any(apply(aa, zeros(aa)))


def test_delta_ab_vanishes_over_zero_structure():
    x = zero_rrb(2, 1)
    b = RRBBimodule.zero(x, 2, 2)
    for k in (1, 2):
        aa = differential_blocks(x, b, k)[("alpha", "alpha")]
        assert aa.cols == 2 ** k * 2 and aa.is_zero()


def test_delta_ab_squares_to_zero():
    x = nilpotent_shift_rrb()
    b = adjoint_bimodule(x)
    for k in (1, 2, 3):
        first = differential_blocks(x, b, k)[("alpha", "alpha")]
        second = differential_blocks(x, b, k + 1)[("alpha", "alpha")]
        assert not first.is_zero()
        assert (second * first).is_zero(), k


def test_twisted_delta_zero_inputs_map_to_zero():
    x, b = small_pairs()[1]
    dA, dM, dN = x.algebra.dim, x.module.dim, b.fiber.dim
    for k in (1, 2):
        blocks = differential_blocks(x, b, k)
        for c in ("alpha", "beta"):
            twisted = blocks[("beta", c)]
            assert twisted.rows == (k + 1) * dA ** k * dM * dN  # k+1 slots
            assert not any(apply(twisted, zeros(twisted)))


def test_twisted_delta_vanishes_over_zero_structure():
    x, b = ones_pair()
    for k in (1, 2):
        blocks = differential_blocks(x, b, k)
        assert blocks[("beta", "alpha")].is_zero()
        assert blocks[("beta", "beta")].is_zero()


def test_delta_mb_zero_maps_to_zero():
    x = nilpotent_shift_rrb()
    b = adjoint_bimodule(x)
    for k in (1, 2, 3):
        gg = differential_blocks(x, b, k)[("gamma", "gamma")]
        # gamma is M^(x)(k-1) -> B, absent in degree 1
        assert gg.cols == (0 if k == 1 else
                           x.module.dim ** (k - 1) * b.base.dim)
        assert gg.rows == x.module.dim ** k * b.base.dim
        assert not any(apply(gg, zeros(gg)))


def test_delta_mb_vanishes_when_both_operators_are_zero():
    # every term of the induced action carries the operator R or S
    x = field_adjoint_rrb()  # nonzero products, R = 0
    b = adjoint_bimodule(x)  # S = R = 0, pairings nonzero
    acts = mtot_action_bimodule(b)
    assert acts.left.is_zero() and acts.right.is_zero()
    for k in (2, 3):
        gg = differential_blocks(x, b, k)[("gamma", "gamma")]
        assert gg.cols and gg.is_zero()


def test_delta_mb_squares_to_zero():
    x = nilpotent_shift_rrb()
    b = adjoint_bimodule(x)
    acts = mtot_action_bimodule(b)
    # Hochschild degrees 0 -> 1 -> 2 sit below the first gamma block
    assert (hochschild_matrix(acts, 1) * hochschild_matrix(acts, 0)).is_zero()
    for k in (2, 3):
        first = differential_blocks(x, b, k)[("gamma", "gamma")]
        second = differential_blocks(x, b, k + 1)[("gamma", "gamma")]
        assert not first.is_zero()
        assert (second * first).is_zero(), k


def test_operator_term_zero_inputs_map_to_zero():
    x, b = small_pairs()[1]
    for k in (1, 2):
        blocks = differential_blocks(x, b, k)
        for c in ("alpha", "beta"):
            h = blocks[("gamma", c)]
            assert h.rows == x.module.dim ** k * b.base.dim
            assert not any(apply(h, zeros(h)))


def test_operator_term_vanishes_over_inert_fixture():
    x, b = ones_pair()  # R = 0, S = 0, dims 1
    blocks = differential_blocks(x, b, 1)
    assert blocks[("gamma", "alpha")].is_zero()
    assert blocks[("gamma", "beta")].is_zero()


def test_operator_term_degree_one_formula():
    # h(alpha, beta) = S . beta - alpha . R at degree 1
    for x, b in small_pairs():
        alpha = random_matrix(Random(7), b.base.dim, x.algebra.dim)
        beta = random_matrix(Random(8), b.fiber.dim, x.module.dim)
        blocks = differential_blocks(x, b, 1)
        got = tuple(
            p + q for p, q in
            zip(apply(blocks[("gamma", "alpha")], alpha.entries),
                apply(blocks[("gamma", "beta")], beta.entries)))
        want = b.sop * beta - alpha * x.rop
        assert got == want.entries


# --------------------------------------------------- the full differential


def test_differential_of_zero_is_zero():
    for x, b in small_pairs():
        for k in (1, 2):
            img = rrb_differential(x, b, k, zero_cochain(x, b, k))
            assert all(v == 0 for v in img.vector())


def test_differential_squares_to_zero_on_fixtures():
    for x, b in small_pairs():
        for k in (1, 2, 3):
            first = rrb_differential_matrix(x, b, k)
            second = rrb_differential_matrix(x, b, k + 1)
            assert (second * first).is_zero(), (k,)


def test_differential_squares_to_zero_on_random_pairs():
    for seed in range(8):
        x, b = random_rrb_pair(seed)
        for k in (1, 2, 3):
            first = rrb_differential_matrix(x, b, k)
            second = rrb_differential_matrix(x, b, k + 1)
            assert (second * first).is_zero(), (seed, k)


def test_random_cocycles_map_to_zero():
    count = 0
    for seed in range(8):
        x, b = random_rrb_pair(seed)
        for k in (1, 2):
            z = random_rrb_cocycle(seed, x, b, k)
            if z is None:
                continue
            img = rrb_differential(x, b, k, z)
            assert all(v == 0 for v in img.vector())
            count += 1
    assert count >= 6


def test_differential_rejects_mismatched_degree():
    x, b = ones_pair()
    with pytest.raises(ShapeError):
        rrb_differential(x, b, 2, zero_cochain(x, b, 1))


def assembled_image(x, b, k, c, d=None):
    """The coordinates of the image of c under the reference index-loop
    matrix of the degree-k differential (d, when given)."""
    d = ref.ref_rrb_differential_matrix(x, b, k) if d is None else d
    return d * coords(c)


def test_block_products_match_the_assembled_differential():
    """rrb_differential multiplies a cochain by the matrix the terms
    assemble; the reference assembler indexes the paper's formulas entry by
    entry.  They agree on cochains that are not cocycles: a random cochain
    that is a cocycle is drawn again, and a zero differential is skipped."""
    compared = 0
    for seed in range(100):
        x, b = random_rrb_pair(seed)
        for k in (1, 2, 3):
            d = ref.ref_rrb_differential_matrix(x, b, k)
            if d.is_zero():
                continue
            for draw in range(10):
                c = random_rrb_cochain(seed + 100 * draw, x, b, k)
                want = assembled_image(x, b, k, c, d)
                if not want.is_zero():
                    break
            assert not want.is_zero(), (seed, k)
            assert coords(rrb_differential(x, b, k, c)) == want, (seed, k)
            compared += 1
    assert compared == 286


def bump_constants(sc, where):
    """Copy of structure constants with entry (i, j, k) raised by 1."""
    data = [[list(row) for row in plane] for plane in nested(sc)]
    i, j, k = where
    data[i][j][k] += 1
    return from_nested(sc.dim_left, sc.dim_right, sc.dim_out, data)


STRUCTURE_TENSORS = ("mu", "module.left", "module.right", "R", "base.left",
                     "base.right", "fiber.left", "fiber.right", "S",
                     "left_pair", "right_pair")


def mutated_pair(x, b, part, rng):
    """(x, b) with one random entry of one structure tensor raised by 1, or
    None when that tensor has no entries.  No axiom is re-checked."""
    parts = {"mu": x.algebra.mu, "module.left": x.module.left,
             "module.right": x.module.right, "R": x.rop,
             "base.left": b.base.left, "base.right": b.base.right,
             "fiber.left": b.fiber.left, "fiber.right": b.fiber.right,
             "S": b.sop, "left_pair": b.left_pair,
             "right_pair": b.right_pair}
    old = parts[part]
    if isinstance(old, Matrix):
        if not old.cols * old.rows:
            return None
        parts[part] = bump_map(old, (rng.randrange(old.rows),
                                     rng.randrange(old.cols)))
    else:
        if not old.dim_left * old.dim_right * old.dim_out:
            return None
        parts[part] = bump_constants(
            old, tuple(rng.randrange(n) for n in
                       (old.dim_left, old.dim_right, old.dim_out)))
    alg = AssocAlgebra(x.algebra.dim, parts["mu"], x.algebra.basis_names)

    def over_alg(mod, side):
        return Bimodule(alg, mod.dim, parts[side + ".left"],
                        parts[side + ".right"], mod.basis_names)

    y = RelativeRBAlgebra(alg, over_alg(x.module, "module"), parts["R"])
    return y, RRBBimodule(y, over_alg(b.base, "base"),
                          over_alg(b.fiber, "fiber"), parts["S"],
                          parts["left_pair"], parts["right_pair"])


@pytest.mark.parametrize("part", STRUCTURE_TENSORS)
def test_block_products_match_the_assembled_differential_off_the_axioms(
        part):
    """rrb_differential, through the matrix of rrb_terms, and the reference
    assembler write the same formulas, so they agree after a one-entry
    change of any structure tensor, where the axioms fail.  The change
    moves the image on some seed, so the terms that read this tensor are
    compared, even for the pairings, which are zero on 8 of these 25
    fixtures."""
    moved = 0
    for seed in range(25):
        x, b = random_rrb_pair(seed)
        mutated = mutated_pair(x, b, part, Random(seed))
        if mutated is None:
            continue
        y, d = mutated
        for k in (1, 2, 3):
            c = random_rrb_cochain(seed, x, b, k)
            image = coords(rrb_differential(y, d, k, c))
            assert image == assembled_image(y, d, k, c), (seed, k)
            moved += image != coords(rrb_differential(x, b, k, c))
    assert moved


DEEP_SAMPLES = (14, 16, 49, 63, 65)  # all four dimensions 3


def test_assemblers_match_index_loop_reference():
    """Each cochain map assembled from its term list equals, entry for
    entry, the index-loop assembler of helpers: on seeds 0-99 (the
    Hochschild differentials of the base and of M_Tot in degrees 0-3, the
    rest in degrees 1-3), on d_4 of the fixtures whose dimensions are all
    3, and after a one-entry change of each structure tensor on seeds 0-11
    (the pairings are nonzero on 7 of them).  Some seeds have a
    zero-dimensional space."""
    maps = ((rrb_differential_matrix, ref.ref_rrb_differential_matrix),
            (psi_matrix, ref.ref_psi_matrix),
            (semidirect_inclusion_matrix,
             ref.ref_semidirect_inclusion_matrix))
    pairs = [random_rrb_pair(seed) for seed in range(100)]
    # a zero-dimensional space makes terms with no nonzeros and blocks
    # with no rows or columns
    assert any(0 in (x.algebra.dim, x.module.dim, b.base.dim, b.fiber.dim)
               for x, b in pairs)
    for seed, (x, b) in enumerate(pairs):
        for mod in (b.base, mtot_action_bimodule(b)):
            for k in range(4):
                assert hochschild_matrix(mod, k) == \
                    ref.ref_hochschild_matrix(mod, k), (seed, k)
        for new, old in maps:
            for k in (1, 2, 3):
                assert new(x, b, k) == old(x, b, k), (seed, k, new.__name__)
    for seed in DEEP_SAMPLES:
        x, b = pairs[seed]
        assert rrb_differential_matrix(x, b, 4) == \
            ref.ref_rrb_differential_matrix(x, b, 4), seed
    for part in STRUCTURE_TENSORS:
        for seed in range(12):
            mutated = mutated_pair(*pairs[seed], part, Random(seed))
            if mutated is None:
                continue
            for new, old in maps[:2]:
                for k in (1, 2, 3):
                    assert new(*mutated, k) == old(*mutated, k), \
                        (part, seed, k, new.__name__)


def test_assembly_builds_no_term_matrix(monkeypatch):
    # each term is given by its Kronecker factors and writes its signed
    # entries straight into the rows: building the terms of the
    # differential in degrees 1-4 and of the Hochschild differential on the
    # base in degrees 0-3 makes no Kronecker product, and assembling them
    # none and no block sum either
    x, b = random_rrb_pair(14)
    dA, dB = x.algebra.dim, b.base.dim
    wants = [rrb_differential_matrix(x, b, k) for k in (1, 2, 3, 4)]
    wants += [hochschild_matrix(b.base, k) for k in range(4)]

    def refuse(*args):
        raise AssertionError("a term matrix was built")

    for module in (linalg, cohomology):
        monkeypatch.setattr(module, "kron", refuse)
    cases = [(cohomology.rrb_terms(x, b, k),
              [cohomology._block_shapes(x, b, j) for j in (k, k + 1)])
             for k in (1, 2, 3, 4)]
    cases += [([(s, 0, 0, t) for s, t in hochschild_terms(b.base, k)],
               [[(dB, dA ** k)], [(dB, dA ** (k + 1))]]) for k in range(4)]
    monkeypatch.setattr(linalg.Matrix, "from_blocks", staticmethod(refuse))
    for (terms, shapes), want in zip(cases, wants):
        assert linalg.assemble_terms(terms, *shapes) == want


def test_transposed_assembly_is_the_transpose():
    """The sweeps rank differentials written straight into their
    transposes.  In degrees 1-4 on samples 0-9 and 14, the transposed
    assembly of rrb_terms equals the transpose of the matrix, and so does
    that of hochschild_terms (both OnColumns orientations and X -> X q)
    on the adjoint bimodule and the base in degrees 0-3."""
    for seed in (*range(10), 14):
        x, b = random_rrb_pair(seed)
        for k in (1, 2, 3, 4):
            assert rrb_differential_matrix(x, b, k, transposed=True) == \
                rrb_differential_matrix(x, b, k).transpose(), (seed, k)
        for mod in (Bimodule.adjoint(x.algebra), b.base):
            for k in range(4):
                assert hochschild_matrix(mod, k, transposed=True) == \
                    hochschild_matrix(mod, k).transpose(), (seed, k)


def test_differential_runs_no_axiom_check(monkeypatch):
    # M_Tot is built without checking that R multiplies on it, a report
    # the differential would only throw away
    x, b = random_rrb_pair(14)
    cochains = {k: random_rrb_cochain(k, x, b, k) for k in (2, 3)}

    def refuse(*args):
        raise AssertionError("an axiom check ran")

    monkeypatch.setattr(Report, "require_laws", refuse)
    assert mtot_action_bimodule(b).dim == b.base.dim
    for k, c in cochains.items():
        assert rrb_differential(x, b, k, c).degree == k + 1


def test_cochain_shape_guards():
    x, b = ones_pair()
    with pytest.raises(ShapeError):
        RRBCochain(2, Matrix.zero(1, 1), (Matrix.zero(1, 1),),
                   Matrix.zero(1, 1))  # one slot map short
    with pytest.raises(ShapeError):
        RRBCochain(1, Matrix.zero(1, 1), (Matrix.zero(1, 1),),
                   Matrix.zero(1, 1))  # gamma forbidden at degree 1
    with pytest.raises(ShapeError):
        zero_cochain(x, b, 2).validate(zero_rrb(2, 2),
                                       RRBBimodule.zero(zero_rrb(2, 2), 1, 1))
    with pytest.raises(ShapeError):
        rrb_differential_matrix(x, b, 0)  # no differential out of degree 0
    with pytest.raises(ShapeError):
        RRBCochain.of_column(x, b, 2, Matrix(5, 1))  # degree 2 has 4


@pytest.mark.parametrize("pair, k", [(ones_pair(), 2),
                                     (random_rrb_pair(6), 2),
                                     (random_rrb_pair(6), 3)])
def test_of_column_rejects_both_wrong_lengths(pair, k):
    # one coordinate short and one too many raise the same error
    x, b = pair
    size = sum(cochain_space_dims(x, b, k))
    assert coords(RRBCochain.of_column(x, b, k, Matrix(size, 2), 1)) == \
        coords(zero_cochain(x, b, k))
    for wrong in (size - 1, size + 1):
        with pytest.raises(ShapeError, match=f"expected {size}"):
            RRBCochain.of_column(x, b, k, Matrix(wrong, 1))
    # a column outside the matrix is refused, not read as the zero cochain
    with pytest.raises(ValueError, match="column 5"):
        RRBCochain.of_column(x, b, k, Matrix(size, 2), 5)


# ------------------------------------------- independent adjoint evaluator


def direct_adjoint_image(x, k, c):
    """Degree-k differential over self-coefficients, evaluated naively.

    Written straight from the componentwise formulas with the base equal
    to the algebra, the fiber equal to the module, the complex map equal
    to the operator, and the pairings the two module actions.  Brute
    force on basis tuples; shares nothing with the sparse assembly.
    Returns per-tuple value tables (alpha', list of beta', gamma').
    """
    alg, mod, rop = x.algebra, x.module, x.rop
    dA, dM = alg.dim, mod.dim
    mu, lact, ract = alg.mu, mod.left, mod.right
    kk = k + 1

    def aval(vecs):
        return apply(c.alpha, kron(vecs))

    def bval(s, vecs):
        return apply(c.beta[s - 1], kron(vecs))

    alpha_out = {}
    for tup in product(range(dA), repeat=kk):
        vecs = [basis_vec(dA, i) for i in tup]
        total = list(bilinear(mu, vecs[0], aval(vecs[1:])))
        for i in range(1, kk):
            merged = on_basis(mu, tup[i - 1], tup[i])
            args = vecs[:i - 1] + [merged] + vecs[i + 1:]
            sgn = -1 if i % 2 else 1
            for w, val in enumerate(aval(args)):
                total[w] += sgn * val
        sgn = -1 if kk % 2 else 1
        for w, val in enumerate(bilinear(mu, aval(vecs[:k]), vecs[k])):
            total[w] += sgn * val
        alpha_out[tup] = tuple(total)

    beta_out = []
    for t in range(1, kk + 1):
        dims = [dA] * kk
        dims[t - 1] = dM
        table = {}
        for tup in product(*[range(d) for d in dims]):
            vecs = [basis_vec(dims[p], tup[p]) for p in range(kk)]
            if t == 1:
                total = list(bilinear(ract, vecs[0], aval(vecs[1:])))
            else:
                total = list(bilinear(lact, vecs[0], bval(t - 1, vecs[1:])))
            for i in range(1, kk):
                if t == i:
                    merged, s_new = on_basis(ract, tup[i - 1], tup[i]), i
                elif t == i + 1:
                    merged, s_new = on_basis(lact, tup[i - 1], tup[i]), i
                else:
                    merged = on_basis(mu, tup[i - 1], tup[i])
                    s_new = t if t < i else t - 1
                args = vecs[:i - 1] + [merged] + vecs[i + 1:]
                sgn = -1 if i % 2 else 1
                for w, val in enumerate(bval(s_new, args)):
                    total[w] += sgn * val
            sgn = -1 if kk % 2 else 1
            if t == kk:
                trail = bilinear(lact, aval(vecs[:k]), vecs[k])
            else:
                trail = bilinear(ract, bval(t, vecs[:k]), vecs[k])
            for w, val in enumerate(trail):
                total[w] += sgn * val
            table[tup] = tuple(total)
        beta_out.append(table)

    def act_left(mvec, bvec):
        one = bilinear(mu, apply(rop, mvec), bvec)
        two = apply(rop, bilinear(ract, mvec, bvec))
        return tuple(p - q for p, q in zip(one, two))

    def act_right(bvec, mvec):
        one = bilinear(mu, bvec, apply(rop, mvec))
        two = apply(rop, bilinear(lact, bvec, mvec))
        return tuple(p - q for p, q in zip(one, two))

    def mtot(u, v):
        return tuple(p + q for p, q in zip(bilinear(lact, apply(rop, u), v),
                                           bilinear(ract, u, apply(rop, v))))

    gamma_out = {}
    for tup in product(range(dM), repeat=k):
        vecs = [basis_vec(dM, u) for u in tup]
        rvecs = [apply(rop, v) for v in vecs]
        total = list(aval(rvecs))
        for i in range(1, k + 1):
            args = rvecs[:i - 1] + [vecs[i - 1]] + rvecs[i:]
            for w, val in enumerate(apply(rop, bval(i, args))):
                total[w] -= val
        if k % 2:
            total = [-v for v in total]
        if c.gamma is not None:
            for w, val in enumerate(act_left(vecs[0],
                                             apply(c.gamma, kron(vecs[1:])))):
                total[w] += val
            for i in range(1, k):
                merged = mtot(vecs[i - 1], vecs[i])
                args = vecs[:i - 1] + [merged] + vecs[i + 1:]
                sgn = -1 if i % 2 else 1
                for w, val in enumerate(apply(c.gamma, kron(args))):
                    total[w] += sgn * val
            sgn = -1 if k % 2 else 1
            last = apply(c.gamma, kron(vecs[:k - 1]))
            for w, val in enumerate(act_right(last, vecs[k - 1])):
                total[w] += sgn * val
        gamma_out[tup] = tuple(total)
    return alpha_out, beta_out, gamma_out


def direct_adjoint_matrix(x, k):
    """Dense matrix of the direct evaluator in its own coordinate order.

    Coordinates are tuple-major within each block, on both sides, so
    consecutive matrices compose; the order is deliberately not the one
    the package uses.
    """
    b = adjoint_bimodule(x)
    dA, dM = x.algebra.dim, x.module.dim
    dB, dN = b.base.dim, b.fiber.dim
    na = dA ** k * dB
    nb = dA ** (k - 1) * dM * dN
    ng = 0 if k == 1 else dM ** (k - 1) * dB
    n_in = na + k * nb + ng
    columns = []
    for pos in range(n_in):
        c = zero_cochain(x, b, k)
        alpha, beta, gamma = c.alpha, list(c.beta), c.gamma
        if pos < na:
            flat, w = divmod(pos, dB)
            alpha = bump_map(alpha, (w, flat))
        elif pos < na + k * nb:
            s, rem = divmod(pos - na, nb)
            flat, w = divmod(rem, dN)
            beta[s] = bump_map(beta[s], (w, flat))
        else:
            flat, w = divmod(pos - na - k * nb, dB)
            gamma = bump_map(gamma, (w, flat))
        c = RRBCochain(k, alpha, tuple(beta), gamma)
        a_out, b_out, g_out = direct_adjoint_image(x, k, c)
        entries = []
        for tup in sorted(a_out):
            entries.extend(a_out[tup])
        for table in b_out:
            for tup in sorted(table):
                entries.extend(table[tup])
        for tup in sorted(g_out):
            entries.extend(g_out[tup])
        columns.append(entries)
    n_out = len(columns[0])
    return Matrix.from_rows([[columns[c][r] for c in range(n_in)]
                             for r in range(n_out)])


def test_adjoint_coefficients_match_direct_evaluation():
    for x in (one_sided_rrb(), nilpotent_shift_rrb()):
        b = adjoint_bimodule(x)
        dA, dM = x.algebra.dim, x.module.dim
        for k in (1, 2):
            c = random_rrb_cochain(50 + k, x, b, k)
            img = rrb_differential(x, b, k, c)
            a_out, b_out, g_out = direct_adjoint_image(x, k, c)
            kk = k + 1
            for tup, want in a_out.items():
                e = basis_vec(dA ** kk, flat_index([dA] * kk, tup))
                assert apply(img.alpha, e) == want, ("alpha", k, tup)
            for t in range(1, kk + 1):
                dims = [dA] * kk
                dims[t - 1] = dM
                size = dA ** k * dM
                for tup, want in b_out[t - 1].items():
                    e = basis_vec(size, flat_index(dims, tup))
                    assert apply(img.beta[t - 1], e) == want, \
                        ("beta", k, t, tup)
            for tup, want in g_out.items():
                e = basis_vec(dM ** k, flat_index([dM] * k, tup))
                assert apply(img.gamma, e) == want, ("gamma", k, tup)


def test_adjoint_cohomology_matches_direct_evaluation():
    for x in (one_sided_rrb(), nilpotent_shift_rrb()):
        b = adjoint_bimodule(x)
        mats = {k: direct_adjoint_matrix(x, k) for k in (1, 2, 3)}
        assert (mats[2] * mats[1]).is_zero()
        assert (mats[3] * mats[2]).is_zero()
        assert homology_dims(mats[k] for k in (1, 2, 3)) == \
            rrb_cohomology_dims(x, b, 3)


# ------------------------------------------------------ cohomology numbers


def test_cohomology_of_inert_ones_fixture():
    x, b = ones_pair()
    assert rrb_cohomology_dims(x, b, 2) == [2, 4]


def test_cohomology_degree_out_of_range():
    x = field_adjoint_rrb()
    b = adjoint_bimodule(x)
    with pytest.raises(ShapeError):
        rrb_cohomology_dims(x, b, 0)
    with pytest.raises(ShapeError):
        hochschild_cohomology_dims(b.base, -1)


def x0_column(d):
    """The column x0 with entries j % 3 - 1, for d x0."""
    return Matrix(d.cols, 1, [j % 3 - 1 for j in range(d.cols)])


def test_kernels_satisfy_exactness_oracles():
    """rank, kernel_basis and solve_columns on each differential, checked
    through the product: rank(d) = rank(d^T), rank-nullity, every kernel
    vector maps to zero, and a solution of d x = d x0 solves it."""
    for seed in range(100):
        x, b = random_rrb_pair(seed)
        for k in (1, 2):
            d = rrb_differential_matrix(x, b, k)
            r = rank(d)
            assert r == rank(d.transpose()), (seed, k)
            basis = kernel_basis(d)
            assert basis.cols + r == d.cols, (seed, k)
            assert (d * basis).is_zero(), (seed, k)
            rhs = d * x0_column(d)
            sol, bad = solve_columns(d, rhs)
            assert not bad and d * sol == rhs, (seed, k)


def test_sparse_kernels_match_dense():
    """rank, kernel_basis and solve_columns give the same answer on a
    differential as assembled, term by term, and on the Matrix rebuilt
    from its dense entries."""
    for seed in range(100):
        x, b = random_rrb_pair(seed)
        for k in (1, 2):
            d = rrb_differential_matrix(x, b, k)
            dense = Matrix(d.rows, d.cols, d.entries)
            assert d == dense, (seed, k)
            assert row_dicts(d) == row_dicts(dense), (seed, k)
            assert rank(d) == rank(dense), (seed, k)
            assert kernel_basis(d) == kernel_basis(dense), (seed, k)
            rhs = d * x0_column(d)
            sol, bad = solve_columns(d, rhs)
            assert not bad and (sol, bad) == solve_columns(dense, rhs), \
                (seed, k)


def test_kernels_match_reference_gauss_jordan():
    """rank, kernel_basis, solve_columns and inverse agree exactly with the
    textbook dense Gauss-Jordan of tests/helpers.py on the differentials.
    The reference takes pivots in column order, so a kernel_basis or
    solve_columns that picked other pivot columns would return another
    basis or solution."""
    inconsistent = 0
    for seed in range(100):
        x, b = random_rrb_pair(seed)
        for k in (1, 2):
            d = rrb_differential_matrix(x, b, k)
            where = (seed, k)
            image = d * x0_column(d)
            basis, sol, cols, rows = reference_elimination(
                d, image.column(0))
            assert rank(d) == len(cols), where
            assert kernel_basis(d) == from_columns(d.cols, basis), \
                where
            assert solve_columns(d, image) == \
                (Matrix(d.cols, 1, sol), set()), where
            # rows span the row space, so no x has d x = e_i for another i
            for i in sorted(set(range(d.rows)) - set(rows))[:1]:
                unit = Matrix.from_entries(d.rows, 1, {(i, 0): 1})
                assert solve_columns(d, image + unit) == \
                    (Matrix(d.cols, 1), {0}), where
                inconsistent += 1
            # independent rows by independent columns: an invertible block
            block = Matrix.from_rows([[at(d, i, j) for j in cols]
                                      for i in rows])
            inv = inverse(block)
            assert inv is not None, where
            assert inv == Matrix.from_rows(reference_inverse(block)), where
            n = min(d.rows, d.cols)
            lead = Matrix.from_rows([list(d.row(i)[:n]) for i in range(n)])
            want = reference_inverse(lead)
            if want is not None:
                want = Matrix.from_rows(want)
            assert inverse(lead) == want, where
    assert inconsistent > 100


# the fixtures whose algebra, module, base and fiber all have dimension 3
ALL_THREE = (14, 16, 49, 63, 65)


def test_cohomology_sweeps_match_full_rank_reference():
    """Each sweep ranks d_k off the image of d_{k-1}; the reference ranks
    every map on all of its domain.  The RRB sweeps of the ALL_THREE
    fixtures are checked to degree 4 below."""
    for seed in range(100):
        x, b = random_rrb_pair(seed)
        if seed not in ALL_THREE:
            full = full_rank_dims([rrb_differential_matrix(x, b, k)
                                   for k in (1, 2, 3)])[0]
            assert rrb_cohomology_dims(x, b, 3) == full, seed
        adjoint = Bimodule.adjoint(x.algebra)
        full = full_rank_dims([hochschild_matrix(adjoint, k)
                               for k in range(4)])[0]
        assert hochschild_cohomology_dims(adjoint, 3) == full, seed


@pytest.mark.parametrize("seed", ALL_THREE)
def test_restricted_ranks_to_degree_four_match_full_rank(seed):
    """d_1..d_4 (d_4 is 4617x1296).  Gauss-Jordan confirms the ranks of
    d_1 and d_2 on each fixture, and on sample 14 that of d_3 (1296x351),
    the slowest dense reference."""
    x, b = random_rrb_pair(seed)
    maps = [rrb_differential_matrix(x, b, k) for k in (1, 2, 3, 4)]
    dims, ranks = full_rank_dims(maps)
    assert homology_dims(maps) == dims == [3, 3, 4, 5]
    checked = 3 if seed == 14 else 2
    assert ranks[:checked] == [gauss_jordan_rank(d) for d in maps[:checked]]


@pytest.mark.parametrize("seed", (14, 16))
def test_restricted_ranks_to_degree_five_match_full_rank(seed):
    """d_1..d_5 (d_5 is 16038x4617): each map ranked off the image of the
    one before agrees with each ranked on all of its domain.  rank(d_5) of
    sample 16 is the costliest elimination here, about 3.5 s."""
    x, b = random_rrb_pair(seed)
    maps = [rrb_differential_matrix(x, b, k) for k in range(1, 6)]
    assert homology_dims(maps) == full_rank_dims(maps)[0] == [3, 3, 4, 5, 6]


@pytest.mark.parametrize("seed", ALL_THREE)
def test_complex_check_sees_a_defect_in_the_first_and_last_row(seed):
    """d_3 with one entry bumped, in its first row and, separately, in its
    last, after every other row has been checked: the check of d_3 . d_2
    must fail both times.  The bump sits at the first column k whose row
    of d_2 is nonzero, so row i of the product moves by that row.  The
    check reads d_2 only off the row basis R of d_1 it was ranked off; a
    nonzero row of d_2 is nonzero there too, since its entries in R are
    combinations of those off R."""
    x, b = random_rrb_pair(seed)
    d_1, d_2, d_3 = (rrb_differential_matrix(x, b, k) for k in (1, 2, 3))
    assert homology_dims([d_1, d_2, d_3]) == [3, 3, 4]
    k = next(k for k in range(d_2.rows) if any(d_2.row(k)))
    for i in (0, d_3.rows - 1):
        bumped = d_3 + Matrix.from_entries(d_3.rows, d_3.cols, {(i, k): 1})
        assert not (bumped * d_2).is_zero()
        with pytest.raises(ValueError, match="not a complex"):
            homology_dims([d_1, d_2, bumped])


def test_cohomology_is_invariant_under_transport():
    for seed in range(100):
        x, b = random_rrb_pair(seed)
        moved = random_transport_pair(1000 + seed, x, b)
        assert rrb_cohomology_dims(x, b, 2) == \
            rrb_cohomology_dims(*moved, 2), seed


def test_cohomology_in_degrees_four_and_five():
    """Pins H^1..H^7 of sample 14 and H^1..H^4 of sample 65: degrees 4
    and 5 from the rational elimination the integer kernel replaced,
    degrees 6 and 7 from the integer kernel.  Sample 14's d_7 is
    183708x54675 and sample 65's d_4 is 4617x1296."""
    assert rrb_cohomology_dims(*random_rrb_pair(14), 7) == \
        [3, 3, 4, 5, 6, 7, 7]
    assert rrb_cohomology_dims(*random_rrb_pair(65), 4) == [3, 3, 4, 5]


def test_cohomology_vanishes_with_empty_coefficients():
    x = field_adjoint_rrb()
    b = RRBBimodule.zero(x, 0, 0)
    assert rrb_cohomology_dims(x, b, 3) == [0, 0, 0]


def test_cohomology_sweep_builds_each_differential_once(monkeypatch):
    x, b = ones_pair()
    calls = []

    def counting(x, b, k, transposed=False):
        calls.append(k)
        return rrb_differential_matrix(x, b, k, transposed)

    monkeypatch.setattr(cohomology, "rrb_differential_matrix", counting)
    assert rrb_cohomology_dims(x, b, 3) == \
        homology_dims(rrb_differential_matrix(x, b, k) for k in (1, 2, 3))
    assert calls == [1, 2, 3]


def test_zero_module_cohomology_is_hochschild():
    """With M = 0, R = 0 and adjoint coefficients only the alpha block is
    left, so H^k is HH^k(A, A) for k >= 2.  There is no degree-0 term, so
    H^1 is every derivation: HH^1 + dim A - HH^0."""
    for seed in range(100):
        alg = random_rrb_pair(seed)[0].algebra
        x = RelativeRBAlgebra.zero_operator(Bimodule.zero_actions(alg, 0))
        hh = hochschild_cohomology_dims(Bimodule.adjoint(alg), 3)
        assert rrb_cohomology_dims(x, adjoint_bimodule(x), 3) == \
            [hh[1] + alg.dim - hh[0], hh[2], hh[3]], seed


# ----------------------------------------------------------- derivations


def test_everything_is_a_derivation_over_the_inert_fixture():
    x, b = ones_pair()
    basis = derivation_basis(x, b)
    assert len(basis) == 2
    for c in basis:
        assert check_derivation(x, b, c.alpha, c.beta[0]).ok


def test_derivations_of_the_field_on_itself():
    # alpha(e) = 2 alpha(e) forces alpha = 0; beta stays free
    x = field_adjoint_rrb()
    b = adjoint_bimodule(x)
    basis = derivation_basis(x, b)
    assert len(basis) == 1
    assert basis[0].alpha.is_zero()
    assert not basis[0].beta[0].is_zero()


def test_derivation_basis_members_satisfy_the_four_identities():
    for seed in range(6):
        x, b = random_rrb_pair(seed)
        basis = derivation_basis(x, b)
        mat = rrb_differential_matrix(x, b, 1)
        assert len(basis) == kernel_basis(mat).cols
        for c in basis:
            rep = check_derivation(x, b, c.alpha, c.beta[0])
            assert rep.ok, rep.describe()


def test_derivation_check_flags_a_non_cocycle():
    x = nilpotent_shift_rrb()
    b = adjoint_bimodule(x)
    alpha = Matrix.identity(2)
    beta = Matrix.zero(2, 2)
    assert not check_derivation(x, b, alpha, beta).ok


# ------------------------- restricted complex of a Rota-Baxter bimodule


def restricted_bimodules():
    """(A, R) over itself, for the r-matrix x (x) x and for the shift."""
    r = RMatrix(dual_numbers(), Matrix.from_rows([[0, 0], [0, 1]]))
    x = nilpotent_shift_rrb()
    return [rb_bimodule_from_r_matrix(r, Bimodule.adjoint(r.over)),
            RRBBimodule(x, x.module, x.module, x.rop, x.module.left,
                        x.module.right)]


def random_rb_cochain(seed, b, k):
    """The blocks (beta[, gamma]) of a random restricted k-cochain."""
    rng = Random(seed)
    dA, dM = b.over.algebra.dim, b.base.dim
    blocks = [random_matrix(rng, dM, dA ** k)]
    if k >= 2:
        blocks.append(random_matrix(rng, dM, dA ** (k - 1)))
    return blocks


def test_restricted_differential_of_zero_is_zero():
    """On the zero bimodule every cochain maps to zero: the differential
    from beta: A -> M to (beta: A^(x)2 -> M, gamma: A -> M) is the zero
    matrix."""
    alg = AssocAlgebra.zero(2)
    mod = Bimodule.zero_actions(alg, 2)
    b = RRBBimodule(RelativeRBAlgebra.zero_operator(Bimodule.adjoint(alg)),
                    mod, mod, Matrix.zero(2, 2), mod.left, mod.right)
    assert rb_differential_matrix(b, 1) == Matrix.zero(12, 4)
    with pytest.raises(ShapeError):
        rb_differential_matrix(b, 0)  # no differential out of degree 0


def test_restricted_differential_needs_equal_dimensions():
    """A restricted cochain is one map read as alpha and as every slot
    map, so dim M = dim A and dim B = dim N are required."""
    for b in (RRBBimodule.zero(zero_rrb(2, 1), 2, 2),
              RRBBimodule.zero(nilpotent_shift_rrb(), 2, 1)):
        with pytest.raises(ShapeError, match="restricted complex"):
            rb_differential_matrix(b, 1)


def test_restricted_differential_squares_to_zero():
    for b in restricted_bimodules():
        assert check_operator_identities(b).ok
        for k in (1, 2):
            d = rb_differential_matrix(b, k)
            assert not d.is_zero()
            assert (rb_differential_matrix(b, k + 1) * d).is_zero(), k


def test_restricted_differential_stays_in_the_embedded_image(monkeypatch):
    """rb_differential_matrix checks, on all cochains at once, that the
    image of an embedded cochain is embedded; a full differential whose
    first slot map is bumped at one entry fails that check."""
    for b in restricted_bimodules():
        for k in (1, 2, 3):
            rb_differential_matrix(b, k)
    full = cohomology.rrb_differential_matrix

    def bumped(x, b, k):
        alpha = b.base.dim * x.algebra.dim ** (k + 1)
        return bump_map(full(x, b, k), (alpha, 0))

    monkeypatch.setattr(cohomology, "rrb_differential_matrix", bumped)
    for b in restricted_bimodules():
        for k in (1, 2, 3):
            with pytest.raises(StructuralError, match="slot map"):
                rb_differential_matrix(b, k)


def test_restricted_differential_matches_the_per_cochain_reference():
    """The matrix P d E against the full differential applied to each
    embedded cochain, its slot maps checked and dropped one by one."""
    for b in restricted_bimodules():
        for k in (1, 2, 3):
            d = rb_differential_matrix(b, k)
            for seed in range(5):
                blocks = random_rb_cochain(100 * k + seed, b, k)
                want = ref.ref_rb_restrict(b, k, *blocks)
                assert d * stacked(blocks) == stacked(want), (k, seed)


# ------------------------------------------------- labelled cochains, hat


def labelled_fixture():
    x = nilpotent_shift_rrb()
    b = adjoint_bimodule(x)
    den, _, rep = induced_dendriform(x)
    assert rep.ok
    e = induced_dendriform_representation(b)
    return x, b, den, e


def test_hat_identity_block_shape():
    # one label, D = E = 1: the hat of the identity map is the 2x2 identity
    hat, _ = ref.ref_dendriform_embedding(1, 1, 1)
    assert Matrix(2, 2, apply(hat, (Q(1),))) == Matrix.identity(2)


def test_unhat_inverts_hat():
    _, _, den, e = labelled_fixture()
    dD, dE = den.dim, e.dim
    for k in (1, 2, 3):
        hat, unhat = ref.ref_dendriform_embedding(k, dD, dE)
        assert unhat * hat == Matrix.identity(hat.cols), k
        host = (2 * dD) ** k
        cols, rows = row_dicts(hat.transpose()), row_dicts(unhat)
        for i in range(k):
            for tup in product(range(dD), repeat=k):
                shifted = tuple(v + dD if p == i else v
                                for p, v in enumerate(tup))
                first = flat_index([2 * dD] * k, tup)
                second = flat_index([2 * dD] * k, shifted)
                for w in range(dE):
                    col = (i * dE + w) * dD ** k + flat_index([dD] * k, tup)
                    assert cols[col] == {w * host + first: 1,
                                         (dE + w) * host + second: 1}
                    assert rows[col] == {(dE + w) * host + second: 1}


def labelled_pairs():
    """(name, D, E): the induced dendriform data of the two hand fixtures
    and of random_rrb_pair(s), s = 0..99."""
    pairs = [(x, adjoint_bimodule(x))
             for x in (nilpotent_shift_rrb(), one_sided_rrb())]
    pairs += [random_rrb_pair(seed) for seed in range(100)]
    for name, (x, b) in zip(["shift", "one-sided", *range(100)], pairs):
        den, _, _ = induced_dendriform(x)
        yield name, den, induced_dendriform_representation(b)


def test_labelled_differential_squares_to_zero():
    nonzero = {1: 0, 2: 0}
    for name, den, e in labelled_pairs():
        d = {k: dendriform_differential_matrix(den, e, k) for k in (1, 2, 3)}
        for k in (1, 2):
            assert (d[k + 1] * d[k]).is_zero(), (name, k)
            nonzero[k] += not d[k].is_zero()
    # D_k = 0 reads 0 = 0; the identity must keep being tested on the
    # fixtures where it does not vanish
    assert nonzero[1] >= 42 and nonzero[2] >= 47, nonzero


def test_labelled_differential_matches_host_reference():
    # the reference reads D_k through the doubled Hochschild complex and
    # raises unless H_{k+1} D_k = delta H_k, so equality also pins that
    # invariant; k = 3 on dim D = 3 costs about 0.3 s a case, so it runs
    # on sample 14 alone
    nonzero = 0
    for name, den, e in labelled_pairs():
        for k in (1, 2, 3):
            if k == 3 and den.dim > 2 and name != 14:
                continue
            d = dendriform_differential_matrix(den, e, k)
            assert d == ref.ref_dendriform_differential_matrix(den, e, k), \
                (name, k)
            nonzero += not d.is_zero()
    assert nonzero >= 135, nonzero


def test_labelled_differential_vanishes_over_zero_dendriform():
    den = zero_dendriform(2)
    e = zero_dendriform_rep(den, 2)
    for k in (1, 2):
        d = dendriform_differential_matrix(den, e, k)
        assert (d.rows, d.cols) == ((k + 1) * 2 * 2 ** (k + 1),
                                    k * 2 * 2 ** k)
        assert d.is_zero()


def test_labelled_differential_raises_off_the_embedding(monkeypatch):
    # a host differential that lands on tuples with two second-component
    # arguments leaves the embedded subspace, which the guard must catch
    _, _, den, e = labelled_fixture()
    dD = den.dim

    def off_embedding(mod, k):
        cols = mod.dim * mod.over.dim ** k
        row = flat_index([2 * dD] * (k + 1), (dD,) * (k + 1))
        return Matrix.from_entries(mod.dim * mod.over.dim ** (k + 1), cols,
                                   {(row, j): Q(1) for j in range(cols)})

    monkeypatch.setattr(ref, "hochschild_matrix", off_embedding)
    with pytest.raises(StructuralError):
        ref.ref_dendriform_differential_matrix(den, e, 1)


# ----------------------------------------------------------- chain map


def test_pairing_map_of_zero_is_zero():
    # zero goes to zero, and labels 2..k are zero whatever the input
    x, b, _, _ = labelled_fixture()
    for k in (1, 2, 3):
        psi = psi_matrix(x, b, k)
        assert not any(apply(psi, (Q(0),) * psi.cols))
        label = b.fiber.dim * x.module.dim ** (k + 1)
        rows = row_dicts(psi)
        assert psi.rows == (k + 1) * label
        assert any(rows[:label]) and any(rows[k * label:])
        assert not any(rows[label:k * label])


def test_pairing_map_vanishes_without_pairings():
    x = nilpotent_shift_rrb()
    b = RRBBimodule.zero(x, 2, 2)
    for k in (1, 2):
        psi = psi_matrix(x, b, k)
        assert (psi.rows, psi.cols) == ((k + 1) * 2 * 2 ** (k + 1),
                                        2 * 2 ** k)
        assert psi.is_zero()


def test_pairing_map_is_a_chain_map():
    for x, b in [(nilpotent_shift_rrb(),
                  adjoint_bimodule(nilpotent_shift_rrb())),
                 (one_sided_rrb(), coadjoint_bimodule(one_sided_rrb()))]:
        den, _, rep = induced_dendriform(x)
        assert rep.ok
        e = induced_dendriform_representation(b)
        actions = mtot_action_bimodule(b)
        for k in (1, 2):
            lhs = dendriform_differential_matrix(den, e, k + 1) * \
                psi_matrix(x, b, k)
            rhs = psi_matrix(x, b, k + 1) * hochschild_matrix(actions, k)
            assert lhs == rhs, (k,)


def test_pairing_map_rejects_wrong_shape():
    x, b, den, e = labelled_fixture()
    with pytest.raises(ShapeError):
        psi_matrix(x, b, 0)
    with pytest.raises(ShapeError):
        ref.ref_dendriform_embedding(0, den.dim, e.dim)
    with pytest.raises(ShapeError):
        dendriform_differential_matrix(den, e, 0)


# ------------------------------------------------- semidirect subcomplex


def test_differential_commutes_with_semidirect_inclusion():
    # this also pins the twisted block: the slot maps of the small
    # differential must agree with the matching blocks upstairs
    done = 0
    for seed in range(20):
        x, b = random_rrb_pair(seed)
        if x.algebra.dim + b.base.dim > 4 or x.module.dim + b.fiber.dim > 4:
            continue
        big_x, big_b = semidirect_complex(b)
        assert check_relative_rb(big_x).ok
        assert check_rrb_bimodule(big_b).ok
        for k in (1, 2):
            inc_k = semidirect_inclusion_matrix(x, b, k)
            inc_next = semidirect_inclusion_matrix(x, b, k + 1)
            d_small = rrb_differential_matrix(x, b, k)
            d_big = rrb_differential_matrix(big_x, big_b, k)
            assert d_big * inc_k == inc_next * d_small, (seed, k)
        done += 1
        if done >= 6:
            break
    assert done >= 6


def test_inclusion_is_injective_with_unit_entries():
    x, b = small_pairs()[1]
    for k in (1, 2):
        inc = semidirect_inclusion_matrix(x, b, k)
        small = sum(cochain_space_dims(x, b, k))
        cols = set()
        for i, j, v in inc.nonzero_items():
            assert v == 1
            cols.add(j)
        assert cols == set(range(small))


# ----------------------------------------------------------- round trips


def cochain_document(x, b, c):
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    ff.declare_cocycle(doc, "c", c, xn, bn, asp, msp, bsp, fsp)
    return doc


def test_cochain_json_round_trip():
    for seed in range(4):
        x, b = random_rrb_pair(seed)
        for k in (1, 2, 3):
            c = random_rrb_cochain(seed * 10 + k, x, b, k)
            text = ff.dump_document(cochain_document(x, b, c))
            assert coords(ff.parse_text(text).by_name["c"].obj) == \
                coords(c), (seed, k)


def test_cochain_json_rejects_wrong_slot_count():
    x, b = ones_pair()
    doc = cochain_document(x, b, random_rrb_cochain(3, x, b, 3))
    entry = doc["declare"][-1]
    entry["beta"] = entry["beta"][:2]
    with pytest.raises(ff.ParseError, match="needs 3 linear names"):
        ff.parse_text(ff.dump_document(doc))


def test_cochain_vector_round_trip():
    x, b = small_pairs()[1]
    for k in (1, 2, 3):
        c = random_rrb_cochain(k, x, b, k)
        column = stacked(c.blocks())
        assert c.vector() == column.column(0)
        assert coords(RRBCochain.of_column(x, b, k, column)) == column
