"""Abelian extensions, two-term homotopy data, and the skeletal dictionary."""

from collections import Counter

import pytest

from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, ShapeError, StructuralError,
    StructureConstants, check_associativity, check_bimodule,
    hochschild_matrix,
)
from rotabaxter.classification import (
    AbelianExtension, AInftyBimodule, HomotopyRRBOperator, Section,
    TwoTermAInfty, build_extension, canonical_section,
    check_abelian_extension, check_ainfty_bimodule, check_extension_morphism,
    check_homotopy_rrb_operator, check_two_term_ainfty, cobounding_cochain,
    extension_iso_from_cobounding, extract_cocycle, induced_fiber_bimodule,
    skeletal_to_triple, triple_to_skeletal,
)
from rotabaxter.cohomology import (
    RRBCochain, cocycle_report, derivation_basis, rrb_differential,
    rrb_differential_matrix,
)
from rotabaxter.linalg import (
    Matrix, Q, inverse, kernel_basis, solve_columns, stacked,
)
from rotabaxter.rrb import (
    RRBMorphism, RelativeRBAlgebra, aybe_check, check_morphism,
    check_relative_rb, rb_from_r_matrix,
)
from rotabaxter.rrb_modules import (
    RRBBimodule, check_laws, check_rrb_bimodule, dual_rrb_bimodule,
    rb_bimodule_from_r_matrix, semidirect_rrb,
)
from rotabaxter.samples import (
    bump_constants, bump_map, random_invertible, random_matrix,
    random_rrb_cochain, random_rrb_cocycle, random_rrb_pair, transport_rrb,
)

import random

from helpers import (
    apply, at, basis_vec, bilinear, coords, dual_numbers, fractions_made,
    identity_morphism, linmap, nested, nonskeletal_two_term, ref_build,
    ref_rb_bimodule_from_r_matrix, ref_rb_from_r_matrix,
    upper_triangular_r_matrix, zero_ainfty_bimodule, zero_cochain,
    zero_homotopy_rrb, zero_two_term,
)


def seeded_cocycle(seed, x, b, k):
    return random_rrb_cocycle(seed, x, b, k) or zero_cochain(x, b, k)


def extension_fixture(seed):
    x, b = random_rrb_pair(seed=seed)
    return x, b, seeded_cocycle(seed + 1000, x, b, 2)


def zero_structure_pair(dim_a=1, dim_m=1, dim_b=1, dim_n=1):
    """Everything zero: all cochains are cocycles, all coboundaries vanish."""
    alg = AssocAlgebra.zero(dim_a)
    x = RelativeRBAlgebra.zero_operator(Bimodule.zero_actions(alg, dim_m))
    return x, RRBBimodule.zero(x, dim_b, dim_n)


def perturbed_section(e, theta, vartheta):
    """s(a) = (a, theta(a)), sbar(m) = (m, vartheta(m)) in glued coordinates."""
    dA, dM = e.base.algebra.dim, e.base.module.dim
    s_rows = [[Q(1) if j == i else Q(0) for j in range(dA)]
              for i in range(dA)]
    s_rows += [list(theta.row(w)) for w in range(e.sop.rows)]
    sb_rows = [[Q(1) if j == i else Q(0) for j in range(dM)]
               for i in range(dM)]
    sb_rows += [list(vartheta.row(v)) for v in range(e.sop.cols)]
    return Section(Matrix.from_rows(s_rows),
                   Matrix.from_rows(sb_rows)).validate(e)


def coefficient_tensors(b):
    return (nested(b.base.left), nested(b.base.right), nested(b.fiber.left),
            nested(b.fiber.right), b.sop, nested(b.left_pair),
            nested(b.right_pair))


# ------------------------------------------------------------- building


def test_split_extension_matches_semidirect():
    for seed in range(4):
        x, b = random_rrb_pair(seed=seed)
        e = build_extension(x, b, zero_cochain(x, b, 2))
        sd = semidirect_rrb(b)
        assert nested(e.total.algebra.mu) == nested(sd.algebra.mu)
        assert nested(e.total.module.left) == nested(sd.module.left)
        assert nested(e.total.module.right) == nested(sd.module.right)
        assert e.total.rop == sd.rop


def test_zero_structure_total_is_pure_cocycle():
    x, b = zero_structure_pair()
    c = RRBCochain(2, linmap([[1]]), (linmap([[2]]), linmap([[3]])),
                   linmap([[5]]))
    e = build_extension(x, b, c)
    mu = e.total.algebra.mu
    assert nested(mu)[0][0] == (Q(0), Q(1))          # alpha
    assert nested(mu)[0][1] == (Q(0), Q(0))          # fiber actions are zero
    assert nested(e.total.module.left)[0][0] == (Q(0), Q(3))   # slot-2 map
    assert nested(e.total.module.right)[0][0] == (Q(0), Q(2))  # slot-1 map
    assert e.total.rop == Matrix.from_rows([[Q(0), Q(0)],
                                            [Q(5), Q(0)]])


def test_built_extension_passes_full_check():
    for seed in (0, 5, 9):
        x, b, c = extension_fixture(seed)
        rep = check_abelian_extension(build_extension(x, b, c))
        assert rep.subject == "abelian_extension"
        assert rep.ok, rep.describe()


def test_build_rejects_non_cocycle_naming_block():
    hit = False
    for seed in range(12):
        x, b, c = extension_fixture(seed)
        if c.alpha.cols == 0 or c.alpha.rows == 0:
            continue
        bad = RRBCochain(2, bump_map(c.alpha, (0, 0)), c.beta, c.gamma)
        image = rrb_differential(x, b, 2, bad)
        if coords(image).is_zero():
            continue
        hit = True
        with pytest.raises(StructuralError) as err:
            build_extension(x, b, bad)
        msg = str(err.value)
        assert "not a cocycle" in msg
        assert "alpha" in msg or "beta" in msg or "gamma" in msg
    assert hit


def building_inputs(seed, x, b):
    """Degree-2 cochains on (x, b): its seeded cocycle, four random
    cochains with entries in {0, 1, -1, 2}, and the cocycle with one
    coordinate moved by 1 or -1, at four random coordinates (none when
    the cochains have no coordinate)."""
    rng = random.Random(seed)
    c = seeded_cocycle(seed + 1000, x, b, 2)
    col = coords(c)
    size = col.rows
    out = [c]
    for _ in range(4):
        out.append(RRBCochain.of_column(x, b, 2, Matrix(
            size, 1, [rng.choice((0, 1, -1, 2)) for _ in range(size)])))
    for _ in range(4 if size else 0):
        moved = bump_map(col, (rng.randrange(size), 0), rng.choice((1, -1)))
        out.append(RRBCochain.of_column(x, b, 2, moved))
    return out


def rrb_matrices(x):
    """The matrices a structure file stores for x: product, both actions
    and the operator."""
    return [x.algebra.mu.matrix, x.module.left.matrix, x.module.right.matrix,
            x.rop]


def rrb_of(dim_a, dim_m, mu, left, right, rop):
    """The structure with the matrices rrb_matrices lists."""
    alg = AssocAlgebra(dim_a, StructureConstants(dim_a, dim_a, mu))
    return RelativeRBAlgebra(alg, Bimodule(
        alg, dim_m, StructureConstants(dim_a, dim_m, left),
        StructureConstants(dim_m, dim_a, right)), rop)


def pair_matrices(x, b):
    """The matrices a structure file stores for the pair (x, b)."""
    return [*rrb_matrices(x), *(m.matrix for m in (
        b.base.left, b.base.right, b.fiber.left, b.fiber.right)),
        b.sop, b.left_pair.matrix, b.right_pair.matrix]


def pair_of(x, b, ms):
    """The pair of the shape of (x, b) with the matrices ms, read as a
    structure file is: the coefficients over the algebra ms gives."""
    dA, dM, dB, dN = x.algebra.dim, x.module.dim, b.base.dim, b.fiber.dim
    y = rrb_of(dA, dM, *ms[:4])
    alg, sc = y.algebra, StructureConstants
    return y, RRBBimodule(
        y, Bimodule(alg, dB, sc(dA, dB, ms[4]), sc(dB, dA, ms[5])),
        Bimodule(alg, dN, sc(dA, dN, ms[6]), sc(dN, dA, ms[7])), ms[8],
        sc(dM, dB, ms[9]), sc(dB, dM, ms[10]))


def one_scalar_changes(ms):
    """(k, the matrices ms with one entry of ms[k] moved by 1 or -1), for
    every entry of every matrix and both signs."""
    for k, m in enumerate(ms):
        for i in range(m.rows):
            for j in range(m.cols):
                for delta in (1, -1):
                    yield k, [*ms[:k], bump_map(m, (i, j), delta),
                              *ms[k + 1:]]


def test_build_decides_exactly_as_the_cocycle_condition():
    """The glued total is a relative Rota-Baxter algebra exactly when the
    algebra, the coefficients and the cocycle condition all pass.  On a
    valid pair build_extension raises "not a cocycle" exactly when
    cocycle_report fails, and otherwise returns an extension that passes
    check_abelian_extension.  On every change of one scalar of the algebra
    or of the coefficients of samples 0-19 by 1 or -1 (at most 40 of each
    sample's, evenly spread), with their seeded cocycle, it raises exactly
    when check_laws of either or cocycle_report fails: the fact by which
    extend reads those laws only on a failure."""
    counts = [0, 0]
    for seed in range(100):
        x, b = random_rrb_pair(seed=seed)
        if not (check_laws(x) and check_laws(b)):
            continue
        for c in building_inputs(seed, x, b):
            cocycle = cocycle_report(x, b, c).ok
            counts[cocycle] += 1
            if cocycle:
                assert check_abelian_extension(build_extension(x, b, c)).ok
            else:
                with pytest.raises(StructuralError, match="^not a cocycle"):
                    build_extension(x, b, c)
    assert min(counts) > 100, counts
    # (algebra and cocycle condition, coefficients) -> inputs; the laws of
    # the coefficients are read only where the other two pass
    verdicts = Counter()
    for seed in range(20):
        x, b, c = extension_fixture(seed)
        # every change of the 2,434 would take about 7 s, most of it on the
        # larger samples: those read every step-th, 40 in all
        changes = list(one_scalar_changes(pair_matrices(x, b)))
        step = -(-len(changes) // 40)
        for _, ms in changes[::step]:
            y, d = pair_of(x, b, ms)
            rest = check_laws(y).ok and cocycle_report(y, d, c).ok
            verdict = (rest, rest and check_laws(d).ok)
            verdicts[verdict] += 1
            if all(verdict):
                assert check_abelian_extension(build_extension(y, d, c)).ok
            else:
                with pytest.raises(StructuralError):
                    build_extension(y, d, c)
    # 41 inputs fail in the coefficients alone
    assert verdicts == {(False, False): 558, (True, False): 41,
                        (True, True): 30}, verdicts


def test_build_names_an_invalid_bimodule_when_the_cochain_is_a_cocycle():
    x, b = random_rrb_pair(seed=2)
    bent = RRBBimodule(x, Bimodule(x.algebra, b.base.dim,
                                   bump_constants(b.base.left, (0, 0, 0)),
                                   b.base.right),
                       b.fiber, b.sop, b.left_pair, b.right_pair)
    assert not check_laws(bent)
    with pytest.raises(StructuralError) as err:
        build_extension(x, bent, zero_cochain(x, bent, 2))
    assert str(err.value).split("\n")[0] == (
        "glued total fails its axioms, so the coefficient bimodule is not "
        "valid:")


def test_build_rejects_wrong_degree():
    x, b = zero_structure_pair()
    one = zero_cochain(x, b, 1)
    with pytest.raises(ShapeError):
        build_extension(x, b, one)
    with pytest.raises(ShapeError):
        build_extension(x, b, zero_cochain(x, b, 3))


# ----------------------------------------------------------- extracting


def test_extract_canonical_round_trip():
    for seed in range(12):
        x, b, c = extension_fixture(seed)
        e = build_extension(x, b, c)
        assert coords(extract_cocycle(e, canonical_section(e))) == coords(c)


def test_canonical_section_is_block_injection_on_built():
    x, b, c = extension_fixture(3)
    e = build_extension(x, b, c)
    sec = canonical_section(e)
    dA, dB = x.algebra.dim, b.base.dim
    want = [[Q(1) if j == i else Q(0) for j in range(dA)]
            for i in range(dA)]
    want += [[Q(0)] * dA for _ in range(dB)]
    assert sec.s == Matrix.from_rows(want)


def test_perturbed_section_shifts_extract_by_coboundary():
    for seed in range(8):
        rng = random.Random(seed + 77)
        x, b, c = extension_fixture(seed)
        e = build_extension(x, b, c)
        theta = random_matrix(rng, b.base.dim, x.algebra.dim)
        varth = random_matrix(rng, b.fiber.dim, x.module.dim)
        got = extract_cocycle(e, perturbed_section(e, theta, varth))
        shift = rrb_differential(x, b, 1, RRBCochain(1, theta, (varth,)))
        want = tuple(p + q for p, q in zip(c.vector(), shift.vector()))
        assert tuple(got.vector()) == want


def test_section_validation_rejects_non_sections():
    x, b, c = extension_fixture(1)
    e = build_extension(x, b, c)
    nA = e.total.algebra.dim
    nM = e.total.module.dim
    with pytest.raises(ShapeError):
        Section(Matrix.zero(nA, x.algebra.dim + 1),
                Matrix.zero(nM, x.module.dim)).validate(e)
    # right shapes, but the projection does not recover the identity
    with pytest.raises(StructuralError):
        Section(Matrix.zero(nA, x.algebra.dim),
                Matrix.zero(nM, x.module.dim)).validate(e)


# ------------------------------------------------------ induced bimodule


def test_induced_bimodule_recovers_coefficients():
    for seed in range(10):
        x, b, c = extension_fixture(seed)
        e = build_extension(x, b, c)
        ind = induced_fiber_bimodule(e, canonical_section(e))
        assert coefficient_tensors(ind) == coefficient_tensors(b)


def test_induced_bimodule_is_section_independent():
    for seed in range(5):
        rng = random.Random(seed + 31)
        x, b, c = extension_fixture(seed)
        e = build_extension(x, b, c)
        sec = perturbed_section(
            e, random_matrix(rng, b.base.dim, x.algebra.dim),
            random_matrix(rng, b.fiber.dim, x.module.dim))
        ind = induced_fiber_bimodule(e, sec)
        assert coefficient_tensors(ind) == coefficient_tensors(b)


def test_induced_bimodule_zero_structure_is_zero():
    x, b = zero_structure_pair()
    c = RRBCochain(2, linmap([[1]]), (linmap([[2]]), linmap([[3]])),
                   linmap([[5]]))
    e = build_extension(x, b, c)
    ind = induced_fiber_bimodule(e, canonical_section(e))
    assert coefficient_tensors(ind) == coefficient_tensors(b)
    assert ind.base.left.is_zero() and ind.left_pair.is_zero()


# ------------------------------------------------- cocycles up to bounds


def test_cobounding_cochain_finds_witness():
    for seed in range(6):
        rng = random.Random(seed + 13)
        x, b, c = extension_fixture(seed)
        theta = random_matrix(rng, b.base.dim, x.algebra.dim)
        varth = random_matrix(rng, b.fiber.dim, x.module.dim)
        shift = rrb_differential(x, b, 1, RRBCochain(1, theta, (varth,)))
        c2 = RRBCochain.of_column(
            x, b, 2, stacked(c.blocks()) + stacked(shift.blocks()))
        w = cobounding_cochain(x, b, c2, c)
        assert w is not None
        back = rrb_differential(x, b, 1, w)
        assert coords(back) == coords(shift)


def test_cobounding_cochain_none_when_not_cohomologous():
    # with zero structure every degree-1 differential vanishes, so a
    # nonzero cocycle is never a coboundary
    x, b = zero_structure_pair()
    c = RRBCochain(2, linmap([[1]]), (linmap([[0]]), linmap([[0]])),
                   linmap([[0]]))
    z = zero_cochain(x, b, 2)
    assert cobounding_cochain(x, b, c, z) is None
    with pytest.raises(ShapeError):
        cobounding_cochain(x, b, c, zero_cochain(x, b, 3))


def test_elimination_and_extraction_build_no_fraction(monkeypatch):
    """kernel_basis, solve_columns and inverse return matrices built in
    integers, and so does reading the cocycle of sample 14's extension
    back through its canonical section.  Cochains are cut from columns in
    integers too: the differential of a non-cocycle, the derivation basis,
    a cobounding cochain and the report on a cocycle make no Fraction,
    and a random cocycle makes one per coefficient it draws."""
    x, b = random_rrb_pair(14)
    c = seeded_cocycle(14, x, b, 2)
    e = build_extension(x, b, c)
    d = rrb_differential_matrix(x, b, 1)
    p = random_invertible(random.Random(14), 6)
    # the columns of d, all in its image, then the unit vectors, not all
    rhs = Matrix.from_blocks(d.rows, d.cols + d.rows, (
        (1, d, 0, 0), (1, Matrix.identity(d.rows), 0, d.cols)))
    free = random_rrb_cochain(14, x, b, 2)
    shift = rrb_differential(x, b, 1, random_rrb_cochain(15, x, b, 1))
    c2 = RRBCochain.of_column(
        x, b, 2, stacked(c.blocks()) + stacked(shift.blocks()))
    drawn = kernel_basis(rrb_differential_matrix(x, b, 2)).cols
    made = fractions_made(monkeypatch)
    basis = kernel_basis(d)
    sol, bad = solve_columns(d, rhs)
    inv = inverse(p)
    got = extract_cocycle(e, canonical_section(e))
    image = rrb_differential(x, b, 2, free)
    derivations = derivation_basis(x, b)
    w = cobounding_cochain(x, b, c2, c)
    report = cocycle_report(x, b, c)
    assert made == []
    z = random_rrb_cocycle(16, x, b, 2)
    assert len(made) == drawn
    monkeypatch.undo()
    assert basis.cols and (d * basis).is_zero()
    assert bad and min(bad) >= d.cols
    assert d * sol == Matrix.from_blocks(d.rows, d.cols + d.rows,
                                         [(1, d, 0, 0)])
    assert inv * p == Matrix.identity(6)
    assert coords(got) == coords(c)
    assert not coords(image).is_zero()
    assert len(derivations) == basis.cols
    assert not coords(shift).is_zero()
    assert coords(rrb_differential(x, b, 1, w)) == coords(shift)
    assert report.ok and cocycle_report(x, b, z).ok


def test_constructions_build_no_fraction(monkeypatch):
    """The constructions that move structure constants move integers: the
    dual of sample 14's bimodule, the semidirect structure of that dual,
    the extension along a cocycle, the AYBE check and the two operators
    of an r-matrix with fractional entries make no Fraction."""
    x, b = random_rrb_pair(14)
    c = seeded_cocycle(14, x, b, 2)
    r = upper_triangular_r_matrix(random_invertible(random.Random(14), 3))
    mod = Bimodule.adjoint(r.over)
    made = fractions_made(monkeypatch)
    dual = dual_rrb_bimodule(b)
    big = semidirect_rrb(dual)
    e = build_extension(x, b, c)
    aybe = aybe_check(r)
    rop = rb_from_r_matrix(r).rop
    mop = rb_bimodule_from_r_matrix(r, mod).sop
    assert made == []
    monkeypatch.undo()
    assert check_rrb_bimodule(dual).ok and check_relative_rb(big).ok
    assert check_abelian_extension(e).ok
    assert aybe.ok
    assert rop == ref_rb_from_r_matrix(r).rop
    assert mop == ref_rb_bimodule_from_r_matrix(r, mod).sop


def test_cobounding_cochain_refuses_a_cochain_of_another_pair():
    # validated against (x, b) before the solve, on either side: not
    # zipped with the other cochain and cut short
    x, b = random_rrb_pair(14)
    c = seeded_cocycle(14, x, b, 2)
    other = zero_cochain(*random_rrb_pair(0), 2)
    for c1, c2 in ((c, other), (other, c)):
        with pytest.raises(ShapeError, match="alpha must map"):
            cobounding_cochain(x, b, c1, c2)


# --------------------------------------------------------- isomorphisms


def test_extension_iso_identity_for_equal_cocycles():
    x, b, c = extension_fixture(2)
    e = build_extension(x, b, c)
    mor = extension_iso_from_cobounding(
        e, e, Matrix.zero(b.base.dim, x.algebra.dim),
        Matrix.zero(b.fiber.dim, x.module.dim))
    assert mor.phi == Matrix.identity(e.total.algebra.dim)
    assert mor.psi == Matrix.identity(e.total.module.dim)


def test_extension_iso_is_a_shear_in_glued_coordinates():
    for seed in range(6):
        rng = random.Random(seed + 41)
        x, b, c = extension_fixture(seed)
        theta = random_matrix(rng, b.base.dim, x.algebra.dim)
        varth = random_matrix(rng, b.fiber.dim, x.module.dim)
        shift = rrb_differential(x, b, 1, RRBCochain(1, theta, (varth,)))
        c2 = RRBCochain.of_column(
            x, b, 2, stacked(c.blocks()) + stacked(shift.blocks()))
        e1 = build_extension(x, b, c2)
        e2 = build_extension(x, b, c)
        mor = extension_iso_from_cobounding(e1, e2, theta, varth)
        rep = check_extension_morphism(e1, e2, mor)
        assert rep.ok, rep.describe()
        dA, dB = x.algebra.dim, b.base.dim
        for w in range(dB):
            for i in range(dA):
                assert at(mor.phi, dA + w, i) == at(theta, w, i)
        if dB:
            # embedded fiber vectors are fixed
            assert mor.phi.column(dA) == basis_vec(dA + dB, dA)


def test_extension_iso_from_coboundary_reaches_the_split():
    rng = random.Random(99)
    x, b = random_rrb_pair(seed=4)
    theta = random_matrix(rng, b.base.dim, x.algebra.dim)
    varth = random_matrix(rng, b.fiber.dim, x.module.dim)
    cb = rrb_differential(x, b, 1, RRBCochain(1, theta, (varth,)))
    e = build_extension(x, b, cb)
    split = build_extension(x, b, zero_cochain(x, b, 2))
    mor = extension_iso_from_cobounding(e, split, theta, varth)
    assert check_extension_morphism(e, split, mor).ok


def test_extension_iso_rejects_non_cobounding_pairs():
    x, b = zero_structure_pair()
    c = RRBCochain(2, linmap([[1]]), (linmap([[0]]), linmap([[0]])),
                   linmap([[0]]))
    e1 = build_extension(x, b, c)
    e2 = build_extension(x, b, zero_cochain(x, b, 2))
    with pytest.raises(StructuralError):
        extension_iso_from_cobounding(e1, e2, Matrix.zero(1, 1),
                                      Matrix.zero(1, 1))


def test_extension_iso_rejects_different_fiber_bimodules():
    x, b = zero_structure_pair()
    b2 = RRBBimodule(x, b.base, b.fiber, Matrix.identity(1),
                     b.left_pair, b.right_pair)
    assert check_rrb_bimodule(b2).ok
    e1 = build_extension(x, b, zero_cochain(x, b, 2))
    e2 = build_extension(x, b2, zero_cochain(x, b2, 2))
    with pytest.raises(StructuralError):
        extension_iso_from_cobounding(e1, e2, Matrix.zero(1, 1),
                                      Matrix.zero(1, 1))


def test_check_extension_morphism_detects_tampering():
    x, b, c = extension_fixture(2)
    e = build_extension(x, b, c)
    mor = extension_iso_from_cobounding(
        e, e, Matrix.zero(b.base.dim, x.algebra.dim),
        Matrix.zero(b.fiber.dim, x.module.dim))
    bent = RRBMorphism(e.total, e.total, bump_map(mor.phi, (0, 0)), mor.psi)
    assert not check_extension_morphism(e, e, bent).ok


def test_failing_row_and_commutation_reports_are_unchanged():
    """The lines of the row-exactness and commutation laws of a failing
    extension check and extension morphism check, as first recorded: each
    side is the dense row-major tuple of its map."""
    x, b, c = extension_fixture(0)
    e = build_extension(x, b, c)
    dA, dM = x.algebra.dim, x.module.dim
    bent = AbelianExtension(e.base, e.sop, e.total, e.alg_incl, e.mod_incl,
                            bump_map(e.alg_proj, (0, dA)),
                            bump_map(e.mod_proj, (0, dM)))
    lines = check_abelian_extension(bent).describe().split("\n")
    assert lines[:3] == [
        "abelian_extension: FAIL (12 violations)",
        "  alg_row_exact at (): lhs=(1, 0) rhs=(0, 0)",
        "  mod_row_exact at (): lhs=(1) rhs=(0)"]
    mor = extension_iso_from_cobounding(
        e, e, Matrix.zero(b.base.dim, dA), Matrix.zero(b.fiber.dim, dM))
    moved = RRBMorphism(e.total, e.total, bump_map(mor.phi, (0, dA)),
                        bump_map(mor.psi, (0, dM)))
    lines = check_extension_morphism(e, e, moved).describe().split("\n")
    assert lines[0] == "extension_morphism: FAIL (14 violations)"
    assert lines[-4:] == [
        "  fixes_fiber_algebra at (): lhs=(1, 0, 1, 0, 0, 1) "
        "rhs=(0, 0, 1, 0, 0, 1)",
        "  fixes_fiber_module at (): lhs=(1, 1) rhs=(0, 1)",
        "  covers_base_algebra at (): lhs=(1, 1, 0) rhs=(1, 0, 0)",
        "  covers_base_module at (): lhs=(1, 1) rhs=(1, 0)"]


def test_check_extension_morphism_needs_the_totals_as_ends():
    # seeds 0 and 1 build totals of dimensions 3+2, seed 2 one of 3+3
    e0, e1, e2 = (build_extension(*extension_fixture(s)) for s in range(3))
    assert (e0.total.algebra.dim, e0.total.module.dim) == \
        (e1.total.algebra.dim, e1.total.module.dim) == (3, 2)
    assert (e2.total.algebra.dim, e2.total.module.dim) == (3, 3)
    with pytest.raises(ShapeError):
        check_extension_morphism(e0, e2, identity_morphism(e2.total))
    with pytest.raises(ShapeError):
        check_extension_morphism(e0, e0, identity_morphism(e1.total))
    assert check_extension_morphism(
        e0, e0, identity_morphism(e0.total)).ok


# ------------------------------------------------------ extension checks


def test_check_abelian_extension_detects_fiber_products():
    x, b = zero_structure_pair()
    c = zero_cochain(x, b, 2)
    e = build_extension(x, b, c)
    # force a nonzero product of two embedded fiber vectors
    mu = bump_constants(e.total.algebra.mu, (1, 1, 1))
    alg = AssocAlgebra(2, mu)
    mod = Bimodule(alg, 2, e.total.module.left, e.total.module.right)
    broken = AbelianExtension(
        e.base, e.sop, RelativeRBAlgebra(alg, mod, e.total.rop),
        e.alg_incl, e.mod_incl, e.alg_proj, e.mod_proj)
    rep = check_abelian_extension(broken)
    assert not rep.ok
    assert any(v.law.startswith("fiber_embedding:") for v in rep.violations)


def test_check_abelian_extension_detects_broken_row():
    x, b, c = extension_fixture(0)
    e = build_extension(x, b, c)
    broken = AbelianExtension(
        e.base, e.sop, e.total, e.alg_incl, e.mod_incl,
        Matrix.zero(x.algebra.dim, e.total.algebra.dim), e.mod_proj)
    rep = check_abelian_extension(broken)
    laws = {v.law for v in rep.violations}
    assert "alg_projection_surjective" in laws


def test_transported_extension_extracts_cohomologous_cocycle():
    """Conjugating the total by invertible maps hides the block layout;
    the canonical section of the transported extension still induces the
    same fiber bimodule and a cocycle cohomologous to the original."""
    for seed in (0, 3, 7):
        rng = random.Random(seed + 5)
        x, b, c = extension_fixture(seed)
        e = build_extension(x, b, c)
        nA, nM = e.total.algebra.dim, e.total.module.dim
        P = random_invertible(rng, nA)
        Qm = random_invertible(rng, nM)
        Pi, Qi = inverse(P), inverse(Qm)
        tot = e.total
        mu2 = ref_build(
            nA, nA, nA,
            lambda i, j: apply(P, bilinear(tot.algebra.mu, Pi.column(i),
                                           Pi.column(j))))
        alg2 = AssocAlgebra(nA, mu2)
        mod2 = Bimodule(
            alg2, nM,
            ref_build(
                nA, nM, nM,
                lambda i, u: apply(Qm, bilinear(tot.module.left, Pi.column(i),
                                                Qi.column(u)))),
            ref_build(
                nM, nA, nM,
                lambda u, i: apply(Qm, bilinear(tot.module.right, Qi.column(u),
                                                Pi.column(i)))))
        moved = AbelianExtension(
            e.base, e.sop,
            RelativeRBAlgebra(alg2, mod2, P * tot.rop * Qi),
            P * e.alg_incl, Qm * e.mod_incl, e.alg_proj * Pi, e.mod_proj * Qi)
        rep = check_abelian_extension(moved)
        assert rep.ok, rep.describe()
        sec = canonical_section(moved)
        ind = induced_fiber_bimodule(moved, sec)
        assert coefficient_tensors(ind) == coefficient_tensors(b)
        got = extract_cocycle(moved, sec)
        assert cobounding_cochain(x, b, got, c) is not None


def extracts_a_cocycle(e, sec):
    """Whether the cochain sec extracts from e is a cocycle for the fiber
    bimodule sec induces."""
    return cocycle_report(e.base, induced_fiber_bimodule(e, sec),
                          extract_cocycle(e, sec)).ok


def test_every_section_of_a_built_extension_extracts_a_cocycle():
    """Any section of a valid abelian extension extracts a 2-cocycle for
    the fiber bimodule it induces: the fact by which extract-cocycle
    reads no cocycle condition once the extension check passes.  Checked
    on the extensions build_extension glues for samples 0-99, read with
    the canonical section and a perturbed one, and on some of them moved
    to random bases, with the canonical section of the moved extension
    and the moved perturbed section."""
    moved = 0
    for seed in range(100):
        rng = random.Random(seed + 77)
        x, b, c = extension_fixture(seed)
        e = build_extension(x, b, c)
        sec = perturbed_section(
            e, random_matrix(rng, b.base.dim, x.algebra.dim),
            random_matrix(rng, b.fiber.dim, x.module.dim))
        assert extracts_a_cocycle(e, canonical_section(e))
        assert extracts_a_cocycle(e, sec)
        if seed % 10:
            continue
        p = random_invertible(rng, e.total.algebra.dim)
        q = random_invertible(rng, e.total.module.dim)
        p_inv, q_inv = inverse(p), inverse(q)
        f = AbelianExtension(e.base, e.sop, transport_rrb(e.total, p, q),
                             p_inv * e.alg_incl, q_inv * e.mod_incl,
                             e.alg_proj * p, e.mod_proj * q)
        assert check_abelian_extension(f).ok
        assert extracts_a_cocycle(f, canonical_section(f))
        assert extracts_a_cocycle(f, Section(p_inv * sec.s,
                                             q_inv * sec.sbar).validate(f))
        moved += 1
    assert moved == 10


def seed0_extension(seed):
    """The extension the classify-roundtrip benchmark writes at seed 0 for
    a sample, with its canonical section, or None where the sample has
    no nonzero degree-2 cocycle."""
    x, b = random_rrb_pair(seed)
    c = random_rrb_cocycle(seed, x, b, 2)
    if c is None or not any(c.vector()):
        return None
    e = build_extension(x, b, c)
    return e, canonical_section(e)


def extension_matrices(e, sec):
    """The matrices an extension declaration stores: base, fiber complex,
    total, the four structure maps and the section."""
    return [*rrb_matrices(e.base), e.sop, *rrb_matrices(e.total),
            e.alg_incl, e.mod_incl, e.alg_proj, e.mod_proj, sec.s, sec.sbar]


def extension_of(e, ms):
    """The extension and section of the shape of e with the matrices ms."""
    base = rrb_of(e.base.algebra.dim, e.base.module.dim, *ms[:4])
    total = rrb_of(e.total.algebra.dim, e.total.module.dim, *ms[5:9])
    return (AbelianExtension(base, ms[4], total, *ms[9:13]),
            Section(ms[13], ms[14]))


def fiber_complex(sop):
    """The fiber complex of an extension, with zero products and actions."""
    alg = AssocAlgebra.zero(sop.rows)
    return RelativeRBAlgebra(alg, Bimodule.zero_actions(alg, sop.cols), sop)


def fails_a_part(e):
    """Whether e fails a part of check_abelian_extension other than its
    ranks: the parts are read cheapest first, up to the first that fails,
    and each failure fails that check."""
    tot = e.total
    parts = (
        lambda: ((e.alg_proj * e.alg_incl).is_zero()
                 and (e.mod_proj * e.mod_incl).is_zero()),
        lambda: check_morphism(RRBMorphism(tot, e.base, e.alg_proj,
                                           e.mod_proj)),
        lambda: check_morphism(RRBMorphism(fiber_complex(e.sop), tot,
                                           e.alg_incl, e.mod_incl)),
        lambda: check_relative_rb(tot),
        lambda: check_associativity(tot.algebra),
        lambda: check_bimodule(tot.module))
    return not all(part() for part in parts)


def test_changed_extension_files_that_pass_extract_a_cocycle():
    """Every change of one scalar of the seed-0 extension files of samples
    0-19 by 1 or -1 (every other one where there are over 1,000) that
    still passes check_abelian_extension, and whose section is still one,
    extracts a cocycle for the fiber bimodule its section induces.  A
    change of the section alone keeps the extension, which passes."""
    kept = Counter()
    for seed in range(20):
        built = seed0_extension(seed)
        if built is None:
            continue
        e, sec = built
        # the two files of dimension 3 have 1,782 changes each and would
        # take over half the time
        changes = list(one_scalar_changes(extension_matrices(e, sec)))
        for k, ms in changes[::-(-len(changes) // 1000)]:
            f, fsec = extension_of(e, ms)
            if k < 13 and (fails_a_part(f)
                           or not check_abelian_extension(f).ok):
                continue
            try:
                fsec.validate(f)
            except StructuralError:
                kept["not a section"] += 1
                continue
            assert extracts_a_cocycle(f, fsec), (seed, k)
            kept["section" if k >= 13 else "extension"] += 1
    # a change the extension check passes whose section is no longer one
    # is refused by extract-cocycle before it extracts
    assert kept == {"extension": 151, "section": 194,
                    "not a section": 202}, kept


# ------------------------------------------------- two-term homotopy data


def hochschild_two_term(idx=0):
    """Skeletal two-term data over k[x]/(x^2) acting on itself, with the
    ternary corrector a Hochschild 3-cocycle."""
    alg = dual_numbers()
    mod = Bimodule.adjoint(alg)
    basis = kernel_basis(hochschild_matrix(mod, 3))
    assert basis.cols
    vec = basis.column(idx % basis.cols)
    mu3 = Matrix(mod.dim, alg.dim ** 3, vec)
    return TwoTermAInfty(alg.dim, mod.dim, Matrix.zero(alg.dim, mod.dim),
                         (alg.mu, mod.left, mod.right), mu3)


def test_zero_two_term_data_passes():
    a = zero_two_term(2, 2)
    m = zero_ainfty_bimodule(a, 2, 2)
    assert check_two_term_ainfty(a).ok
    assert check_ainfty_bimodule(a, m).ok
    assert check_homotopy_rrb_operator(
        a, m, zero_homotopy_rrb(a, m)).ok


def test_hochschild_cocycle_two_term_passes():
    a = hochschild_two_term()
    assert check_two_term_ainfty(a).ok
    assert check_ainfty_bimodule(a, AInftyBimodule.adjoint(a)).ok


def test_non_cocycle_corrector_fails_exactly_the_cocycle_law():
    a = hochschild_two_term()
    mat = hochschild_matrix(Bimodule.adjoint(dual_numbers()), 3)
    hit = False
    for col in range(a.mu3.cols * a.mu3.rows):
        vec = list(a.mu3.entries)
        vec[col] += Q(1)
        if apply(mat, tuple(vec)) == tuple([Q(0)] * mat.rows):
            continue
        bad = TwoTermAInfty(a.dim0, a.dim1, a.d, (a.mu00, a.mu01, a.mu10),
                            Matrix(a.mu3.rows, a.mu3.cols, vec))
        rep = check_two_term_ainfty(bad)
        assert not rep.ok
        assert {v.law for v in rep.violations} == {"corrector_cocycle"}
        hit = True
        break
    assert hit


def test_nonskeletal_fixture_passes_and_is_rejected_by_conversion():
    a = nonskeletal_two_term()
    assert not a.skeletal
    assert check_two_term_ainfty(a).ok
    adj = AInftyBimodule.adjoint(a)
    assert check_ainfty_bimodule(a, adj).ok
    with pytest.raises(StructuralError):
        skeletal_to_triple(a, adj, zero_homotopy_rrb(a, adj))


def test_two_term_shape_validation():
    with pytest.raises(ShapeError):
        TwoTermAInfty(2, 1, Matrix.zero(2, 1),
                      (StructureConstants.zero(2, 2, 2),
                       StructureConstants.zero(2, 2, 1),   # wrong block
                       StructureConstants.zero(1, 2, 1)),
                      Matrix.zero(1, 8))
    a = zero_two_term(2, 1)
    with pytest.raises(ShapeError):
        AInftyBimodule(a, 1, 1, Matrix.zero(1, 1),
                       (StructureConstants.zero(2, 1, 1),
                        StructureConstants.zero(2, 1, 1),
                        StructureConstants.zero(1, 1, 1)),
                       (StructureConstants.zero(1, 2, 1),
                        StructureConstants.zero(1, 1, 1),
                        StructureConstants.zero(1, 2, 1)),
                       (Matrix.zero(1, 4), Matrix.zero(1, 4)))
    m = zero_ainfty_bimodule(a, 1, 1)
    with pytest.raises(ShapeError):
        HomotopyRRBOperator(Matrix.zero(2, 1), Matrix.zero(1, 1),
                            StructureConstants.zero(1, 1, 2))
    # a module over another algebra, whose operator layers still fit
    small = zero_two_term(1, 1)
    with pytest.raises(ShapeError):
        check_homotopy_rrb_operator(small, m,
                                    zero_homotopy_rrb(small, m))


# --------------------------------------------------- skeletal dictionary


def test_triple_to_skeletal_outputs_pass_all_checks():
    for seed in range(8):
        x, b = random_rrb_pair(seed=seed)
        c = seeded_cocycle(seed + 300, x, b, 3)
        a, m, r = triple_to_skeletal(x, b, c)
        assert a.skeletal and m.skeletal
        assert check_two_term_ainfty(a).ok
        assert check_ainfty_bimodule(a, m).ok
        assert check_homotopy_rrb_operator(a, m, r).ok


def test_skeletal_round_trips_are_tensor_identical():
    for seed in range(10):
        x, b = random_rrb_pair(seed=seed)
        c = seeded_cocycle(seed + 300, x, b, 3)
        a, m, r = triple_to_skeletal(x, b, c)
        x2, b2, c2 = skeletal_to_triple(a, m, r)
        assert nested(x2.algebra.mu) == nested(x.algebra.mu)
        assert nested(x2.module.left) == nested(x.module.left)
        assert nested(x2.module.right) == nested(x.module.right)
        assert x2.rop == x.rop
        assert coefficient_tensors(b2) == coefficient_tensors(b)
        assert coords(c2) == coords(c)
        a3, m3, r3 = triple_to_skeletal(x2, b2, c2)
        assert nested(a3.mu00) == nested(a.mu00)
        assert nested(a3.mu01) == nested(a.mu01)
        assert nested(a3.mu10) == nested(a.mu10)
        assert a3.mu3 == a.mu3
        assert m3.mu3m == m.mu3m
        assert r3.r0 == r.r0
        assert r3.r1 == r.r1
        assert nested(r3.r2) == nested(r.r2)


def test_corrector_mutation_fails_exactly_the_corrector_condition():
    hits = 0
    for seed in range(10):
        x, b = random_rrb_pair(seed=seed)
        c = seeded_cocycle(seed + 300, x, b, 3)
        a, m, r = triple_to_skeletal(x, b, c)
        if m.dim0 == 0 or a.dim1 == 0:
            continue
        bad = HomotopyRRBOperator(r.r0, r.r1,
                                  bump_constants(r.r2, (0, 0, 0)))
        rep = check_homotopy_rrb_operator(a, m, bad)
        if rep.ok:
            continue
        assert {v.law for v in rep.violations} == {"baxter_corrector"}
        assert check_two_term_ainfty(a).ok
        assert check_ainfty_bimodule(a, m).ok
        hits += 1
    assert hits >= 2


def test_conversion_passes_iff_input_passes():
    """Single-entry mutations of every ingredient flip the input checks
    and the converted output checks together, never separately."""

    def input_ok(x, b, c):
        if not check_relative_rb(x).ok:
            return False
        if not check_rrb_bimodule(b).ok:
            return False
        image = rrb_differential(x, b, 3, c)
        return coords(image).is_zero()

    def output_ok(x, b, c):
        a, m, r = triple_to_skeletal(x, b, c, verify=False)
        return (check_two_term_ainfty(a).ok and
                check_ainfty_bimodule(a, m).ok and
                check_homotopy_rrb_operator(a, m, r).ok)

    def fits(lin):
        return lin.cols > 0 and lin.rows > 0

    detected = {k: 0 for k in
                ("alpha", "beta", "gamma", "rop", "sop", "l", "r")}
    for seed in range(8):
        x, b = random_rrb_pair(seed=seed)
        c = seeded_cocycle(seed + 300, x, b, 3)
        assert input_ok(x, b, c) and output_ok(x, b, c)
        muts = []
        if fits(c.alpha):
            muts.append(("alpha", x, b,
                         RRBCochain(3, bump_map(c.alpha, (0, 0)), c.beta,
                                    c.gamma)))
        if fits(c.beta[0]):
            muts.append(("beta", x, b,
                         RRBCochain(3, c.alpha,
                                    (bump_map(c.beta[0], (0, 0)),)
                                    + c.beta[1:], c.gamma)))
        if fits(c.gamma):
            muts.append(("gamma", x, b,
                         RRBCochain(3, c.alpha, c.beta,
                                    bump_map(c.gamma, (0, 0)))))
        if fits(x.rop):
            muts.append(("rop",
                         RelativeRBAlgebra(x.algebra, x.module,
                                           bump_map(x.rop, (0, 0))), b, c))
        if fits(b.sop):
            muts.append(("sop", x,
                         RRBBimodule(b.over, b.base, b.fiber,
                                     bump_map(b.sop, (0, 0)), b.left_pair,
                                     b.right_pair), c))
        if b.left_pair.dim_left and b.left_pair.dim_right \
                and b.left_pair.dim_out:
            muts.append(("l", x,
                         RRBBimodule(b.over, b.base, b.fiber, b.sop,
                                     bump_constants(b.left_pair, (0, 0, 0)),
                                     b.right_pair), c))
        if b.right_pair.dim_left and b.right_pair.dim_right \
                and b.right_pair.dim_out:
            muts.append(("r", x,
                         RRBBimodule(b.over, b.base, b.fiber, b.sop,
                                     b.left_pair,
                                     bump_constants(b.right_pair,
                                                    (0, 0, 0))), c))
        for name, mx, mb, mc in muts:
            iok = input_ok(mx, mb, mc)
            ook = output_ok(mx, mb, mc)
            assert iok == ook, (seed, name)
            if not iok:
                detected[name] += 1
    assert all(n > 0 for n in detected.values()), detected


def test_conversion_verify_flag():
    x, b = random_rrb_pair(seed=6)
    c = seeded_cocycle(306, x, b, 3)
    bad = RRBCochain(3, c.alpha, c.beta, bump_map(c.gamma, (0, 0)))
    image = rrb_differential(x, b, 3, bad)
    assert not coords(image).is_zero()
    with pytest.raises(StructuralError):
        triple_to_skeletal(x, b, bad)
    a, m, r = triple_to_skeletal(x, b, bad, verify=False)
    with pytest.raises(StructuralError):
        skeletal_to_triple(a, m, r)
    with pytest.raises(ShapeError):
        triple_to_skeletal(x, b, zero_cochain(x, b, 2))
