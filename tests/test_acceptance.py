"""Release gate: the twelve exact guarantees, one test per guarantee.

Every check is exact rational arithmetic with zero tolerance.  Each test
prints one summary line (visible with -s); under -v the test name itself
is the pass/fail line.
"""

import itertools
import random
import time

from rotabaxter import cli, fileformat as ff
from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, StructureConstants, check_bimodule,
    check_dendriform, check_dendriform_representation, hochschild_matrix,
)
from rotabaxter.classification import (
    Section, build_extension, canonical_section, check_ainfty_bimodule, check_extension_morphism,
    check_homotopy_rrb_operator, check_two_term_ainfty, extract_cocycle,
    extension_iso_from_cobounding, induced_fiber_bimodule,
    skeletal_to_triple, triple_to_skeletal,
)
from rotabaxter.cohomology import (
    RRBCochain, check_derivation, dendriform_differential_matrix,
    derivation_basis, psi_matrix, rrb_differential, rrb_differential_matrix,
    semidirect_complex, semidirect_inclusion_matrix,
)
from rotabaxter.linalg import Matrix, Q, rank, stacked
from rotabaxter.rrb import (
    RMatrix, RelativeRBAlgebra, aybe_check, check_relative_rb,
    induced_dendriform, rb_from_r_matrix,
)
from rotabaxter.rrb_modules import (
    RRBBimodule, check_operator_identities, check_rrb_bimodule,
    dual_rrb_bimodule, induced_dendriform_representation, lift_bimodule,
    mtot_action_bimodule, rb_bimodule_from_r_matrix, semidirect_rrb,
)
from rotabaxter.samples import (
    bump_constants, bump_map, operator_break_pair, random_matrix,
    random_rrb_cocycle, random_rrb_pair,
)

from helpers import coords, from_nested, nested


# ------------------------------------------------------------------ helpers


def same_bimodule_tensors(b1, b2):
    return (nested(b1.base.left) == nested(b2.base.left)
            and nested(b1.base.right) == nested(b2.base.right)
            and nested(b1.fiber.left) == nested(b2.fiber.left)
            and nested(b1.fiber.right) == nested(b2.fiber.right)
            and b1.sop == b2.sop
            and nested(b1.left_pair) == nested(b2.left_pair)
            and nested(b1.right_pair) == nested(b2.right_pair))


def same_structure(x1, x2):
    return (nested(x1.algebra.mu) == nested(x2.algebra.mu)
            and nested(x1.module.left) == nested(x2.module.left)
            and nested(x1.module.right) == nested(x2.module.right)
            and x1.rop == x2.rop)


def stacked_section(e, theta, vartheta):
    """s(a) = (a, theta(a)) and likewise for the module row."""
    dA, dB = e.base.algebra.dim, e.sop.rows
    dM, dN = e.base.module.dim, e.sop.cols

    def stack(dim, extra, corr):
        entries = []
        for i in range(dim):
            entries.extend(Q(1) if j == i else Q(0) for j in range(dim))
        for i in range(extra):
            entries.extend(corr.row(i))
        return Matrix(dim + extra, dim, entries)

    return Section(stack(dA, dB, theta), stack(dM, dN, vartheta))


def random_degree_one(x, b, seed):
    rng = random.Random(seed)
    theta = random_matrix(rng, b.base.dim, x.algebra.dim)
    vartheta = random_matrix(rng, b.fiber.dim, x.module.dim)
    return theta, vartheta


def cocycle_fixtures(degree, count, start=0):
    out, seed = [], start
    while len(out) < count and seed < 400:
        x, b = random_rrb_pair(seed)
        c = random_rrb_cocycle(seed + degree, x, b, degree)
        seed += 1
        if c is not None:
            out.append((x, b, c))
    assert len(out) == count
    return out


# -------------------------------------------------------------- the twelve


def test_01_differential_squares_to_zero():
    start = time.perf_counter()
    for seed in range(100):
        x, b = random_rrb_pair(seed)
        assert max(x.algebra.dim, x.module.dim, b.base.dim,
                   b.fiber.dim) <= 3
        assert check_relative_rb(x).ok and check_rrb_bimodule(b).ok
        mats = {k: rrb_differential_matrix(x, b, k) for k in range(1, 5)}
        for k in (1, 2, 3):
            assert (mats[k + 1] * mats[k]).is_zero(), (seed, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 01 (differential squares to zero, 100 fixtures, "
          f"{elapsed:.1f}s): PASS")


def test_02_semidirect_subcomplex_blocks():
    done = 0
    for seed in itertools.count():
        x, b = random_rrb_pair(seed)
        if x.algebra.dim + b.base.dim > 4 or x.module.dim + b.fiber.dim > 4:
            continue
        big_x, big_b = semidirect_complex(b)
        for k in (1, 2):
            inc_k = semidirect_inclusion_matrix(x, b, k)
            inc_next = semidirect_inclusion_matrix(x, b, k + 1)
            d_small = rrb_differential_matrix(x, b, k)
            d_big = rrb_differential_matrix(big_x, big_b, k)
            assert d_big * inc_k == inc_next * d_small, (seed, k)
        done += 1
        if done == 25:
            break
    print("criterion 02 (differential restricts from the semidirect "
          "complex, 25 fixtures): PASS")


def test_03_lift_iff():
    for seed in range(50):
        x, b = random_rrb_pair(seed)
        assert check_operator_identities(lift_bimodule(b)).ok, seed
    for seed in range(50):
        b, law = operator_break_pair(seed)
        bad = check_operator_identities(b)
        assert not bad.ok and {v.law for v in bad.violations} == {law}, seed
        # the pairing identities still hold
        assert not check_operator_identities(lift_bimodule(b)).ok, seed
    print("criterion 03 (lift passes iff the operator identities hold, "
          "50 + 50): PASS")


def test_04_semidirect_product_passes():
    for seed in range(50):
        _, b = random_rrb_pair(seed)
        assert check_relative_rb(semidirect_rrb(b)).ok, seed
    print("criterion 04 (semidirect product passes the defining "
          "identity): PASS")


def test_05_dual_and_double_dual():
    for seed in range(50):
        _, b = random_rrb_pair(seed)
        d1 = dual_rrb_bimodule(b)
        assert check_rrb_bimodule(d1).ok, seed
        assert same_bimodule_tensors(dual_rrb_bimodule(d1), b), seed
    print("criterion 05 (dual passes, double dual is the identity): PASS")


def test_06_induced_dendriform_structures():
    for seed in range(50):
        x, b = random_rrb_pair(seed)
        den, mtot, morph = induced_dendriform(x)
        assert check_dendriform(den).ok, seed
        assert morph.ok, seed
        rep = induced_dendriform_representation(b)
        assert check_dendriform_representation(rep).ok, seed
        assert check_bimodule(mtot_action_bimodule(b)).ok, seed
    print("criterion 06 (dendriform structures, representation, and "
          "total-product bimodule): PASS")


def test_07_comparison_chain_map():
    # one exact identity over the whole cochain space, no sampled input
    nonzero = {1: 0, 2: 0}
    for seed in range(25):
        x, b = random_rrb_pair(seed)
        den, _, _ = induced_dendriform(x)
        rep = induced_dendriform_representation(b)
        acts = mtot_action_bimodule(b)
        for k in (1, 2):
            dend = dendriform_differential_matrix(den, rep, k + 1)
            lhs = dend * psi_matrix(x, b, k)
            rhs = psi_matrix(x, b, k + 1) * hochschild_matrix(acts, k)
            assert lhs == rhs, (seed, k)
            nonzero[k] += not lhs.is_zero()
    # on most fixtures both sides vanish (zero pairings, or D Psi_1 = 0);
    # the identity must keep being tested on the 9 and 10 where they do not
    assert nonzero[1] >= 9 and nonzero[2] >= 10, nonzero
    print("criterion 07 (comparison map intertwines the differentials "
          "on all cochains, k in {1, 2}, 25 fixtures): PASS")


def test_08_extension_classification():
    fixtures = cocycle_fixtures(2, 10)
    built = []
    for x, b, c in fixtures:
        e = build_extension(x, b, c)
        assert coords(extract_cocycle(e, canonical_section(e))) == coords(c)
        built.append((x, b, c, e))
    for n, (x, b, c, e) in enumerate(built):
        theta, vartheta = random_degree_one(x, b, 300 + n)
        sec2 = stacked_section(e, theta, vartheta).validate(e)
        b1 = induced_fiber_bimodule(e, canonical_section(e))
        b2 = induced_fiber_bimodule(e, sec2)
        assert same_bimodule_tensors(b1, b2), n
    for n, (x, b, c1, e1) in enumerate(built):
        theta, vartheta = random_degree_one(x, b, 500 + n)
        shift = rrb_differential(x, b, 1, RRBCochain(1, theta, (vartheta,)))
        c2 = RRBCochain.of_column(
            x, b, 2, stacked(c1.blocks()) - stacked(shift.blocks()))
        e2 = build_extension(x, b, c2)
        mor = extension_iso_from_cobounding(e1, e2, theta, vartheta)
        assert check_extension_morphism(e1, e2, mor).ok, n
    print("criterion 08 (extension round trip, section independence, "
          "cohomologous isomorphism, 10 each): PASS")


def _skeletal_passes(a, m, r):
    return (check_two_term_ainfty(a).ok and check_ainfty_bimodule(a, m).ok
            and check_homotopy_rrb_operator(a, m, r).ok)


def _triple_passes(x, b, c):
    if not (check_relative_rb(x).ok and check_rrb_bimodule(b).ok):
        return False
    return coords(rrb_differential(x, b, 3, c)).is_zero()


def _mutants(x, b, c, kind):
    """Single-entry bumps of one of the seven ingredients, lazily."""
    def positions(lin):
        return itertools.product(range(lin.rows), range(lin.cols))

    if kind == "alpha":
        for pos in positions(c.alpha):
            yield x, b, RRBCochain(3, bump_map(c.alpha, pos), c.beta,
                                   c.gamma)
    elif kind == "beta":
        for s, slot in enumerate(c.beta):
            for pos in positions(slot):
                beta = list(c.beta)
                beta[s] = bump_map(slot, pos)
                yield x, b, RRBCochain(3, c.alpha, tuple(beta), c.gamma)
    elif kind == "gamma":
        for pos in positions(c.gamma):
            yield x, b, RRBCochain(3, c.alpha, c.beta,
                                   bump_map(c.gamma, pos))
    elif kind == "operator":
        for pos in positions(x.rop):
            yield (RelativeRBAlgebra(x.algebra, x.module,
                                     bump_map(x.rop, pos)), b, c)
    elif kind == "complex_map":
        for pos in positions(b.sop):
            yield x, RRBBimodule(x, b.base, b.fiber, bump_map(b.sop, pos),
                                 b.left_pair, b.right_pair), c
    elif kind == "left_pair":
        sc = b.left_pair
        for i, j, k in itertools.product(range(sc.dim_left),
                                         range(sc.dim_right),
                                         range(b.fiber.dim)):
            yield x, RRBBimodule(x, b.base, b.fiber, b.sop,
                                 bump_constants(sc, (i, j, k)),
                                 b.right_pair), c
    elif kind == "right_pair":
        sc = b.right_pair
        for i, j, k in itertools.product(range(sc.dim_left),
                                         range(sc.dim_right),
                                         range(b.fiber.dim)):
            yield x, RRBBimodule(x, b.base, b.fiber, b.sop, b.left_pair,
                                 bump_constants(sc, (i, j, k))), c


def test_09_skeletal_classification():
    fixtures = cocycle_fixtures(3, 10)
    for x, b, c in fixtures:
        a, m, r = triple_to_skeletal(x, b, c)
        assert _skeletal_passes(a, m, r)
        x2, b2, c2 = skeletal_to_triple(a, m, r)
        assert same_structure(x, x2) and same_bimodule_tensors(b, b2)
        assert coords(c2) == coords(c)
        a2, m2, r2 = triple_to_skeletal(x2, b2, c2)
        assert a2.mu3 == a.mu3 and nested(a2.mu00) == nested(a.mu00)
        assert tuple(m2.mu3m) == tuple(m.mu3m)
        assert r2.r0 == r.r0 and r2.r1 == r.r1 \
            and nested(r2.r2) == nested(r.r2)
    detected = {}
    for kind in ("alpha", "beta", "gamma", "operator", "complex_map",
                 "left_pair", "right_pair"):
        hits = 0
        for x, b, c in fixtures:
            for mutant in itertools.islice(_mutants(x, b, c, kind), 24):
                if _triple_passes(*mutant):
                    continue  # bump landed in a still-consistent direction
                a, m, r = triple_to_skeletal(*mutant, verify=False)
                assert not _skeletal_passes(a, m, r), kind
                hits += 1
                break
        detected[kind] = hits
        assert hits >= 1, kind
    print("criterion 09 (skeletal round trips and seven-way mutation "
          f"detection {detected}): PASS")


def test_10_cli_zero_structure_dimensions(tmp_path, capsys):
    alg = AssocAlgebra(1, StructureConstants.zero(1, 1, 1))
    mod = Bimodule(alg, 1, StructureConstants.zero(1, 1, 1),
                   StructureConstants.zero(1, 1, 1))
    x = RelativeRBAlgebra(alg, mod, Matrix.zero(1, 1))
    doc = ff.new_document()
    ff.declare_rrb_algebra(doc, "X", x)
    path = tmp_path / "zero.json"
    ff.write_path(doc, path)
    rc = cli.main(["cohomology", str(path), "--max-degree", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H^1 = 2" in out and "H^2 = 4" in out
    with capsys.disabled():
        print("criterion 10 (command line reports H^1 = 2 and H^2 = 4 on "
              "the zero structure): PASS")


def test_11_aybe_pipeline():
    # k[x]/(x^2) with basis (1, x)
    data = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
    data[0][0][0] = Q(1)
    data[0][1][1] = Q(1)
    data[1][0][1] = Q(1)
    alg = AssocAlgebra(2, from_nested(2, 2, 2, data))
    good = RMatrix(alg, Matrix.from_rows([[0, 0], [0, 1]]))  # x (x) x
    assert aybe_check(good).ok
    assert check_relative_rb(rb_from_r_matrix(good)).ok
    assert check_operator_identities(
        rb_bimodule_from_r_matrix(good, Bimodule.adjoint(alg))).ok
    one = Matrix.from_rows([[1, 0], [0, 0]])  # 1 (x) 1
    bad = aybe_check(RMatrix(alg, one))
    assert not bad.ok
    assert {v.args for v in bad.violations} == {(0, 0, 0)}
    print("criterion 11 (x(x)x solves the associative Yang-Baxter "
          "equation, 1(x)1 fails at (0, 0, 0)): PASS")


def test_12_derivation_basis():
    for seed in range(50):
        x, b = random_rrb_pair(seed)
        basis = derivation_basis(x, b)
        m1 = rrb_differential_matrix(x, b, 1)
        assert len(basis) == m1.cols - rank(m1), seed
        for c in basis:
            assert check_derivation(x, b, c.alpha, c.beta[0]).ok, seed
    print("criterion 12 (derivation basis members satisfy all four "
          "identities, count matches the kernel): PASS")
