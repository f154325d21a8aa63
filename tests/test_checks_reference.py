"""Every axiom check against the per-tuple reference loops in helpers.

The package evaluates each law on all its basis tuples at once, as one
sparse matrix identity; the reference evaluates one basis tuple at a time
on dense vectors.  On seeds 0-99, and on one-entry mutations of every input
tensor, both must give the same Report: the same violations with the same
law names, args, sides and order.  Every check must fail on at least one
mutation, so the comparison covers violations, not only passes.  The
associative Yang-Baxter check is compared with the six-loop coordinate
sum it replaced, on random r-matrices and on a solution and its
one-entry mutations.
"""

from collections import Counter
from functools import lru_cache
from random import Random

from rotabaxter.algebra import (
    StructuralError, StructureConstants, check_associativity,
    check_bimodule, check_dendriform, check_dendriform_representation,
)
from rotabaxter.classification import (
    AInftyBimodule, HomotopyRRBOperator, TwoTermAInfty,
    check_ainfty_bimodule, check_homotopy_rrb_operator,
    check_two_term_ainfty, skeletal_to_triple, triple_to_skeletal,
)
from rotabaxter.cohomology import check_derivation, derivation_basis
from rotabaxter.linalg import Matrix, Q
from rotabaxter.rrb import (
    RMatrix, RRBMorphism, aybe_check, check_morphism, check_relative_rb,
    induced_dendriform,
)
from rotabaxter.rrb_modules import (
    DifferentialPair, check_differential_pair, check_laws,
    check_operator_identities, check_pairing_identities,
    induced_dendriform_representation, lift_bimodule, semidirect_rrb,
)
from rotabaxter.samples import (
    bump_constants, bump_map, random_invertible, random_matrix,
    random_rrb_cochain, random_rrb_pair,
)

import helpers as ref

# the input tensors of the skeletal data, which hold every tensor of a
# structure triple: mu00 is the product, left00/right00 the actions on M,
# mu01/mu10 and left01/right10 those on B and N, right01/left10 the
# pairings, r0 and r1 the operators R and S, and mu3, mu3m, r2 the cochain
ALGEBRA = ("d", "mu00", "mu01", "mu10", "mu3")
MODULE = ("dm", "left00", "left01", "left10", "right00", "right01",
          "right10", "mu3m0", "mu3m1", "mu3m2")
OPERATOR = ("r0", "r1", "r2")
FIELDS = ALGEBRA + MODULE + OPERATOR

DELTAS = (Q(1), Q(-1), Q(1, 2), Q(-2, 3), Q(5, 7))


@lru_cache(maxsize=None)
def skeletal_fields(seed):
    """The skeletal data of sample seed, with the zero corrector on even
    seeds (every check passes) and a random one on odd seeds.  Callers
    copy the dict before changing a field."""
    x, b = random_rrb_pair(seed)
    c = (ref.zero_cochain(x, b, 3) if seed % 2 == 0
         else random_rrb_cochain(seed, x, b, 3))
    a, m, r = triple_to_skeletal(x, b, c, verify=False)
    fields = {name: getattr(a, name) for name in ALGEBRA}
    fields.update({name: getattr(m, name) for name in MODULE[:7]})
    fields.update({f"mu3m{s}": block for s, block in enumerate(m.mu3m)})
    fields.update({name: getattr(r, name) for name in OPERATOR})
    return fields


def assemble(f):
    a = TwoTermAInfty(f["mu00"].dim_out, f["mu01"].dim_out, f["d"],
                      (f["mu00"], f["mu01"], f["mu10"]), f["mu3"])
    m = AInftyBimodule(
        a, f["left00"].dim_out, f["left01"].dim_out, f["dm"],
        (f["left00"], f["left01"], f["left10"]),
        (f["right00"], f["right01"], f["right10"]),
        (f["mu3m0"], f["mu3m1"], f["mu3m2"]))
    return a, m, HomotopyRRBOperator(f["r0"], f["r1"], f["r2"])


def mutate(value, rng, deltas=DELTAS):
    """value with one entry shifted, or None when it has no entries."""
    delta = rng.choice(deltas)
    if isinstance(value, StructureConstants):
        dims = (value.dim_left, value.dim_right, value.dim_out)
        if 0 in dims:
            return None
        return bump_constants(value, [rng.randrange(n) for n in dims], delta)
    if 0 in (value.rows, value.cols):
        return None
    return bump_map(value, (rng.randrange(value.rows),
                            rng.randrange(value.cols)), delta)


def variants(seed, count):
    """The data of seed, then one mutation of each of count fields; the
    fields rotate with the seed, so all of them are mutated many times."""
    rng = Random(seed)
    base = skeletal_fields(seed)
    yield "unmutated", base
    for k in range(count):
        name = FIELDS[(count * seed + k) % len(FIELDS)]
        bumped = mutate(base[name], rng)
        if bumped is not None:
            yield name, {**base, name: bumped}


def two_term_pairs(f, base, seed):
    """(check name, package report, reference report) of the two-term
    checks on data f."""
    a, m, r = assemble(f)
    yield ("two_term_ainfty", check_two_term_ainfty(a),
           ref.ref_check_two_term_ainfty(a))
    yield ("ainfty_bimodule", check_ainfty_bimodule(a, m),
           ref.ref_check_ainfty_bimodule(a, m))
    yield ("homotopy_rrb_operator", check_homotopy_rrb_operator(a, m, r),
           ref.ref_check_homotopy_rrb_operator(a, m, r))


def triple_pairs(f, base, seed):
    """The same for the checks of the structure triple that f flattens
    to (none when a differential is nonzero); base is the unmutated data
    of the same seed."""
    a, m, r = assemble(f)
    if not (a.skeletal and m.skeletal):
        return
    x, b, _ = skeletal_to_triple(a, m, r, verify=False)
    x0, _, _ = skeletal_to_triple(*assemble(base), verify=False)
    yield ("associativity", check_associativity(x.algebra),
           ref.ref_check_associativity(x.algebra))
    for part in (x.module, b.base, b.fiber):
        yield "bimodule", check_bimodule(part), ref.ref_check_bimodule(part)
    yield "relative_rb", check_relative_rb(x), ref.ref_check_relative_rb(x)
    # check_laws, every law of x and of b: the reports above, merged
    yield "laws of x", check_laws(x), ref.ref_check_laws(x)
    yield "laws of b", check_laws(b), ref.ref_check_laws(b)
    for src, tgt in ((x, x0), (x0, x)):
        mor = RRBMorphism(src, tgt, Matrix.identity(x.algebra.dim),
                          Matrix.identity(x.module.dim))
        yield "morphism", check_morphism(mor), ref.ref_check_morphism(mor)
    pairing = (x.module, b.base, b.fiber, b.left_pair, b.right_pair)
    yield ("pairing_identities", check_pairing_identities(*pairing),
           ref.ref_check_pairing_identities(*pairing))
    yield ("operator_identities", check_operator_identities(b),
           ref.ref_check_operator_identities(b))
    den, _, multiplicative = induced_dendriform(x)
    yield "dendriform", check_dendriform(den), ref.ref_check_dendriform(den)
    yield ("induced_dendriform", multiplicative,
           ref.ref_induced_dendriform_report(x))
    drep = induced_dendriform_representation(b)
    yield ("dendriform_representation", check_dendriform_representation(drep),
           ref.ref_check_dendriform_representation(drep))
    if check_pairing_identities(*pairing):
        bhat = lift_bimodule(b)
        yield ("lifted_operator_identities", check_operator_identities(bhat),
               ref.ref_check_operator_identities(bhat))
    cocycles = derivation_basis(x, b)
    c1 = (cocycles[0] if cocycles and seed % 2 == 0
          else random_rrb_cochain(seed, x, b, 1))
    yield ("derivation", check_derivation(x, b, c1.alpha, c1.beta[0]),
           ref.ref_check_derivation(x, b, c1.alpha, c1.beta[0]))
    rng = Random(seed)
    dpair = DifferentialPair(
        x.algebra, x.module, b.base, b.fiber,
        random_matrix(rng, x.module.dim, x.algebra.dim),
        random_matrix(rng, b.fiber.dim, b.base.dim),
        b.left_pair, b.right_pair)
    yield ("differential_pair", check_differential_pair(dpair),
           ref.ref_check_differential_pair(dpair))


def as_record(rep):
    return rep.subject, [(v.law, v.args, v.lhs, v.rhs)
                         for v in rep.violations]


def compare(pairs, count, seeds=range(100)):
    """Compare on every variant of every seed; return the set of checks
    and the set of those that failed on some mutation."""
    names, failed = set(), set()
    for seed in seeds:
        for where, f in variants(seed, count):
            for name, got, want in pairs(f, skeletal_fields(seed), seed):
                names.add(name)
                assert as_record(got) == as_record(want), (seed, where, name)
                if not want.ok and where != "unmutated":
                    failed.add(name)
    return names, failed


def test_triple_checks_match_per_tuple_reference():
    names, failed = compare(triple_pairs, 3)
    assert len(names) == 14 and names == failed


def test_two_term_checks_match_per_tuple_reference():
    # the reference takes about 40 ms per evaluation on the nine seeds
    # whose degree-0 layers both have dimension 3, so those are compared
    # unmutated only
    heavy = [s for s in range(100)
             if (skeletal_fields(s)["left00"].dim_left,
                 skeletal_fields(s)["left00"].dim_out) == (3, 3)]
    assert len(heavy) == 9
    compare(two_term_pairs, 0, heavy)
    names, failed = compare(two_term_pairs, 1,
                            [s for s in range(100) if s not in heavy])
    assert len(names) == 3 and names == failed


def test_flattening_check_gives_the_skeletal_verdict():
    # skeletal-to-triple decides with skeletal_to_triple's own check and
    # reads the three skeletal checks only to report a failure, so on
    # every skeletal input both must pass or fail together; a check of
    # the flattening that left out associativity and the bimodule laws
    # passed inputs whose associator laws fail
    verdicts = Counter()
    for seed in range(40):
        for where, f in variants(seed, len(FIELDS)):
            a, m, r = assemble(f)
            if not (a.skeletal and m.skeletal):
                continue
            skeletal = (check_two_term_ainfty(a).ok and
                        check_ainfty_bimodule(a, m).ok and
                        check_homotopy_rrb_operator(a, m, r).ok)
            try:
                skeletal_to_triple(a, m, r)
                flattened = True
            except StructuralError:
                flattened = False
            assert skeletal == flattened, (seed, where)
            verdicts[skeletal] += 1
    assert verdicts == {True: 73, False: 573}


# the eleven tensors of (x, b) among the skeletal fields
PAIR = ("mu00", "left00", "right00", "mu01", "mu10", "left01", "right10",
        "right01", "left10", "r0", "r1")


def test_semidirect_laws_hold_exactly_when_those_of_the_pair_do():
    # every law of (x, b) holds exactly when every law of the relative
    # Rota-Baxter algebra semidirect_rrb(b) holds: on seeds 0-39, each
    # tensor of the pair changed by +-1 or +-2 at a random entry, twice,
    # and on their variants
    verdicts = Counter()
    for seed in range(40):
        rng, base = Random(seed), skeletal_fields(seed)
        inputs = [{**base, name: mutate(base[name], rng, (1, -1, 2, -2))}
                  for name in PAIR for _ in range(2)]
        inputs.extend(f for _, f in variants(seed, len(FIELDS)))
        for f in inputs:
            if None in f.values():
                continue
            a, m, r = assemble(f)
            if not (a.skeletal and m.skeletal):
                continue
            x, b, _ = skeletal_to_triple(a, m, r, verify=False)
            pair = check_laws(x).ok and check_laws(b).ok
            assert pair == check_laws(semidirect_rrb(b)).ok, seed
            verdicts[pair] += 1
    assert verdicts == {True: 373, False: 1111}


def test_aybe_matches_the_coordinate_loops():
    # per seed: a sparse and a dense random r-matrix over the algebra of
    # the sample, and the upper triangular solution in a random basis,
    # as it is and with one entry raised by 1
    outcomes = Counter()
    for seed in range(100):
        rng = Random(seed)
        alg = random_rrb_pair(seed)[0].algebra
        cases = [(kind, RMatrix(alg, random_matrix(rng, alg.dim, alg.dim,
                                                   density)))
                 for kind, density in (("sparse", 0.3), ("dense", 0.8))]
        solution = ref.upper_triangular_r_matrix(random_invertible(rng, 3))
        cases += [("solution", solution),
                  ("bumped", RMatrix(solution.over, bump_map(
                      solution.matrix,
                      (rng.randrange(3), rng.randrange(3)))))]
        for kind, r in cases:
            want = ref.ref_aybe_violations(r)
            assert as_record(aybe_check(r)) == as_record(want), (seed, kind)
            outcomes[kind, want.ok] += 1
    # the solution passes in every basis, and one entry off it fails
    assert outcomes == {("sparse", True): 52, ("sparse", False): 48,
                        ("dense", True): 22, ("dense", False): 78,
                        ("solution", True): 100, ("bumped", False): 100}
