"""Every structure made from others against the basis-vector construction
it replaced (the ref_* of helpers).

The package builds duals, pullbacks along morphisms, transported
structures, the operators of an r-matrix, and the bimodule and cocycle
that a section of an extension induces, as matrix expressions in the
structure matrices.  The references build the same structures one basis
vector at a time.  On seeds 0-99, on morphisms that are not the identity
and on one-entry mutations, both must give equal tensors, equal basis
names, and the same exception with the same message.  A mutation of an
extension's total product makes the fiber-landing check fire in both.
"""

from random import Random

from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, ShapeError, StructuralError,
    dual_bimodule,
)
from rotabaxter.classification import (
    AbelianExtension, Section, _shear, build_extension, canonical_section,
    extract_cocycle, induced_fiber_bimodule,
)
from rotabaxter.linalg import Matrix, rank
from rotabaxter.rrb import (
    RMatrix, RRBMorphism, RelativeRBAlgebra, endomorphism_rrb,
    rb_from_r_matrix,
)
from rotabaxter.rrb_modules import (
    dual_rrb_bimodule, morphism_induced_bimodule, rb_bimodule_from_r_matrix,
)
from rotabaxter.samples import (
    bump_constants, bump_map, random_invertible, random_matrix,
    random_rrb_cocycle, random_rrb_pair, transport_bilinear, transport_rrb,
)

import helpers as ref

SEEDS = range(100)


def tensor(t):
    return (t.dim_left, t.dim_right, t.dim_out, ref.nested(t))


def bimodule(m):
    return (m.dim, tensor(m.left), tensor(m.right), m.basis_names)


def rrb_bimodule(b):
    return (bimodule(b.base), bimodule(b.fiber), b.sop,
            tensor(b.left_pair), tensor(b.right_pair))


def rrb_algebra(x):
    return (tensor(x.algebra.mu), tensor(x.module.left),
            tensor(x.module.right), x.rop)


def cochain(c):
    return c.degree, c.alpha, c.beta, c.gamma


def outcome(record, build, *args):
    """The record of build(*args), or the exception it raised."""
    try:
        return "ok", record(build(*args))
    except (ShapeError, StructuralError) as err:
        return type(err).__name__, str(err)


def same(record, new, old, *args):
    got, want = outcome(record, new, *args), outcome(record, old, *args)
    assert got == want, args
    return got


def morphisms(rng, x, seed):
    """The identity, the change of basis that transport_rrb makes, and a
    pair of random maps from another sample (no morphism laws needed)."""
    p = random_invertible(rng, x.algebra.dim)
    q = random_invertible(rng, x.module.dim)
    y, _ = random_rrb_pair(seed + 100)
    return (ref.identity_morphism(x),
            RRBMorphism(transport_rrb(x, p, q), x, p, q),
            RRBMorphism(y, x,
                        random_matrix(rng, x.algebra.dim, y.algebra.dim),
                        random_matrix(rng, x.module.dim, y.module.dim)))


def shifted_section(rng, e):
    """The canonical section moved by random fiber values."""
    sec = canonical_section(e)
    dA, dM = e.base.algebra.dim, e.base.module.dim
    theta = random_matrix(rng, e.sop.rows, dA)
    vartheta = random_matrix(rng, e.sop.cols, dM)
    return Section(
        sec.s + e.alg_incl * theta, sec.sbar + e.mod_incl * vartheta)


def with_total(e, mu=None, left=None, right=None, rop=None):
    tot = e.total
    alg = AssocAlgebra(tot.algebra.dim, mu or tot.algebra.mu,
                       tot.algebra.basis_names)
    mod = Bimodule(alg, tot.module.dim, left or tot.module.left,
                   right or tot.module.right, tot.module.basis_names)
    return AbelianExtension(
        e.base, e.sop, RelativeRBAlgebra(alg, mod, rop or tot.rop),
        e.alg_incl, e.mod_incl, e.alg_proj, e.mod_proj)


def mutants(rng, e):
    """Mutations of the total structure: its product at (0, 0, 0), a base
    coordinate; both actions at a base coordinate of the same pair (u, i),
    and of the pairs (0, 1) and (1, 0), so that the order in which the
    action defects are read decides which is reported; then one random
    entry of the product, of each action and of the operator."""
    tot = e.total
    dA, dM = e.base.algebra.dim, e.base.module.dim

    def where(t):
        return [rng.randrange(n) for n in (t.dim_left, t.dim_right,
                                           t.dim_out)]

    delta = rng.choice((1, -1, 2))
    out = [with_total(e, mu=bump_constants(tot.algebra.mu, (0, 0, 0)))]
    out.append(with_total(e, mu=bump_constants(
        tot.algebra.mu, where(tot.algebra.mu), delta)))
    if dM:
        left, right = tot.module.left, tot.module.right
        out.append(with_total(e, left=bump_constants(left, (0, 0, 0)),
                              right=bump_constants(right, (0, 0, 0))))
        if dA > 1 and dM > 1:
            out.append(with_total(e, left=bump_constants(left, (0, 1, 0)),
                                  right=bump_constants(right, (0, 1, 0))))
    if tot.module.dim:
        out.append(with_total(e, left=bump_constants(
            tot.module.left, where(tot.module.left), delta)))
        out.append(with_total(e, right=bump_constants(
            tot.module.right, where(tot.module.right), delta)))
        out.append(with_total(e, rop=bump_map(
            tot.rop, (rng.randrange(tot.algebra.dim),
                      rng.randrange(tot.module.dim)), delta)))
    return out


def test_constructions_match_basis_vector_reference():
    landed = {}
    extensions = 0
    for seed in SEEDS:
        rng = Random(seed)
        x, b = random_rrb_pair(seed)
        for mod in (x.module, b.base, b.fiber):
            same(bimodule, dual_bimodule, ref.ref_dual_bimodule, mod)
        same(rrb_bimodule, dual_rrb_bimodule, ref.ref_dual_rrb_bimodule, b)
        for mor in morphisms(rng, x, seed):
            same(rrb_bimodule, morphism_induced_bimodule,
                 ref.ref_morphism_induced_bimodule, mor)
        dA, dM, dB = x.algebra.dim, x.module.dim, b.base.dim
        f = random_matrix(rng, dM, 2)
        g = random_matrix(rng, dB, 3)
        h = random_matrix(rng, 2, b.fiber.dim)
        same(tensor, transport_bilinear, ref.ref_transport_bilinear,
             b.left_pair, f, g, h)
        t = random_matrix(rng, dA, dA)
        r = RMatrix(x.algebra, t)
        same(rrb_algebra, rb_from_r_matrix, ref.ref_rb_from_r_matrix, r)
        for mod in (x.module, b.base, b.fiber):
            same(rrb_bimodule, rb_bimodule_from_r_matrix,
                 ref.ref_rb_bimodule_from_r_matrix, r, mod)

        c = random_rrb_cocycle(seed, x, b, 2)
        if c is None:
            continue
        extensions += 1
        e = build_extension(x, b, c)
        canonical, shifted = canonical_section(e), shifted_section(rng, e)
        for sec in (canonical, shifted):
            assert same(cochain, extract_cocycle, ref.ref_extract_cocycle,
                        e, sec)[0] == "ok"
            assert same(rrb_bimodule, induced_fiber_bimodule,
                        ref.ref_induced_fiber_bimodule, e, sec)[0] == "ok"
        theta = random_matrix(rng, b.base.dim, dA)
        assert outcome(lambda m: m, _shear, canonical.s, shifted.s,
                       theta, e.alg_incl, e.alg_incl, e.alg_proj) == \
            outcome(lambda m: m, ref.ref_shear, e, e, canonical.s,
                    shifted.s, theta, e.alg_incl, e.alg_incl, e.alg_proj)
        for bad in mutants(rng, e):
            for sec in (canonical, shifted):
                for new, old, record in (
                        (extract_cocycle, ref.ref_extract_cocycle, cochain),
                        (induced_fiber_bimodule,
                         ref.ref_induced_fiber_bimodule, rrb_bimodule)):
                    kind, value = same(record, new, old, bad, sec)
                    if kind != "ok":
                        landed[value] = landed.get(value, 0) + 1
    assert extensions >= 50
    # the landing check fires, in both versions, on every defect it reads
    for what in ("product defect", "right action defect",
                 "left action defect", "operator defect", "induced product",
                 "induced action"):
        assert landed.get(what + " does not land in the fiber"), what


def test_endomorphism_rrb_matches_dense_reference():
    """On every pair of dimensions 0-3, with d zero, of full rank and
    random: equal algebra, module and operator matrices."""
    rng = Random(25)
    full = 0
    for d0 in range(4):
        for d1 in range(4):
            unit = Matrix(d0, d1, [int(i == j) for i in range(d0)
                                   for j in range(d1)])
            for d in (Matrix.zero(d0, d1),
                      random_invertible(rng, d0) * unit
                      * random_invertible(rng, d1),
                      random_matrix(rng, d0, d1, 0.3),
                      random_matrix(rng, d0, d1)):
                full += d0 * d1 > 0 and rank(d) == min(d0, d1)
                assert same(rrb_algebra, endomorphism_rrb,
                            ref.ref_endomorphism_rrb,
                            d)[0] == "ok"
    assert full > 9
