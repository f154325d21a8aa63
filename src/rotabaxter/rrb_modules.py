"""Bimodules over relative Rota-Baxter algebras and their constructions.

A bimodule over a relative Rota-Baxter algebra (A, M, R) is a 2-term complex
S: N -> B of A-bimodules together with two pairings

    l: M (x) B -> N      and      r: B (x) M -> N

subject to six identities tying the pairings to the A-actions and two
identities coupling R with S:

    R(m) . S(n) = S( R(m) . n + l(m, S(n)) )
    S(n) . R(m) = S( r(S(n), m) + n . R(m) )

A Rota-Baxter bimodule (M, R_M) over a Rota-Baxter algebra (A, R), which
is the relative one over the adjoint bimodule, is the bimodule with
B = N = M, S = R_M and the two actions of M as l and r: its two operator
identities are the Rota-Baxter bimodule identities.

This module provides the axiom check plus the standard constructions:
adjoint, dual, coadjoint, pullback along a morphism, semidirect product,
the lift to a Rota-Baxter bimodule over A (+) M, the Rota-Baxter bimodule
of an r-matrix, the bimodule structure of the total algebra M_Tot on B, the
induced dendriform representation, and the two inverse routes (from
dendriform data, and from invertible derivation pairs).
"""

from __future__ import annotations

from .algebra import (
    Bimodule, DendriformRepresentation, Report, ShapeError,
    StructuralError, StructureConstants, block_constants, check_associativity,
    check_bimodule, dual_bimodule, semidirect_algebra, total_algebra,
)
from .linalg import Matrix, inverse
from .rrb import (
    RelativeRBAlgebra, check_relative_rb, induced_dendriform_algebra,
    lift_to_rb, r_matrix_operator, rb_from_r_matrix,
)


class RRBBimodule:
    """Bimodule (S: N -> B, l, r) over a relative Rota-Baxter algebra.

    `base` (B) and `fiber` (N) are bimodules over the algebra A of `over`,
    `sop` is the complex map S: N -> B, and the two pairings consume the
    module M of `over`: left_pair is l: M (x) B -> N, right_pair is
    r: B (x) M -> N.
    """

    __slots__ = ("over", "base", "fiber", "sop", "left_pair", "right_pair",
                 "_mtot")

    def __init__(self, over, base, fiber, sop, left_pair, right_pair):
        alg = over.algebra
        for part in (base, fiber):
            if part.over is not alg and part.over.mu != alg.mu:
                raise ShapeError("base and fiber must be bimodules over A")
        if sop.cols != fiber.dim or sop.rows != base.dim:
            raise ShapeError("complex map must send the fiber into the base")
        dM = over.module.dim
        if (left_pair.dim_left, left_pair.dim_right, left_pair.dim_out) != \
                (dM, base.dim, fiber.dim):
            raise ShapeError("left pairing must be dimM x dimB -> dimN")
        if (right_pair.dim_left, right_pair.dim_right,
                right_pair.dim_out) != (base.dim, dM, fiber.dim):
            raise ShapeError("right pairing must be dimB x dimM -> dimN")
        self.over = over
        self.base = base
        self.fiber = fiber
        self.sop = sop
        self.left_pair = left_pair
        self.right_pair = right_pair
        self._mtot = None

    @staticmethod
    def zero(over, dim_base, dim_fiber):
        """All-zero base, fiber, complex map and pairings."""
        alg = over.algebra
        return RRBBimodule(
            over,
            Bimodule.zero_actions(alg, dim_base),
            Bimodule.zero_actions(alg, dim_fiber),
            Matrix.zero(dim_base, dim_fiber),
            StructureConstants.zero(over.module.dim, dim_base, dim_fiber),
            StructureConstants.zero(dim_base, over.module.dim, dim_fiber))


def check_pairing_identities(module, base, fiber, left_pair, right_pair):
    """The six identities tying the pairings to the three A-bimodules.

    l(a.m, b) = a.l(m, b)    l(m.a, b) = l(m, a.b)    l(m, b.a) = l(m, b).a
    r(a.b, m) = a.r(b, m)    r(b.a, m) = r(b, a.m)    r(b, m.a) = r(b, m).a
    """
    rep = Report("pairing_identities")
    lp, rp = left_pair, right_pair
    dA, dM, dB = module.over.dim, module.dim, base.dim
    ia, im, ib = (Matrix.identity(n) for n in (dA, dM, dB))
    # loop order (i, u, w): a in A, m in M, b in B
    rep.require_laws([
        ("pair_l_left", (dA, dM, dB), lp.on_columns(module.left.matrix, ib),
         fiber.left.on_columns(ia, lp.matrix), None),
        ("pair_l_middle", (dM, dA, dB),
         lp.on_columns(module.right.matrix, ib),
         lp.on_columns(im, base.left.matrix), lambda u, i, w: (i, u, w)),
        ("pair_l_right", (dM, dB, dA), lp.on_columns(im, base.right.matrix),
         fiber.right.on_columns(lp.matrix, ia), lambda u, w, i: (i, u, w)),
        ("pair_r_left", (dA, dB, dM), rp.on_columns(base.left.matrix, im),
         fiber.left.on_columns(ia, rp.matrix), lambda i, w, u: (i, u, w)),
        ("pair_r_middle", (dB, dA, dM), rp.on_columns(base.right.matrix, im),
         rp.on_columns(ib, module.left.matrix), lambda w, i, u: (i, u, w)),
        ("pair_r_right", (dB, dM, dA),
         rp.on_columns(ib, module.right.matrix),
         fiber.right.on_columns(rp.matrix, ia), lambda w, u, i: (i, u, w))])
    return rep


def check_operator_identities(b):
    """The two identities coupling R with the complex map S."""
    rep = Report("operator_identities")
    r, s = b.over.rop, b.sop
    dM, dN = b.over.module.dim, b.fiber.dim
    im, i_n = Matrix.identity(dM), Matrix.identity(dN)
    rep.require_laws([
        ("operator_left", (dM, dN), b.base.left.on_columns(r, s),
         s * (b.fiber.left.on_columns(r, i_n) +
              b.left_pair.on_columns(im, s)), None),
        ("operator_right", (dN, dM), b.base.right.on_columns(s, r),
         s * (b.right_pair.on_columns(s, im) +
              b.fiber.right.on_columns(i_n, r)), lambda v, u: (u, v))])
    return rep


def check_rrb_bimodule(b):
    """All eight defining identities, exactly, on basis tuples."""
    rep = Report("rrb_bimodule")
    rep.merge(check_pairing_identities(
        b.over.module, b.base, b.fiber, b.left_pair, b.right_pair))
    rep.merge(check_operator_identities(b))
    return rep


def check_laws(s):
    """Every law of s, a relative Rota-Baxter algebra or a bimodule over
    one, each once: its own identities (check_relative_rb or
    check_rrb_bimodule), then the laws of the parts it is built from, the
    associativity of A and the bimodule laws of M, or the bimodule laws of
    B and N.  The laws of the algebra a bimodule is over are not read."""
    if isinstance(s, RRBBimodule):
        return (check_rrb_bimodule(s).merge(check_bimodule(s.base))
                .merge(check_bimodule(s.fiber)))
    return (check_relative_rb(s).merge(check_associativity(s.algebra))
            .merge(check_bimodule(s.module)))


def adjoint_bimodule(x):
    """The structure as a bimodule over itself: B = A, N = M, S = R.

    l is the right A-action on M and r is the left A-action on M.
    """
    return RRBBimodule(x, Bimodule.adjoint(x.algebra), x.module, x.rop,
                       x.module.right, x.module.left)


def dual_rrb_bimodule(b):
    """The dual bimodule on the transposed complex -S*: B* -> N*.

    New base N*, new fiber B*, A-actions by the dual bimodules, pairings
    l*(m, f_N)(b) = f_N(r(b, m)) and r*(f_N, m)(b) = f_N(l(m, b)).
    """
    lstar = b.right_pair.rotated()
    rstar = b.left_pair.rotated().rotated()
    return RRBBimodule(b.over, dual_bimodule(b.fiber), dual_bimodule(b.base),
                       -b.sop.transpose(), lstar, rstar)


def coadjoint_bimodule(x):
    """Dual of the adjoint: complex -R*: A* -> M* with transposed pairings."""
    return dual_rrb_bimodule(adjoint_bimodule(x))


def morphism_induced_bimodule(mor):
    """Pull the target structure back along a morphism (phi, psi).

    A acts on the target's algebra B and module N through phi, and the
    pairings use psi: l(m, b) = psi(m).b, r(b, m) = b.psi(m).
    """
    src, tgt = mor.source, mor.target
    alg = src.algebra
    dA, dM = alg.dim, src.module.dim
    dB, dN = tgt.algebra.dim, tgt.module.dim
    phi, psi = mor.phi, mor.psi
    ib, i_n = Matrix.identity(dB), Matrix.identity(dN)
    mu, left, right = tgt.algebra.mu, tgt.module.left, tgt.module.right
    base = Bimodule(
        alg, dB,
        StructureConstants(dA, dB, mu.on_columns(phi, ib)),
        StructureConstants(dB, dA, mu.on_columns(ib, phi)),
        tgt.algebra.basis_names)
    fiber = Bimodule(
        alg, dN,
        StructureConstants(dA, dN, left.on_columns(phi, i_n)),
        StructureConstants(dN, dA, right.on_columns(i_n, phi)),
        tgt.module.basis_names)
    left_pair = StructureConstants(dM, dB, right.on_columns(psi, ib))
    right_pair = StructureConstants(dB, dM, left.on_columns(ib, psi))
    return RRBBimodule(src, base, fiber, tgt.rop, left_pair, right_pair)


def semidirect_rrb(b):
    """The semidirect structure M (+) N -> A (+) B.

    Algebra: semidirect product of A with B.  Module actions:
      (a, b) |> (m, n) = (a.m, a.n + r(b, m))
      (m, n) <| (a, b) = (m.a, l(m, b) + n.a)
    Operator: R (+) S, block diagonal.  Basis order: A then B, M then N.
    """
    x = b.over
    alg_dims = (x.algebra.dim, b.base.dim)
    mod_dims = (x.module.dim, b.fiber.dim)
    big_alg = semidirect_algebra(b.base)
    big_mod = Bimodule(
        big_alg, sum(mod_dims),
        block_constants(alg_dims, mod_dims, mod_dims, {
            (0, 0, 0): x.module.left, (0, 1, 1): b.fiber.left,
            (1, 0, 1): b.right_pair}),
        block_constants(mod_dims, alg_dims, mod_dims, {
            (0, 0, 0): x.module.right, (0, 1, 1): b.left_pair,
            (1, 0, 1): b.fiber.right}),
        x.module.basis_names + b.fiber.basis_names)
    rop = Matrix.from_blocks(big_alg.dim, big_mod.dim, (
        (1, x.rop, 0, 0), (1, b.sop, x.algebra.dim, x.module.dim)))
    return RelativeRBAlgebra(big_alg, big_mod, rop)


def lift_bimodule(b):
    """The Rota-Baxter bimodule (B (+) N, S-hat) over lift_to_rb(b.over).

    B (+) N is the (A (+) M)-bimodule L with the actions
              (a, m).(b, n) = (a.b, a.n + l(m, b))
              (b, n).(a, m) = (b.a, r(b, m) + n.a)
    and S-hat(b, n) = (S(n), 0); it is returned as the bimodule with
    base and fiber L, complex map S-hat and pairings the actions of L.
    Requires only the six pairing identities; its two operator
    identities, the Rota-Baxter bimodule identities, then hold exactly
    when those of b hold.
    """
    pairing = check_pairing_identities(
        b.over.module, b.base, b.fiber, b.left_pair, b.right_pair)
    if not pairing:
        raise StructuralError("pairing identities fail:\n" +
                              pairing.describe())
    x = b.over
    xhat = lift_to_rb(x)
    alg_dims = (x.algebra.dim, x.module.dim)
    mod_dims = (b.base.dim, b.fiber.dim)
    lifted = Bimodule(
        xhat.algebra, sum(mod_dims),
        block_constants(alg_dims, mod_dims, mod_dims, {
            (0, 0, 0): b.base.left, (0, 1, 1): b.fiber.left,
            (1, 0, 1): b.left_pair}),
        block_constants(mod_dims, alg_dims, mod_dims, {
            (0, 0, 0): b.base.right, (0, 1, 1): b.right_pair,
            (1, 0, 1): b.fiber.right}),
        b.base.basis_names + b.fiber.basis_names)
    n = lifted.dim
    return RRBBimodule(xhat, lifted, lifted,
                       Matrix.from_blocks(n, n, [(1, b.sop, 0, b.base.dim)]),
                       lifted.left, lifted.right)


def rb_bimodule_from_r_matrix(r, mod):
    """The Rota-Baxter bimodule (M, R_M) over rb_from_r_matrix(r), with
    R_M(m) = sum r[i][j] e_i . m . e_j: base and fiber M, complex map
    R_M and pairings the actions of M."""
    return RRBBimodule(rb_from_r_matrix(r), mod, mod,
                       r_matrix_operator(r, mod), mod.left, mod.right)


def mtot_action_bimodule(b):
    """B as a Bimodule over the total algebra M_Tot of the induced products,
    which is its over.

    m |> b = R(m).b - S(l(m, b)) and b <| m = b.R(m) - S(r(b, m)).
    Built once per b: each degree of a sweep from 2 on reads it.
    """
    if b._mtot is None:
        x = b.over
        dM, dB = x.module.dim, b.base.dim
        r, s, ib = x.rop, b.sop, Matrix.identity(dB)
        left = b.base.left.on_columns(r, ib) - s * b.left_pair.matrix
        right = b.base.right.on_columns(ib, r) - s * b.right_pair.matrix
        b._mtot = Bimodule(
            total_algebra(induced_dendriform_algebra(x)), dB,
            StructureConstants(dM, dB, left),
            StructureConstants(dB, dM, right), b.base.basis_names)
    return b._mtot


def induced_dendriform_representation(b):
    """N as a representation of the induced dendriform structure on M.

    m < n = l(m, S(n)),  m > n = R(m).n,  n < m = n.R(m),  n > m = r(S(n), m).
    """
    x = b.over
    den = induced_dendriform_algebra(x)
    dM, dN = x.module.dim, b.fiber.dim
    r, s = x.rop, b.sop
    im, i_n = Matrix.identity(dM), Matrix.identity(dN)
    left_prec, left_succ = (
        StructureConstants(dM, dN, m)
        for m in (b.left_pair.on_columns(im, s),
                  b.fiber.left.on_columns(r, i_n)))
    right_prec, right_succ = (
        StructureConstants(dN, dM, m)
        for m in (b.fiber.right.on_columns(i_n, r),
                  b.right_pair.on_columns(s, im)))
    return DendriformRepresentation(
        den, dN, left_prec, left_succ, right_prec, right_succ,
        b.fiber.basis_names)


def dendriform_to_rrb(d, e):
    """Present dendriform data (D, E) as a relative Rota-Baxter structure.

    D with the identity operator into its total algebra D_Tot, where D_Tot
    acts on D by x.y = x > y and y.x = y < x; E with the identity into
    E_Tot, where E_Tot carries the summed actions and E the one-sided ones;
    pairings l(x, e) = x < e and r(e, x) = e > x.  The induced dendriform
    structure and representation recover (d, e) tensor for tensor.
    """
    dtot = total_algebra(d)
    dmod = Bimodule(dtot, d.dim, d.succ, d.prec, d.basis_names)
    x = RelativeRBAlgebra(dtot, dmod, Matrix.identity(d.dim))
    etot = Bimodule(dtot, e.dim,
                    e.left_prec + e.left_succ,
                    e.right_prec + e.right_succ,
                    e.basis_names)
    efib = Bimodule(dtot, e.dim, e.left_succ, e.right_prec, e.basis_names)
    bim = RRBBimodule(x, etot, efib, Matrix.identity(e.dim),
                      e.left_prec, e.right_succ)
    return x, bim


class DifferentialPair:
    """A derivation d: A -> M together with a compatible map delta: B -> N.

    d satisfies d(a.a') = a.d(a') + d(a).a'; base and fiber are A-bimodules
    whose pairings l, r satisfy the six pairing identities; delta satisfies
      delta(a.b) = a.delta(b) + l(d(a), b)
      delta(b.a) = r(b, d(a)) + delta(b).a
    """

    __slots__ = ("algebra", "module", "base", "fiber", "d", "delta",
                 "left_pair", "right_pair")

    def __init__(self, algebra, module, base, fiber, d, delta,
                 left_pair, right_pair):
        if d.cols != algebra.dim or d.rows != module.dim:
            raise ShapeError("derivation must map the algebra into the module")
        if delta.cols != base.dim or delta.rows != fiber.dim:
            raise ShapeError("delta must map the base into the fiber")
        if (left_pair.dim_left, left_pair.dim_right, left_pair.dim_out) != \
                (module.dim, base.dim, fiber.dim):
            raise ShapeError("left pairing must be dimM x dimB -> dimN")
        if (right_pair.dim_left, right_pair.dim_right,
                right_pair.dim_out) != (base.dim, module.dim, fiber.dim):
            raise ShapeError("right pairing must be dimB x dimM -> dimN")
        self.algebra = algebra
        self.module = module
        self.base = base
        self.fiber = fiber
        self.d = d
        self.delta = delta
        self.left_pair = left_pair
        self.right_pair = right_pair


def check_differential_pair(p):
    """Derivation law, pairing identities, and the two delta laws."""
    rep = Report("differential_pair")
    alg, mod, base, fiber = p.algebra, p.module, p.base, p.fiber
    d, delta = p.d, p.delta
    ia, ib = Matrix.identity(alg.dim), Matrix.identity(base.dim)
    rep.require_laws([("derivation", (alg.dim,) * 2, d * alg.mu.matrix,
                       mod.left.on_columns(ia, d) +
                       mod.right.on_columns(d, ia), None)])
    rep.merge(check_pairing_identities(
        mod, base, fiber, p.left_pair, p.right_pair))
    rep.require_laws([
        ("delta_left", (alg.dim, base.dim), delta * base.left.matrix,
         fiber.left.on_columns(ia, delta) +
         p.left_pair.on_columns(d, ib), None),
        ("delta_right", (base.dim, alg.dim), delta * base.right.matrix,
         p.right_pair.on_columns(ib, d) +
         fiber.right.on_columns(delta, ia), lambda w, i: (i, w))])
    return rep


def invert_differential_pair(p):
    """Invert d and delta into a relative Rota-Baxter structure.

    Needs dim M = dim A and dim N = dim B with both maps invertible; then
    R = d^{-1} and S = delta^{-1} satisfy the operator identities because
    the derivation and delta laws transport across the inverses.
    """
    check = check_differential_pair(p)
    if not check:
        raise StructuralError("differential pair laws fail:\n" +
                              check.describe())
    if p.d.cols != p.d.rows or p.delta.cols != p.delta.rows:
        raise StructuralError("inversion needs dim M = dim A, dim N = dim B")
    rinv = inverse(p.d)
    sinv = inverse(p.delta)
    if rinv is None or sinv is None:
        raise StructuralError("derivation or delta is not invertible")
    x = RelativeRBAlgebra(p.algebra, p.module, rinv)
    bim = RRBBimodule(x, p.base, p.fiber, sinv,
                      p.left_pair, p.right_pair)
    return x, bim
