"""Bimodules over relative Rota-Baxter algebras: checks and constructions."""

import pytest

from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, DendriformAlgebra, DendriformRepresentation,
    ShapeError, StructuralError, StructureConstants, check_bimodule,
    check_dendriform, check_dendriform_representation,
)
from rotabaxter.linalg import Matrix, Q
from rotabaxter.rrb import (
    RRBMorphism, RelativeRBAlgebra, check_morphism, check_relative_rb,
    induced_dendriform, lift_to_rb,
)
from rotabaxter.rrb_modules import (
    DifferentialPair, RRBBimodule, adjoint_bimodule, check_differential_pair,
    check_operator_identities, check_pairing_identities, check_rrb_bimodule,
    coadjoint_bimodule,
    dendriform_to_rrb, dual_rrb_bimodule, induced_dendriform_representation,
    invert_differential_pair, lift_bimodule, morphism_induced_bimodule,
    mtot_action_bimodule, semidirect_rrb,
)
from rotabaxter.samples import random_rrb_pair

from helpers import (
    apply, at, basis_vec, bilinear, field_adjoint_rrb, field_algebra,
    identity_morphism, linmap, nested, nilpotent_shift_rrb, on_basis,
    one_sided_rrb, ref_build, sc, sub_vec, zero_dendriform,
    zero_dendriform_rep, zero_rrb,
)


def passing_fixtures():
    return [field_adjoint_rrb(), one_sided_rrb(), nilpotent_shift_rrb(),
            zero_rrb(2, 2)]


def bimodule_tensors(b):
    return (b.base.left, b.base.right, b.fiber.left, b.fiber.right,
            b.sop, b.left_pair, b.right_pair)


def zero_action_pair_substrate(left_val=0, right_val=0):
    """Field algebra, all module/base/fiber actions zero, R = 0, S = id.

    With every action zero the six pairing identities hold for any
    pairings; a nonzero pairing breaks exactly the corresponding operator
    identity.
    """
    alg = field_algebra()
    x = RelativeRBAlgebra(alg, Bimodule.zero_actions(alg, 1),
                          Matrix.zero(1, 1))
    return RRBBimodule(
        x,
        Bimodule.zero_actions(alg, 1),
        Bimodule.zero_actions(alg, 1),
        Matrix.identity(1),
        sc(1, 1, 1, {(0, 0, 0): left_val} if left_val else {}),
        sc(1, 1, 1, {(0, 0, 0): right_val} if right_val else {}))


# ---------------------------------------------------------------- checks


def test_adjoint_bimodule_passes_for_all_fixtures():
    for x in passing_fixtures():
        assert check_relative_rb(x).ok
        rep = check_rrb_bimodule(adjoint_bimodule(x))
        assert rep.ok, rep.describe()


def test_adjoint_bimodule_reuses_the_given_structure():
    x = one_sided_rrb()
    b = adjoint_bimodule(x)
    assert b.sop == x.rop
    assert b.left_pair == x.module.right
    assert b.right_pair == x.module.left
    assert b.base.left == x.algebra.mu and b.base.right == x.algebra.mu


def test_all_zero_bimodule_passes():
    b = RRBBimodule.zero(zero_rrb(1, 2), 2, 1)
    assert check_rrb_bimodule(b).ok


def test_doubled_left_pairing_breaks_the_first_operator_identity():
    x = one_sided_rrb()
    b = adjoint_bimodule(x)
    doubled = RRBBimodule(x, b.base, b.fiber, b.sop,
                          b.left_pair + b.left_pair, b.right_pair)
    rep = check_rrb_bimodule(doubled)
    assert not rep.ok
    assert {v.law for v in rep.violations} == {"operator_left"}
    # pairing identities are linear in the pairing, so they still hold
    assert check_pairing_identities(x.module, doubled.base, doubled.fiber,
                                    doubled.left_pair,
                                    doubled.right_pair).ok


def test_zero_action_substrate_mutations_hit_one_operator_law_each():
    assert check_rrb_bimodule(zero_action_pair_substrate()).ok
    left = check_rrb_bimodule(zero_action_pair_substrate(left_val=1))
    assert {v.law for v in left.violations} == {"operator_left"}
    right = check_rrb_bimodule(zero_action_pair_substrate(right_val=1))
    assert {v.law for v in right.violations} == {"operator_right"}


# ---------------------------------------------------------- dual / coadjoint


def test_dual_of_zero_bimodule_is_zero():
    d = dual_rrb_bimodule(RRBBimodule.zero(zero_rrb(1, 1), 2, 3))
    assert d.sop.is_zero()
    assert d.left_pair.is_zero() and d.right_pair.is_zero()
    assert d.base.dim == 3 and d.fiber.dim == 2


def test_dual_bimodule_passes_for_passing_inputs():
    for x in passing_fixtures():
        rep = check_rrb_bimodule(dual_rrb_bimodule(adjoint_bimodule(x)))
        assert rep.ok, rep.describe()


def test_coadjoint_matches_dual_of_adjoint_and_transposed_pairings():
    x = nilpotent_shift_rrb()
    co = coadjoint_bimodule(x)
    via_dual = dual_rrb_bimodule(adjoint_bimodule(x))
    assert bimodule_tensors(co) == bimodule_tensors(via_dual)
    # new operator is -R^T; the pairings evaluate against the module
    # actions: l*(m, f)(a) = f(a.m) and r*(f, m)(a) = f(m.a)
    assert co.sop == -x.rop.transpose()
    dM, dA = x.module.dim, x.algebra.dim
    lp, rp = nested(co.left_pair), nested(co.right_pair)
    left, right = nested(x.module.left), nested(x.module.right)
    for u in range(dM):
        for v in range(dM):
            for w in range(dA):
                assert lp[u][v][w] == left[w][u][v]
                assert rp[v][u][w] == right[u][w][v]


def test_double_dual_restores_every_tensor():
    for x in passing_fixtures():
        b = adjoint_bimodule(x)
        dd = dual_rrb_bimodule(dual_rrb_bimodule(b))
        assert bimodule_tensors(dd) == bimodule_tensors(b)


# ------------------------------------------------------- morphism pullback


def test_identity_morphism_induces_the_adjoint_bimodule():
    x = nilpotent_shift_rrb()
    b = morphism_induced_bimodule(identity_morphism(x))
    assert bimodule_tensors(b) == bimodule_tensors(adjoint_bimodule(x))


def test_zero_morphism_induces_a_passing_bimodule():
    src, tgt = one_sided_rrb(), nilpotent_shift_rrb()
    mor = RRBMorphism(src, tgt, Matrix.zero(2, 1), Matrix.zero(2, 1))
    assert check_morphism(mor).ok
    b = morphism_induced_bimodule(mor)
    assert b.base.left.is_zero() and b.fiber.right.is_zero()
    assert b.left_pair.is_zero() and b.right_pair.is_zero()
    assert b.sop == tgt.rop
    assert check_rrb_bimodule(b).ok


def test_inclusion_into_semidirect_is_a_morphism_and_induces_a_bimodule():
    x = nilpotent_shift_rrb()
    big = semidirect_rrb(adjoint_bimodule(x))
    dA, dM = x.algebra.dim, x.module.dim
    phi = Matrix.from_rows(
        [[Q(1) if i == j else Q(0) for j in range(dA)]
         for i in range(dA)] + [[Q(0)] * dA for _ in range(dA)])
    psi = Matrix.from_rows(
        [[Q(1) if i == j else Q(0) for j in range(dM)]
         for i in range(dM)] + [[Q(0)] * dM for _ in range(dM)])
    assert (phi.rows, psi.rows) == (big.algebra.dim, big.module.dim)
    mor = RRBMorphism(x, big, phi, psi)
    assert check_morphism(mor).ok
    rep = check_rrb_bimodule(morphism_induced_bimodule(mor))
    assert rep.ok, rep.describe()


# ------------------------------------------------------------- semidirect


def test_semidirect_of_field_adjoint_has_zero_operator():
    out = semidirect_rrb(adjoint_bimodule(field_adjoint_rrb()))
    assert out.algebra.dim == 2 and out.module.dim == 2
    assert out.rop.is_zero()
    assert check_relative_rb(out).ok


def test_semidirect_of_zero_bimodule_is_zero():
    out = semidirect_rrb(RRBBimodule.zero(zero_rrb(1, 1), 1, 1))
    assert out.algebra.mu.is_zero()
    assert out.module.left.is_zero() and out.module.right.is_zero()
    assert out.rop.is_zero()


def test_semidirect_passes_for_passing_bimodules():
    for x in passing_fixtures():
        for b in (adjoint_bimodule(x),
                  dual_rrb_bimodule(adjoint_bimodule(x))):
            out = semidirect_rrb(b)
            assert check_bimodule(out.module).ok
            rep = check_relative_rb(out)
            assert rep.ok, rep.describe()


def test_semidirect_operator_is_block_diagonal():
    x = nilpotent_shift_rrb()
    out = semidirect_rrb(adjoint_bimodule(x))
    dA, dM = x.algebra.dim, x.module.dim
    for i in range(out.algebra.dim):
        for j in range(out.module.dim):
            v = at(out.rop, i, j)
            if i < dA and j < dM:
                assert v == at(x.rop, i, j)
            elif i >= dA and j >= dM:
                assert v == at(x.rop, i - dA, j - dM)
            else:
                assert v == 0


# ------------------------------------------------------------------- lift


def test_lift_of_passing_bimodule_is_a_rota_baxter_bimodule():
    for x in passing_fixtures():
        bhat = lift_bimodule(adjoint_bimodule(x))
        assert bhat.over.algebra.mu == lift_to_rb(x).algebra.mu
        rep = check_operator_identities(bhat)
        assert rep.ok, rep.describe()


def test_lifted_operator_has_the_shift_block_shape():
    b = adjoint_bimodule(nilpotent_shift_rrb())
    shat = lift_bimodule(b).sop
    dB, dN = b.base.dim, b.fiber.dim
    for w in range(dB + dN):
        for v in range(dB + dN):
            expect = at(b.sop, w, v - dB) if w < dB and v >= dB else 0
            assert at(shat, w, v) == expect


def test_lift_iff_broken_operator_identity_breaks_the_lift():
    for kw, law in (({"left_val": 1}, "operator_left"),
                    ({"right_val": 1}, "operator_right")):
        b = zero_action_pair_substrate(**kw)
        assert not check_rrb_bimodule(b).ok
        # the pairing identities still hold
        rep = check_operator_identities(lift_bimodule(b))
        assert not rep.ok
        assert {v.law for v in rep.violations} == {law}


def test_lift_rejects_broken_pairing_identities():
    x = nilpotent_shift_rrb()
    b = adjoint_bimodule(x)
    bad_left = sc(2, 2, 2, {(1, 1, 0): 1}) + b.left_pair
    broken = RRBBimodule(x, b.base, b.fiber, b.sop, bad_left, b.right_pair)
    assert not check_rrb_bimodule(broken).ok
    with pytest.raises(StructuralError):
        lift_bimodule(broken)


# ----------------------------------------------------- total-algebra action


def test_mtot_action_is_zero_when_operators_vanish():
    out = mtot_action_bimodule(adjoint_bimodule(field_adjoint_rrb()))
    assert out.left.is_zero() and out.right.is_zero()


def test_mtot_action_bimodule_passes_for_passing_inputs():
    for x in passing_fixtures():
        for b in (adjoint_bimodule(x),
                  dual_rrb_bimodule(adjoint_bimodule(x))):
            out = mtot_action_bimodule(b)
            rep = check_bimodule(out)
            assert rep.ok, rep.describe()


def test_mtot_action_matches_the_defining_formula():
    x = one_sided_rrb()
    out = mtot_action_bimodule(adjoint_bimodule(x))
    # m |> b = R(m).b - S(m.b) = e - e = 0, b <| m = b.R(m) - S(b.m) = e
    assert on_basis(out.left, 0, 0) == (0,)
    assert on_basis(out.right, 0, 0) == (1,)


def test_induced_structures_match_their_formulas_on_basis_vectors():
    """The induced dendriform products, the M_Tot actions on B and the
    induced representation on N, built as matrix products, equal their
    defining formulas evaluated on each pair of basis vectors."""
    for seed in range(100):
        x, b = random_rrb_pair(seed)
        dM, dB, dN = x.module.dim, b.base.dim, b.fiber.dim
        r = [x.rop.column(u) for u in range(dM)]
        s = [b.sop.column(v) for v in range(dN)]

        def em(u):
            return basis_vec(dM, u)

        den, mtot, _ = induced_dendriform(x)
        assert den.prec == ref_build(
            dM, dM, dM,
            lambda u, w: bilinear(x.module.right, em(u), r[w])), seed
        assert den.succ == ref_build(
            dM, dM, dM,
            lambda u, w: bilinear(x.module.left, r[u], em(w))), seed
        assert den.basis_names == mtot.basis_names == x.module.basis_names

        acts = mtot_action_bimodule(b)
        assert acts.left == ref_build(
            dM, dB, dB, lambda u, w: sub_vec(
                bilinear(b.base.left, r[u], basis_vec(dB, w)),
                apply(b.sop, on_basis(b.left_pair, u, w)))), seed
        assert acts.right == ref_build(
            dB, dM, dB, lambda w, u: sub_vec(
                bilinear(b.base.right, basis_vec(dB, w), r[u]),
                apply(b.sop, on_basis(b.right_pair, w, u)))), seed
        assert acts.basis_names == b.base.basis_names

        rep = induced_dendriform_representation(b)
        en = [basis_vec(dN, v) for v in range(dN)]
        assert (rep.left_prec, rep.left_succ) == (
            ref_build(
                dM, dN, dN, lambda u, v: bilinear(b.left_pair, em(u), s[v])),
            ref_build(
                dM, dN, dN,
                lambda u, v: bilinear(b.fiber.left, r[u], en[v]))), seed
        assert (rep.right_prec, rep.right_succ) == (
            ref_build(
                dN, dM, dN, lambda v, u: bilinear(b.fiber.right, en[v], r[u])),
            ref_build(
                dN, dM, dN,
                lambda v, u: bilinear(b.right_pair, s[v], em(u)))), seed
        assert rep.basis_names == b.fiber.basis_names


# ----------------------------------------- induced dendriform representation


def test_adjoint_bimodule_induces_the_adjoint_representation():
    for x in (one_sided_rrb(), nilpotent_shift_rrb()):
        rep = induced_dendriform_representation(adjoint_bimodule(x))
        den, _, _ = induced_dendriform(x)
        adj = DendriformRepresentation.adjoint(den)
        assert (rep.left_prec, rep.left_succ, rep.right_prec,
                rep.right_succ) == (adj.left_prec, adj.left_succ,
                                    adj.right_prec, adj.right_succ)


def test_induced_representation_passes_for_passing_inputs():
    for x in passing_fixtures():
        for b in (adjoint_bimodule(x),
                  dual_rrb_bimodule(adjoint_bimodule(x))):
            rep = check_dendriform_representation(
                induced_dendriform_representation(b))
            assert rep.ok, rep.describe()


def test_zero_bimodule_induces_the_zero_representation():
    rep = induced_dendriform_representation(
        RRBBimodule.zero(zero_rrb(1, 1), 2, 2))
    assert rep.left_prec.is_zero() and rep.left_succ.is_zero()
    assert rep.right_prec.is_zero() and rep.right_succ.is_zero()


# -------------------------------------------------- dendriform to rRB route


def succ_only_dendriform():
    return DendriformAlgebra(1, StructureConstants.zero(1, 1, 1),
                             sc(1, 1, 1, {(0, 0, 0): 1}))


def test_dendriform_to_rrb_round_trip_one_dim():
    d = succ_only_dendriform()
    e = DendriformRepresentation.adjoint(d)
    x, bim = dendriform_to_rrb(d, e)
    assert check_relative_rb(x).ok
    rep = check_rrb_bimodule(bim)
    assert rep.ok, rep.describe()
    back, _, _ = induced_dendriform(x)
    assert (back.prec, back.succ) == (d.prec, d.succ)
    erep = induced_dendriform_representation(bim)
    assert (erep.left_prec, erep.left_succ, erep.right_prec,
            erep.right_succ) == (e.left_prec, e.left_succ, e.right_prec,
                                 e.right_succ)


def test_dendriform_to_rrb_round_trip_two_dim():
    # harvest a genuine 2-dim dendriform pair from a Rota-Baxter fixture
    d, _, _ = induced_dendriform(nilpotent_shift_rrb())
    assert check_dendriform(d).ok
    e = DendriformRepresentation.adjoint(d)
    x, bim = dendriform_to_rrb(d, e)
    assert check_relative_rb(x).ok
    assert check_rrb_bimodule(bim).ok
    back, _, _ = induced_dendriform(x)
    assert (back.prec, back.succ) == (d.prec, d.succ)
    erep = induced_dendriform_representation(bim)
    assert (erep.left_prec, erep.left_succ, erep.right_prec,
            erep.right_succ) == (e.left_prec, e.left_succ, e.right_prec,
                                 e.right_succ)


def test_zero_dendriform_round_trips_to_zero():
    d = zero_dendriform(2)
    x, bim = dendriform_to_rrb(d, zero_dendriform_rep(d, 1))
    assert x.algebra.mu.is_zero()
    assert check_rrb_bimodule(bim).ok
    back, _, _ = induced_dendriform(x)
    assert back.prec.is_zero() and back.succ.is_zero()


def test_dendriform_embeds_into_the_lifted_rota_baxter_algebra():
    d, _, _ = induced_dendriform(nilpotent_shift_rrb())
    x, _ = dendriform_to_rrb(d, DendriformRepresentation.adjoint(d))
    den_big, _, _ = induced_dendriform(lift_to_rb(x))
    n = d.dim
    for i in range(n):
        for j in range(n):
            for tensor, big_tensor in ((d.prec, den_big.prec),
                                       (d.succ, den_big.succ)):
                got = nested(big_tensor)[n + i][n + j]
                assert got[:n] == (Q(0),) * n
                assert got[n:] == nested(tensor)[i][j]


# -------------------------------------------------------- differential pairs


def square_zero_pair(scale=1, delta_scale=1):
    alg = AssocAlgebra.zero(1)
    adj = Bimodule.adjoint(alg)
    return DifferentialPair(
        alg, adj, adj, adj,
        linmap([[scale]]), linmap([[delta_scale]]),
        StructureConstants.zero(1, 1, 1), StructureConstants.zero(1, 1, 1))


def test_square_zero_differential_pair_inverts_to_identity():
    p = square_zero_pair()
    assert check_differential_pair(p).ok
    x, bim = invert_differential_pair(p)
    assert x.rop == Matrix.identity(1)
    assert check_relative_rb(x).ok and check_rrb_bimodule(bim).ok


def test_scaled_differential_inverts_to_reciprocal():
    x, bim = invert_differential_pair(square_zero_pair(scale=2,
                                                       delta_scale=4))
    assert at(x.rop, 0, 0) == Q(1, 2)
    assert at(bim.sop, 0, 0) == Q(1, 4)


def test_singular_differential_is_rejected():
    with pytest.raises(StructuralError):
        invert_differential_pair(square_zero_pair(scale=0))


def test_non_square_differential_is_rejected():
    alg = AssocAlgebra.zero(1)
    adj = Bimodule.adjoint(alg)
    two = Bimodule.zero_actions(alg, 2)
    p = DifferentialPair(alg, two, adj, adj,
                         Matrix.zero(2, 1), linmap([[1]]),
                         StructureConstants.zero(2, 1, 1),
                         StructureConstants.zero(1, 2, 1))
    assert check_differential_pair(p).ok
    with pytest.raises(StructuralError):
        invert_differential_pair(p)


def test_broken_derivation_law_is_rejected():
    alg = field_algebra()
    adj = Bimodule.adjoint(alg)
    p = DifferentialPair(alg, adj, adj, adj, linmap([[1]]), linmap([[1]]),
                         StructureConstants.zero(1, 1, 1),
                         StructureConstants.zero(1, 1, 1))
    rep = check_differential_pair(p)
    # d = id is not a derivation on the field: d(e.e) = e but the Leibniz
    # expansion gives 2e; the delta laws hold since each side equals e
    assert {v.law for v in rep.violations} == {"derivation"}
    with pytest.raises(StructuralError):
        invert_differential_pair(p)


@pytest.mark.parametrize("left, right", [((2, 1, 1), (1, 1, 1)),
                                         ((1, 1, 1), (1, 1, 2))])
def test_differential_pair_pairing_shapes_are_checked(left, right):
    p = square_zero_pair()
    with pytest.raises(ShapeError):
        DifferentialPair(p.algebra, p.module, p.base, p.fiber, p.d, p.delta,
                         StructureConstants.zero(*left),
                         StructureConstants.zero(*right))


def test_broken_delta_law_is_flagged():
    p = square_zero_pair()
    bad = DifferentialPair(p.algebra, p.module, p.base, p.fiber, p.d,
                           p.delta, sc(1, 1, 1, {(0, 0, 0): 1}),
                           p.right_pair)
    rep = check_differential_pair(bad)
    assert not rep.ok
    assert {v.law for v in rep.violations} == {"delta_left"}
