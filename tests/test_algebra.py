"""Associative/bimodule/dendriform layer: frozen examples and differentials."""

import random

import pytest

from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, DendriformAlgebra, DendriformRepresentation,
    LinearMap, Report, ShapeError, StructureConstants, check_associativity,
    block_constants, check_bimodule, check_dendriform,
    check_dendriform_representation, dual_bimodule,
    hochschild_cohomology_dims, hochschild_matrix, semidirect_algebra,
    total_algebra,
)
from rotabaxter.linalg import Matrix, Q

from helpers import (
    TensorIndex, apply, basis_vec, bilinear, from_nested, nested, on_basis,
    zero_dendriform, zero_dendriform_rep,
)


def sc(dim_left, dim_right, dim_out, entries):
    """Structure constants from a sparse {(i,j,k): value} dict."""
    t = StructureConstants.zero(dim_left, dim_right, dim_out)
    data = [[[v for v in row] for row in plane] for plane in nested(t)]
    for (i, j, k), v in entries.items():
        data[i][j][k] = Q(v)
    return from_nested(dim_left, dim_right, dim_out, data)


def field_algebra():
    return AssocAlgebra(1, sc(1, 1, 1, {(0, 0, 0): 1}))


def dual_numbers():
    # k[x]/(x^2), basis (1, x)
    return AssocAlgebra(2, sc(2, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1,
                                        (1, 0, 1): 1}))


class TestAssociativity:
    def test_field(self):
        assert check_associativity(field_algebra()).ok

    def test_zero(self):
        assert check_associativity(AssocAlgebra.zero(2)).ok

    def test_nonassociative_detected(self):
        # e0 e0 = e1, e1 e0 = e0: (e0 e0) e0 = e0 but e0 (e0 e0) = 0
        bad = AssocAlgebra(2, sc(2, 2, 2, {(0, 0, 1): 1, (1, 0, 0): 1}))
        rep = check_associativity(bad)
        assert not rep.ok
        assert (0, 0, 0) in [v.args for v in rep.violations]


class TestBimodule:
    def test_adjoint_passes(self):
        for alg in (field_algebra(), dual_numbers(), AssocAlgebra.zero(3)):
            assert check_bimodule(Bimodule.adjoint(alg)).ok

    def test_zero_actions_pass(self):
        assert check_bimodule(Bimodule.zero_actions(dual_numbers(), 3)).ok

    def test_doubled_left_action_fails(self):
        alg = field_algebra()
        mod = Bimodule(alg, 1, sc(1, 1, 1, {(0, 0, 0): 2}), alg.mu)
        rep = check_bimodule(mod)
        assert not rep.ok
        assert any(v.law == "left_assoc" for v in rep.violations)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            Bimodule(field_algebra(), 2, sc(1, 1, 1, {}), sc(1, 1, 1, {}))


class TestDualBimodule:
    def test_dual_of_zero_actions(self):
        mod = Bimodule.zero_actions(dual_numbers(), 2)
        dual = dual_bimodule(mod)
        assert dual.left.is_zero() and dual.right.is_zero()

    def test_dual_of_field_adjoint_is_identity_scaling(self):
        dual = dual_bimodule(Bimodule.adjoint(field_algebra()))
        assert nested(dual.left)[0][0][0] == 1
        assert nested(dual.right)[0][0][0] == 1

    def test_double_dual_restores_tensors(self):
        rng = random.Random(3)
        alg = dual_numbers()
        mod = Bimodule(alg, 2, alg.mu, alg.mu)  # adjoint
        dd = dual_bimodule(dual_bimodule(mod))
        assert dd.left == mod.left and dd.right == mod.right
        assert check_bimodule(dual_bimodule(mod)).ok
        del rng


class TestSemidirect:
    def test_zero_algebra_any_module(self):
        alg = AssocAlgebra.zero(0)
        mod = Bimodule.zero_actions(alg, 2)
        total = semidirect_algebra(mod)
        assert total.dim == 2 and total.mu.is_zero()

    def test_field_with_adjoint(self):
        total = semidirect_algebra(Bimodule.adjoint(field_algebra()))
        assert total.dim == 2
        e, m = basis_vec(2, 0), basis_vec(2, 1)
        assert bilinear(total.mu, e, m) == m
        assert bilinear(total.mu, m, m) == (0, 0)
        assert check_associativity(total).ok

    def test_module_is_square_zero_ideal(self):
        total = semidirect_algebra(Bimodule.adjoint(dual_numbers()))
        assert check_associativity(total).ok
        for i in (2, 3):
            for j in (2, 3):
                assert on_basis(total.mu, i, j) == (0,) * 4


def random_constants(rng, dl, dr, do):
    return from_nested(dl, dr, do, [
        [[Q(rng.randint(-3, 3)) for _ in range(do)] for _ in range(dr)]
        for _ in range(dl)])


def nonzeros(t):
    return {(i, j, k): v for i, plane in enumerate(nested(t))
            for j, row in enumerate(plane) for k, v in enumerate(row) if v}


class TestBlockConstants:
    def test_blocks_sit_at_their_summand_offsets(self):
        rng = random.Random(5)
        left, right, out = (2, 1, 3), (1, 2), (2, 0, 1)
        blocks = {(0, 1, 0): random_constants(rng, 2, 2, 2),
                  (2, 0, 2): random_constants(rng, 3, 1, 1),
                  (1, 1, 1): StructureConstants.zero(1, 2, 0)}
        got = block_constants(left, right, out, blocks)
        assert (got.dim_left, got.dim_right, got.dim_out) == (6, 3, 3)
        want = {(i, 1 + j, k): v
                for (i, j, k), v in nonzeros(blocks[(0, 1, 0)]).items()}
        want.update({(3 + i, j, 2 + k): v
                     for (i, j, k), v in nonzeros(blocks[(2, 0, 2)]).items()})
        assert want and nonzeros(got) == want

    def test_no_blocks_is_zero(self):
        got = block_constants((1, 2), (2,), (0, 3), {})
        assert got == StructureConstants.zero(3, 2, 3)

    @pytest.mark.parametrize("shape", [(2, 2, 1), (1, 2, 2), (2, 1, 2),
                                       (3, 2, 2)])
    def test_misfit_block_raises(self, shape):
        # the block (0, 0, 0) must be 2 x 2 x 2; a misfit would spill over
        with pytest.raises(ShapeError):
            block_constants((2, 1), (2, 1), (2, 1),
                            {(0, 0, 0): StructureConstants.zero(*shape)})


@pytest.mark.parametrize("dl, dr, do", [(2, 3, 2), (1, 1, 1), (3, 1, 2),
                                        (0, 2, 2), (2, 0, 1), (2, 2, 0)])
def test_bilinear_reads_the_flattened_pair(dl, dr, do):
    rng = random.Random(dl * 100 + dr * 10 + do)
    lin = Matrix(do, dl * dr, [Q(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(do * dl * dr)])
    form = StructureConstants(dl, dr, lin)
    assert (form.dim_left, form.dim_right, form.dim_out) == (dl, dr, do)
    for i in range(dl):
        for j in range(dr):
            assert bilinear(form, basis_vec(dl, i), basis_vec(dr, j)) == \
                lin.column(i * dr + j)


def test_bilinear_rejects_a_wrong_domain():
    with pytest.raises(ShapeError):
        StructureConstants(2, 3, Matrix(1, 4))


def mixed_constants(rng, dl, dr, do):
    return from_nested(dl, dr, do, [[[
        Q(rng.choice((0, 0, 1, -1, 3)), rng.choice((1, 1, 2, 5)))
        for _ in range(do)] for _ in range(dr)] for _ in range(dl)])


@pytest.mark.parametrize("seed", range(30))
def test_constants_matrix_and_columns_match_the_definition(seed):
    # random shapes, 0 included, with mixed denominators
    rng = random.Random(seed)
    dl, dr, do, n1, n2 = (rng.randint(0, 3) for _ in range(5))
    c = mixed_constants(rng, dl, dr, do)
    m = c.matrix
    assert (m.rows, m.cols) == (do, dl * dr)
    index = TensorIndex((dl, dr))
    for t in range(dl * dr):
        i, j = index.unflatten(t)
        assert m.column(t) == on_basis(c, i, j)
    assert c.matrix is m  # built once
    x, y = (Matrix(d, n, [Q(rng.randint(-2, 2), rng.choice((1, 3)))
                          for _ in range(d * n)])
            for d, n in ((dl, n1), (dr, n2)))
    got = c.on_columns(x, y)
    assert (got.rows, got.cols) == (do, n1 * n2)
    pairs = TensorIndex((n1, n2))
    for t in range(n1 * n2):
        s, u = pairs.unflatten(t)
        assert got.column(t) == bilinear(c, x.column(s), y.column(u))


def test_identity_columns_give_the_values_on_basis_pairs():
    c = mixed_constants(random.Random(3), 2, 3, 2)
    got = c.on_columns(Matrix.identity(2), Matrix.identity(3))
    assert got == c.matrix


def evaluated(lhs_cols, rhs_cols):
    """Two one-row sides from their column values."""
    return (Matrix(1, len(lhs_cols), lhs_cols),
            Matrix(1, len(rhs_cols), rhs_cols))


class TestRequireLaws:
    def test_violations_come_in_loop_order(self):
        # loop (i, j) over dims (2, 3); law "b" takes its args as (j, i)
        a_lhs, a_rhs = evaluated([0, 1, 0, 0, 0, 5], [0] * 6)
        b_lhs, b_rhs = evaluated([0, 0, 7, 0, 0, 0], [0, 0, 0, 0, 0, 0])
        rep = Report("x")
        rep.require_laws([
            ("a", (2, 3), a_lhs, a_rhs, None),
            ("b", (3, 2), b_lhs, b_rhs, lambda j, i: (i, j))])
        assert [(v.law, v.args) for v in rep.violations] == [
            ("a", (0, 1)), ("b", (1, 0)), ("a", (1, 2))]
        assert rep.violations[1].lhs == (7,) and rep.violations[1].rhs == (0,)

    def test_sides_are_dense_columns(self):
        lhs = Matrix(3, 2, [0, 1, Q(1, 2), 0, 0, 0])
        rep = Report("x")
        rep.require_laws([("l", (2,), lhs, Matrix(3, 2), None)])
        assert [(v.args, v.lhs, v.rhs) for v in rep.violations] == [
            ((0,), (0, Q(1, 2), 0), (0, 0, 0)), ((1,), (1, 0, 0), (0, 0, 0))]

    def test_equal_sides_and_empty_spaces_pass(self):
        rep = Report("x")
        rep.require_laws([("l", (2, 0), Matrix(2, 0), Matrix(2, 0), None),
                          ("m", (2,), Matrix.identity(2),
                           Matrix.identity(2), None)])
        assert rep.ok

    def test_appends_after_earlier_violations(self):
        rep = Report("x")
        rep.require("first", (), (1,), (0,))
        rep.require_laws([("l", (1,), *evaluated([1], [0]), None)])
        assert [v.law for v in rep.violations] == ["first", "l"]


def cochain(mod, k, fill):
    """Coordinates of the degree-k cochain with entry t equal to fill(t)."""
    return tuple(Q(fill(t)) for t in range(mod.dim * mod.over.dim ** k))


class TestHochschild:
    def test_degree0_commutative_vanishes(self):
        mod = Bimodule.adjoint(field_algebra())
        d = apply(hochschild_matrix(mod, 0), cochain(mod, 0, lambda t: 1))
        assert all(v == 0 for v in d)

    def test_zero_structure_kills_everything(self):
        mod = Bimodule.zero_actions(AssocAlgebra.zero(2), 2)
        for k in range(3):
            f = cochain(mod, k, lambda t: t + 1)
            assert all(v == 0 for v in apply(hochschild_matrix(mod, k), f))

    def test_differential_squares_to_zero(self):
        rng = random.Random(11)
        mods = [Bimodule.adjoint(dual_numbers()),
                dual_bimodule(Bimodule.adjoint(dual_numbers())),
                Bimodule.adjoint(field_algebra()),
                Bimodule.zero_actions(dual_numbers(), 2)]
        for mod in mods:
            for k in range(3):
                d1 = hochschild_matrix(mod, k)
                d2 = hochschild_matrix(mod, k + 1)
                assert (d2 * d1).is_zero()
        del rng

    def test_degree_mismatch_raises(self):
        # over the dual numbers degrees 0 and 1 have 2 and 4 coordinates
        mod = Bimodule.adjoint(dual_numbers())
        with pytest.raises(ValueError):
            apply(hochschild_matrix(mod, 1), cochain(mod, 0, lambda t: 1))


class TestHochschildCohomology:
    def test_zero_structure_dims11_k2(self):
        mod = Bimodule.zero_actions(AssocAlgebra.zero(1), 1)
        assert hochschild_cohomology_dims(mod, 2)[2] == 1

    def test_field_adjoint_k1(self):
        assert hochschild_cohomology_dims(Bimodule.adjoint(field_algebra()),
                                          1)[1] == 0

    def test_center_of_commutative(self):
        mod = Bimodule.adjoint(dual_numbers())
        assert hochschild_cohomology_dims(mod, 0) == [2]


def succ_only():
    z = StructureConstants.zero(1, 1, 1)
    return DendriformAlgebra(1, z, sc(1, 1, 1, {(0, 0, 0): 1}))


class TestDendriform:
    def test_zero_passes(self):
        den = zero_dendriform(2)
        assert check_dendriform(den).ok
        assert total_algebra(den).mu.is_zero()

    def test_succ_only_field(self):
        den = succ_only()
        assert check_dendriform(den).ok
        assert nested(total_algebra(den).mu)[0][0][0] == 1
        assert check_associativity(total_algebra(den)).ok

    def test_equal_products_fail_first_axiom(self):
        m = sc(1, 1, 1, {(0, 0, 0): 1})
        rep = check_dendriform(DendriformAlgebra(1, m, m))
        assert not rep.ok
        assert any(v.law == "axiom1" for v in rep.violations)


class TestDendriformRepresentation:
    def test_adjoint_passes(self):
        for den in (succ_only(), zero_dendriform(2)):
            assert check_dendriform(den).ok
            assert check_dendriform_representation(
                DendriformRepresentation.adjoint(den)).ok

    def test_zero_rep_passes(self):
        assert check_dendriform_representation(
            zero_dendriform_rep(succ_only(), 2)).ok

    def test_doubled_succ_action_fails(self):
        den = succ_only()
        rep = DendriformRepresentation(
            den, 1, den.prec, sc(1, 1, 1, {(0, 0, 0): 2}),
            den.prec, den.succ)
        assert not check_dendriform_representation(rep).ok


class TestLinearMap:
    def test_shape_enforced(self):
        with pytest.raises(ShapeError):
            LinearMap(2, 3, Matrix.zero(2, 2))
        m = Matrix.zero(3, 2)
        assert LinearMap(2, 3, m) is m


# Each guard was an assert, so python -O would have let the bad shape through.
@pytest.mark.parametrize("call", [
    lambda: bilinear(StructureConstants.zero(1, 1, 1), (Q(1), Q(1)), (Q(1),)),
    lambda: (StructureConstants.zero(1, 1, 1)
             + StructureConstants.zero(2, 1, 1)),
    lambda: AssocAlgebra(2, StructureConstants.zero(2, 2, 2), ("e0",)),
    lambda: Bimodule(field_algebra(), 2, StructureConstants.zero(1, 2, 2),
                     StructureConstants.zero(2, 1, 2), ("m0",)),
    lambda: hochschild_matrix(Bimodule.adjoint(field_algebra()), -1),
], ids=["call-length", "add-shape", "algebra-names",
        "bimodule-names", "negative-degree"])
def test_shape_guards_raise(call):
    with pytest.raises(ShapeError):
        call()
