"""Relative Rota-Baxter layer: operator checks, lifts, dendriform, r-matrices."""

import random

from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, check_associativity, check_bimodule,
    check_dendriform,
)
from rotabaxter.linalg import Matrix, Q
from rotabaxter.rrb import (
    RelativeRBAlgebra, RMatrix, RRBMorphism, aybe_check, check_morphism,
    check_relative_rb, endomorphism_rrb, induced_dendriform, lift_to_rb,
    rb_from_r_matrix,
)
from rotabaxter.rrb_modules import (
    check_operator_identities, rb_bimodule_from_r_matrix,
)
from helpers import (
    at, dual_numbers, field_adjoint_rrb, field_algebra, identity_morphism,
    linmap, zero_rrb,
)


class TestCheckRelativeRB:
    def test_zero_operator_passes(self):
        for alg in (field_algebra(), dual_numbers()):
            x = RelativeRBAlgebra.zero_operator(Bimodule.adjoint(alg))
            assert check_relative_rb(x).ok

    def test_identity_on_field_fails(self):
        # R = id on the adjoint of k: lhs = e, rhs = R(2e) = 2e
        x = RelativeRBAlgebra(field_algebra(),
                              Bimodule.adjoint(field_algebra()),
                              Matrix.identity(1))
        rep = check_relative_rb(x)
        assert not rep.ok
        assert rep.violations[0].lhs == (1,)
        assert rep.violations[0].rhs == (2,)

    def test_zero_structure_any_operator_passes(self):
        alg = AssocAlgebra.zero(2)
        mod = Bimodule.zero_actions(alg, 2)
        rop = linmap([[1, 2], [3, 4]])
        assert check_relative_rb(RelativeRBAlgebra(alg, mod, rop)).ok


class TestMorphism:
    def test_identity_passes(self):
        x = field_adjoint_rrb()
        assert check_morphism(identity_morphism(x)).ok

    def test_zero_maps_pass(self):
        x, y = field_adjoint_rrb(), zero_rrb(1, 1)
        mor = RRBMorphism(x, y, Matrix.zero(1, 1), Matrix.zero(1, 1))
        assert check_morphism(mor).ok

    def test_scaled_phi_fails_algebra_condition(self):
        x = field_adjoint_rrb()
        mor = RRBMorphism(x, x, linmap([[2]]), Matrix.identity(1))
        rep = check_morphism(mor)
        assert not rep.ok
        assert rep.violations[0].law == "algebra_morphism"


class TestLift:
    def test_zero_operator_lifts_to_zero(self):
        xhat = lift_to_rb(field_adjoint_rrb())
        assert xhat.rop.is_zero()
        assert check_relative_rb(xhat).ok

    def test_lifted_block_pattern(self):
        x = RelativeRBAlgebra(field_algebra(),
                              Bimodule.adjoint(field_algebra()),
                              linmap([[5]]))
        rhat = lift_to_rb(x).rop
        # R(m) sits in the algebra-row, module-column block
        assert at(rhat, 0, 1) == 5
        assert at(rhat, 0, 0) == 0
        assert at(rhat, 1, 0) == 0 and at(rhat, 1, 1) == 0

    def test_broken_operator_breaks_lift(self):
        x = RelativeRBAlgebra(field_algebra(),
                              Bimodule.adjoint(field_algebra()),
                              Matrix.identity(1))
        assert not check_relative_rb(x).ok
        assert not check_relative_rb(lift_to_rb(x)).ok

    def test_iff_both_directions(self):
        passing = [field_adjoint_rrb(), zero_rrb(2, 2)]
        for x in passing:
            assert check_relative_rb(x).ok
            assert check_relative_rb(lift_to_rb(x)).ok


class TestInducedDendriform:
    def test_zero_operator_gives_zero_dendriform(self):
        den, mtot, rep = induced_dendriform(field_adjoint_rrb())
        assert den.prec.is_zero() and den.succ.is_zero()
        assert mtot.mu.is_zero()
        assert rep.ok

    def test_zero_structure(self):
        den, _, rep = induced_dendriform(zero_rrb(2, 2))
        assert den.prec.is_zero() and den.succ.is_zero() and rep.ok

    def test_axioms_and_morphism_on_endomorphism_fixture(self):
        x = endomorphism_rrb(linmap([[1, 0]]))
        assert check_relative_rb(x).ok
        den, mtot, rep = induced_dendriform(x)
        assert check_dendriform(den).ok
        assert check_associativity(mtot).ok
        assert rep.ok


class TestAYBE:
    def test_zero_r_matrix(self):
        r = RMatrix(dual_numbers(), Matrix.zero(2, 2))
        assert aybe_check(r).ok
        assert rb_from_r_matrix(r).rop.is_zero()

    def test_x_tensor_x_passes(self):
        r = RMatrix(dual_numbers(), linmap([[0, 0], [0, 1]]))  # x (x) x
        assert aybe_check(r).ok
        x = rb_from_r_matrix(r)
        assert x.rop.is_zero()  # x.a.x always hits x^2 = 0
        assert check_relative_rb(x).ok
        b = rb_bimodule_from_r_matrix(r, Bimodule.adjoint(x.algebra))
        assert check_operator_identities(b).ok

    def test_one_tensor_one_fails_at_coordinate(self):
        r = RMatrix(dual_numbers(), linmap([[1, 0], [0, 0]]))  # 1 (x) 1
        rep = aybe_check(r)
        assert not rep.ok
        v = rep.violations[0]
        assert v.args == (0, 0, 0)
        assert v.lhs == (1,)


class TestEndomorphismRRB:
    def test_zero_differential_dims_1_1(self):
        x = endomorphism_rrb(Matrix.zero(1, 1))
        assert x.algebra.dim == 2  # all pairs (f0, f1)
        assert x.module.dim == 1   # Hom(A0, ker d) = Hom(k, k)
        assert x.rop.is_zero()
        assert check_relative_rb(x).ok

    def test_identity_differential_dims_1_1(self):
        x = endomorphism_rrb(Matrix.identity(1))
        assert x.algebra.dim == 1  # f0 = f1
        assert x.module.dim == 0   # ker d = 0
        assert check_relative_rb(x).ok

    def test_injective_differential_dims_2_1(self):
        x = endomorphism_rrb(linmap([[1], [0]]))
        assert x.algebra.dim == 3
        assert x.module.dim == 0
        assert check_relative_rb(x).ok

    def test_surjective_differential_has_nonzero_operator(self):
        x = endomorphism_rrb(linmap([[1, 0]]))
        assert x.algebra.dim == 3
        assert x.module.dim == 1
        assert not x.rop.is_zero()
        assert check_relative_rb(x).ok
        assert check_associativity(x.algebra).ok
        assert check_bimodule(x.module).ok

    def test_random_small_complexes_pass(self):
        rng = random.Random(2024)
        for _ in range(12):
            d0 = rng.randint(1, 3)
            d1 = rng.randint(1, 3)
            d = Matrix(d0, d1,
                       [Q(rng.randint(-2, 2)) for _ in range(d0 * d1)])
            x = endomorphism_rrb(d)
            assert check_associativity(x.algebra).ok
            assert check_bimodule(x.module).ok
            assert check_relative_rb(x).ok
