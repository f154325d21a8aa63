"""Seeded generators for structures, bimodules, and cochains.

The property-style tests and the benchmark need a stream of structures
that provably satisfy their defining identities while still exercising
generic entries.  No other module of the package imports this one, so
no command draws random input.  The recipe: keep a
small catalog of hand-built examples, then push each one through a
random invertible change of basis.  A change of basis preserves every
identity on the nose (the checks are exact, so this matters), and the
transported structure constants look suitably arbitrary.

Every public generator accepts either an int seed or a
``random.Random`` instance; equal seeds give equal output.
"""

from __future__ import annotations

from random import Random

from .algebra import AssocAlgebra, Bimodule, StructureConstants
from .cohomology import RRBCochain, cochain_space_dims, rrb_differential_matrix
from .linalg import Matrix, Q, inverse, kernel_basis
from .rrb import (
    RMatrix, RelativeRBAlgebra, endomorphism_rrb, rb_from_r_matrix,
)
from .rrb_modules import (
    RRBBimodule, adjoint_bimodule, coadjoint_bimodule, semidirect_rrb,
)

ZERO = Q(0)
ONE = Q(1)


def _rng(seed):
    return seed if isinstance(seed, Random) else Random(seed)


def _sc(dim_left, dim_right, dim_out, entries):
    return StructureConstants(dim_left, dim_right, Matrix.from_entries(
        dim_out, dim_left * dim_right,
        {(k, i * dim_right + j): val for (i, j, k), val in entries.items()}))


def random_rational(rng, span=4):
    """Small rational with denominator 1, 2 or 3; zero included."""
    return Q(rng.randint(-span, span), rng.choice((1, 1, 1, 2, 3)))


def random_nonzero_rational(rng, span=4):
    q = random_rational(rng, span)
    return q if q else ONE


def random_matrix(rng, rows, cols, density=0.6, span=4):
    if rows == 0 or cols == 0:
        return Matrix.zero(rows, cols)
    return Matrix.from_rows(
        [[random_rational(rng, span) if rng.random() < density else ZERO
          for _ in range(cols)] for _ in range(rows)])


def random_constants(rng, dim_left, dim_right, dim_out, density=0.5, span=3):
    entries = {}
    # draws run i, then j, then k: every sample built on these depends on it
    for t in range(dim_left * dim_right):
        for k in range(dim_out):
            if rng.random() < density:
                entries[k, t] = random_rational(rng, span)
    return StructureConstants(dim_left, dim_right, Matrix.from_entries(
        dim_out, dim_left * dim_right, entries))


def random_invertible(rng, n, steps=None):
    """Invertible n x n map built from elementary row operations."""
    if n == 0:
        return Matrix.zero(0, 0)
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    if steps is None:
        steps = 2 * n + 2
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0:
            c = Q(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2, 3)))
            rows[i] = [c * v for v in rows[i]]
        elif op == 1 and i != j:
            c = random_rational(rng, 3)
            rows[i] = [u + c * v for u, v in zip(rows[i], rows[j])]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return Matrix.from_rows(rows)


def _inv(p):
    m = inverse(p)
    if m is None:
        raise ValueError("change of basis must be invertible")
    return m


def transport_bilinear(c, f, g, h_inv):
    """Constants of h^-1 . c . (f (x) g) on the new bases."""
    return StructureConstants(f.cols, g.cols, h_inv * c.on_columns(f, g))


def transport_rrb(x, p, q):
    """Move (A, M, R) to new bases, p : A' -> A and q : M' -> M."""
    p_inv, q_inv = _inv(p), _inv(q)
    alg = AssocAlgebra(x.algebra.dim,
                       transport_bilinear(x.algebra.mu, p, p, p_inv))
    mod = Bimodule(alg, x.module.dim,
                   transport_bilinear(x.module.left, p, q, q_inv),
                   transport_bilinear(x.module.right, q, p, q_inv))
    return RelativeRBAlgebra(alg, mod, p_inv * x.rop * q)


def transport_bimodule(b, x_new, p, q, u, v):
    """Matching move of (S : N -> B, l, r); u : B' -> B and v : N' -> N.

    p and q must be the maps already used to produce x_new, or the
    pairing identities break.
    """
    u_inv, v_inv = _inv(u), _inv(v)
    alg = x_new.algebra
    base = Bimodule(alg, b.base.dim,
                    transport_bilinear(b.base.left, p, u, u_inv),
                    transport_bilinear(b.base.right, u, p, u_inv))
    fiber = Bimodule(alg, b.fiber.dim,
                     transport_bilinear(b.fiber.left, p, v, v_inv),
                     transport_bilinear(b.fiber.right, v, p, v_inv))
    return RRBBimodule(x_new, base, fiber,
                       u_inv * b.sop * v,
                       transport_bilinear(b.left_pair, q, u, v_inv),
                       transport_bilinear(b.right_pair, u, q, v_inv))


def random_transport_pair(rng, x, b):
    rng = _rng(rng)
    p = random_invertible(rng, x.algebra.dim)
    q = random_invertible(rng, x.module.dim)
    u = random_invertible(rng, b.base.dim)
    v = random_invertible(rng, b.fiber.dim)
    x_new = transport_rrb(x, p, q)
    return x_new, transport_bimodule(b, x_new, p, q, u, v)


def _field():
    return AssocAlgebra(1, _sc(1, 1, 1, {(0, 0, 0): 1}))


def _square_zero_ext():
    # basis 1, t with t^2 = 0
    return AssocAlgebra(2, _sc(2, 2, 2, {
        (0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}))


def _truncated_poly():
    # basis 1, t, t^2 with t^3 = 0
    return AssocAlgebra(3, _sc(3, 3, 3, {
        (0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
        (0, 2, 2): 1, (2, 0, 2): 1, (1, 1, 2): 1}))


def _adjoint_with(alg, rop_rows):
    return RelativeRBAlgebra(alg, Bimodule.adjoint(alg),
                             Matrix.from_rows(rop_rows))


def catalog_rrb(rng):
    """Hand-built structures passing the defining identity.

    A few entries consume randomness (dimensions, operator entries), so
    the list itself is seed-dependent.  Dimensions stay at or below 3 so
    downstream cochain spaces stay small.
    """
    rng = _rng(rng)
    out = []

    # zero multiplication and actions: any operator works
    dim_a = rng.randint(1, 3)
    dim_m = rng.randint(1, 3)
    zero_alg = AssocAlgebra.zero(dim_a)
    out.append(RelativeRBAlgebra(
        zero_alg, Bimodule.zero_actions(zero_alg, dim_m),
        random_matrix(rng, dim_a, dim_m)))

    # the ground field on itself; only the zero operator passes here
    field = _field()
    out.append(RelativeRBAlgebra.zero_operator(Bimodule.adjoint(field)))

    # rank-one module with a one-sided action and the identity operator
    one_sided = RelativeRBAlgebra(
        field,
        Bimodule(field, 1, StructureConstants.zero(1, 1, 1),
                 _sc(1, 1, 1, {(0, 0, 0): 1})),
        Matrix.identity(1))
    out.append(one_sided)

    # square-zero extension, operator 1 -> c t, t -> 0 (any scale works)
    c = random_nonzero_rational(rng, 3)
    out.append(_adjoint_with(_square_zero_ext(),
                             [[ZERO, ZERO], [c, ZERO]]))

    # truncated polynomials with exact integration t^i -> t^(i+1)/(i+1)
    out.append(_adjoint_with(_truncated_poly(),
                             [[ZERO, ZERO, ZERO],
                              [ONE, ZERO, ZERO],
                              [ZERO, Q(1, 2), ZERO]]))

    # operator coming from the tensor t (x) t, a solution of the
    # associative Yang-Baxter equation over the square-zero extension
    out.append(rb_from_r_matrix(
        RMatrix(_square_zero_ext(), Matrix(2, 2, (0, 0, 0, 1)))))

    # semidirect sum collapses a bimodule into a new passing structure
    out.append(semidirect_rrb(adjoint_bimodule(one_sided)))

    # endomorphisms of a random 2-term complex of lines; an invertible
    # differential leaves the module zero-dimensional, a welcome edge case
    out.append(endomorphism_rrb(random_matrix(rng, 1, 1, density=0.5,
                                              span=2)))

    return out


def catalog_bimodules(rng, x):
    """Bimodules over x passing all eight identities."""
    rng = _rng(rng)
    out = [adjoint_bimodule(x), coadjoint_bimodule(x)]
    dim_b = rng.randint(1, 2)
    dim_n = rng.randint(1, 2)
    out.append(RRBBimodule.zero(x, dim_b, dim_n))

    # zero actions and zero pairings leave every identity with both
    # sides zero, so any complex map works, over any structure
    alg = x.algebra
    out.append(RRBBimodule(
        x, Bimodule.zero_actions(alg, dim_b),
        Bimodule.zero_actions(alg, dim_n),
        random_matrix(rng, dim_b, dim_n),
        StructureConstants.zero(x.module.dim, dim_b, dim_n),
        StructureConstants.zero(dim_b, x.module.dim, dim_n)))

    # dually, with a zero complex map any pairings work, but only when
    # the module actions of x vanish too (they feed the pairing laws)
    if x.algebra.mu.is_zero() and x.module.left.is_zero() \
            and x.module.right.is_zero():
        out.append(RRBBimodule(
            x, Bimodule.zero_actions(alg, dim_b),
            Bimodule.zero_actions(alg, dim_n),
            Matrix.zero(dim_b, dim_n),
            random_constants(rng, x.module.dim, dim_b, dim_n),
            random_constants(rng, dim_b, x.module.dim, dim_n)))
    return out


def random_rrb_pair(seed=0, transport=True):
    """A structure plus a bimodule over it, both passing their checks."""
    rng = _rng(seed)
    x = rng.choice(catalog_rrb(rng))
    b = rng.choice(catalog_bimodules(rng, x))
    if transport:
        return random_transport_pair(rng, x, b)
    return x, b


def operator_break_pair(seed=0):
    """A bimodule violating exactly one operator identity, plus its law name.

    Start from an everything-zero structure whose complex map is the
    identity, then switch on a single pairing entry.  The six pairing
    identities stay vacuous (every action is zero), so the lift to the
    semidirect algebra remains constructible, while the switched entry
    feeds one side of exactly one operator identity.
    """
    rng = _rng(seed)
    dim_a = rng.randint(1, 2)
    dim_m = rng.randint(1, 3)
    dim = rng.randint(1, 3)  # base and fiber share it: the map is id
    alg = AssocAlgebra.zero(dim_a)
    x = RelativeRBAlgebra.zero_operator(Bimodule.zero_actions(alg, dim_m))
    u0 = rng.randrange(dim_m)
    w0 = rng.randrange(dim)
    v0 = rng.randrange(dim)
    val = random_nonzero_rational(rng, 3)
    lp = StructureConstants.zero(dim_m, dim, dim)
    rp = StructureConstants.zero(dim, dim_m, dim)
    if rng.random() < 0.5:
        lp = _sc(dim_m, dim, dim, {(u0, w0, v0): val})
        law = "operator_left"
    else:
        rp = _sc(dim, dim_m, dim, {(w0, u0, v0): val})
        law = "operator_right"
    b = RRBBimodule(x, Bimodule.zero_actions(alg, dim),
                    Bimodule.zero_actions(alg, dim),
                    Matrix.identity(dim), lp, rp)
    return b, law


def bump_constants(c, where, delta=ONE):
    """Copy of structure constants with entry (i, j, k) shifted by delta."""
    i, j, k = where
    return StructureConstants(c.dim_left, c.dim_right, bump_map(
        c.matrix, (k, i * c.dim_right + j), delta))


def bump_map(m, where, delta=ONE):
    """Copy of a linear map with entry (row, col) shifted by delta."""
    return m + Matrix.from_entries(m.rows, m.cols, {tuple(where): Q(delta)})


def random_rrb_cochain(seed, x, b, k, density=0.7, span=3):
    """Random degree-k cochain over (x, b)."""
    rng = _rng(seed)
    total = sum(cochain_space_dims(x, b, k))
    vec = tuple(random_rational(rng, span) if rng.random() < density else ZERO
                for _ in range(total))
    return RRBCochain.of_column(x, b, k, Matrix(total, 1, vec))


def random_rrb_cocycle(seed, x, b, k):
    """Random kernel element of the degree-k differential, or None."""
    rng = _rng(seed)
    basis = kernel_basis(rrb_differential_matrix(x, b, k))
    if not basis.cols:
        return None
    coeffs = [random_rational(rng, 3) for _ in range(basis.cols)]
    if not any(coeffs):
        coeffs[rng.randrange(len(coeffs))] = ONE
    return RRBCochain.of_column(x, b, k,
                                basis * Matrix(basis.cols, 1, coeffs))
