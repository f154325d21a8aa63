"""Relative Rota-Baxter algebras and their basic constructions.

A relative Rota-Baxter algebra is a triple (A, M, R): an associative algebra
A, an A-bimodule M, and a linear operator R: M -> A satisfying

    R(m) . R(m') = R( R(m) . m' + m . R(m') )

(weight zero).  This module provides the axiom checks, the lift of R to a
Rota-Baxter operator on the semidirect product A (+) M, the induced dendriform
structure on M, the r-matrix (associative Yang-Baxter) constructions, and the
endomorphism example built from a 2-term chain complex.
"""

from __future__ import annotations

from .algebra import (
    AssocAlgebra, Bimodule, DendriformAlgebra, Report, ShapeError,
    StructuralError, StructureConstants, semidirect_algebra, total_algebra,
)
from .linalg import (
    Matrix, Product, assemble_terms, bilinear_on_columns, kernel_basis, kron,
    padded, paste, solve_columns, stacked,
)


class RelativeRBAlgebra:
    """(A, M, R): algebra, bimodule, and the operator R: M -> A."""

    __slots__ = ("algebra", "module", "rop")

    def __init__(self, algebra, module, rop):
        if module.over is not algebra and module.over.mu != algebra.mu:
            raise ShapeError("module is not over the given algebra")
        if rop.cols != module.dim or rop.rows != algebra.dim:
            raise ShapeError("operator must map the module into the algebra")
        self.algebra = algebra
        self.module = module
        self.rop = rop

    @staticmethod
    def zero_operator(module):
        return RelativeRBAlgebra(module.over, module,
                                 Matrix.zero(module.over.dim, module.dim))


class RRBMorphism:
    """(phi, psi) between relative Rota-Baxter algebras."""

    __slots__ = ("source", "target", "phi", "psi")

    def __init__(self, source, target, phi, psi):
        if phi.cols != source.algebra.dim or \
                phi.rows != target.algebra.dim:
            raise ShapeError("phi must map source algebra to target algebra")
        if psi.cols != source.module.dim or \
                psi.rows != target.module.dim:
            raise ShapeError("psi must map source module to target module")
        self.source = source
        self.target = target
        self.phi = phi
        self.psi = psi

    @staticmethod
    def identity(x):
        return RRBMorphism(x, x, Matrix.identity(x.algebra.dim),
                           Matrix.identity(x.module.dim))


class RMatrix:
    """Element r = sum r[i][j] e_i (x) e_j of A (x) A, held as the
    dim A x dim A Matrix whose entry (i, j) is r[i][j]."""

    __slots__ = ("over", "matrix")

    def __init__(self, over, matrix):
        if matrix.rows != over.dim or matrix.cols != over.dim:
            raise ShapeError("r-matrix tensor must be dimA x dimA")
        self.over = over
        self.matrix = matrix


class TwoTermComplex:
    """A 2-term chain complex A_1 -> A_0 (no condition beyond shapes)."""

    __slots__ = ("dim0", "dim1", "d")

    def __init__(self, dim0, dim1, d):
        if d.cols != dim1 or d.rows != dim0:
            raise ShapeError("differential must map degree 1 to degree 0")
        self.dim0 = dim0
        self.dim1 = dim1
        self.d = d


def check_relative_rb(x):
    """The relative Rota-Baxter identity on all basis pairs of M."""
    rep = Report("relative_rota_baxter")
    mod, r = x.module, x.rop
    ident = Matrix.identity(mod.dim)
    rep.require_laws([("rrb_identity", (mod.dim,) * 2,
                       x.algebra.mu.on_columns(r, r),
                       r * (mod.left.on_columns(r, ident) +
                            mod.right.on_columns(ident, r)), None)])
    return rep


def check_rota_baxter(alg, rop):
    """The (plain) Rota-Baxter identity of an operator A -> A."""
    if rop.cols != alg.dim or rop.rows != alg.dim:
        raise ShapeError("Rota-Baxter operator must be an endomorphism")
    return check_relative_rb(
        RelativeRBAlgebra(alg, Bimodule.adjoint(alg), rop))


def check_morphism(mor):
    """The four morphism conditions, reported in order of first failure."""
    rep = Report("rrb_morphism")
    src, tgt = mor.source, mor.target
    phi, psi = mor.phi, mor.psi
    dA, dM = src.algebra.dim, src.module.dim
    rep.require_laws([("algebra_morphism", (dA, dA),
                       phi * src.algebra.mu.matrix,
                       tgt.algebra.mu.on_columns(phi, phi), None)])
    rep.require_laws([
        ("left_action_intertwine", (dA, dM), psi * src.module.left.matrix,
         tgt.module.left.on_columns(phi, psi), None),
        ("right_action_intertwine", (dM, dA), psi * src.module.right.matrix,
         tgt.module.right.on_columns(psi, phi), lambda u, i: (i, u))])
    rep.require_laws([("operator_intertwine", (dM,), phi * src.rop,
                       tgt.rop * psi, None)])
    return rep


def lift_to_rb(x):
    """Lift R to the operator (a, m) -> (R(m), 0) on A (+) M.

    Returns the semidirect product algebra and the lifted operator; the
    operator satisfies the Rota-Baxter identity exactly when x passes
    check_relative_rb.
    """
    total = semidirect_algebra(x.module)
    n = total.dim
    return total, paste(Matrix(n, n), x.rop, 0, x.algebra.dim)


def induced_dendriform_algebra(x):
    """Dendriform structure m < m' = m.R(m'), m > m' = R(m).m' on M."""
    mod, r = x.module, x.rop
    dM = mod.dim
    im = Matrix.identity(dM)
    prec = StructureConstants(dM, dM, mod.right.on_columns(im, r))
    succ = StructureConstants(dM, dM, mod.left.on_columns(r, im))
    return DendriformAlgebra(dM, prec, succ, mod.basis_names)


def induced_dendriform(x):
    """The induced dendriform structure on M, checked.

    Returns (dendriform algebra, its total associative algebra M_Tot, report
    checking that R: M_Tot -> A is an algebra morphism).
    """
    den = induced_dendriform_algebra(x)
    mtot = total_algebra(den)
    r, dM = x.rop, den.dim
    rep = Report("total_operator_is_algebra_morphism")
    rep.require_laws([("R_multiplicative", (dM, dM), r * mtot.mu.matrix,
                       x.algebra.mu.on_columns(r, r), None)])
    return den, mtot, rep


def aybe_check(r):
    """Associative Yang-Baxter equation, coordinatewise in A (x) A (x) A.

    With r = sum r[i][j] e_i (x) e_j and a second copy indexed (p, q):
      r13 r12 = (e_i e_p) (x) e_q (x) e_j
      r12 r23 = e_i (x) (e_j e_p) (x) e_q
      r23 r13 = e_i (x) e_p (x) (e_q e_j)
    and the equation is r13 r12 - r12 r23 + r23 r13 = 0.  With t the
    matrix of r, each term is one product mu.on_columns(X, Y), X and Y
    each t or its transpose: its entry (s, x d + y) is the term's
    coordinate whose index weighs s, x and y by the strides below.  Their
    sum is checked as one law whose d^3 columns are the coordinates
    (a, b, c), against 0.
    """
    mu, d, t = r.over.mu, r.over.dim, r.matrix
    tt, dd = t.transpose(), d * d
    total = {}
    for sign, x_side, y_side, (ws, wx, wy) in (
            (1, t, t, (dd, 1, d)),      # r13 r12 at (s, y, x)
            (-1, tt, t, (d, dd, 1)),    # r12 r23 at (x, s, y)
            (1, tt, tt, (1, d, dd))):   # r23 r13 at (y, x, s)
        for s, col, v in mu.on_columns(x_side, y_side).nonzero_items():
            x, y = divmod(col, d)
            key = 0, s * ws + x * wx + y * wy
            total[key] = total.get(key, 0) + sign * v
    rep = Report("aybe")
    rep.require_laws([("aybe_coordinate", (d, d, d),
                       Matrix.from_entries(1, d * dd, total),
                       Matrix(1, d * dd), None)])
    return rep


def _sandwich_weights(r, n):
    """The weights that sum e_i . v . e_j into sum r[i][j] e_i . v . e_j:
    r[i][j] at row (i * n + v) * d + j, column v, for v among n basis
    vectors and d = dim A."""
    d = r.over.dim
    return Matrix.from_entries(d * n * d, n, {
        ((i * n + v) * d + j, v): rij
        for i, j, rij in r.matrix.nonzero_items() for v in range(n)})


def rb_from_r_matrix(r):
    """The Rota-Baxter operator R(a) = sum r[i][j] e_i . a . e_j."""
    alg, d = r.over, r.over.dim
    sandwiches = alg.mu.on_columns(alg.mu.matrix, Matrix.identity(d))
    return alg, sandwiches * _sandwich_weights(r, d)


def rb_bimodule_from_r_matrix(r, mod):
    """The induced operator R_M(m) = sum r[i][j] e_i . m . e_j on a bimodule."""
    if mod.over.mu != r.over.mu:
        raise ShapeError("bimodule must be over the r-matrix algebra")
    sandwiches = mod.right.on_columns(mod.left.matrix,
                                      Matrix.identity(r.over.dim))
    return sandwiches * _sandwich_weights(r, mod.dim)


class RBBimodulePair:
    """(M, R_M) over a Rota-Baxter algebra (A, R)."""

    __slots__ = ("algebra", "rop", "module", "mop")

    def __init__(self, algebra, rop, module, mop):
        if mop.cols != module.dim or mop.rows != module.dim:
            raise ShapeError("module operator must be an endomorphism of M")
        if rop.cols != algebra.dim or rop.rows != algebra.dim:
            raise ShapeError("algebra operator must be an endomorphism of A")
        self.algebra = algebra
        self.rop = rop
        self.module = module
        self.mop = mop


def check_rb_bimodule(pair):
    """The two Rota-Baxter bimodule identities on basis pairs:

      R(a) . R_M(m) = R_M( R(a) . m + a . R_M(m) )
      R_M(m) . R(a) = R_M( R_M(m) . a + m . R(a) )
    """
    rep = Report("rb_bimodule")
    left, right = pair.module.left, pair.module.right
    ra, rm = pair.rop, pair.mop
    dA, dM = pair.algebra.dim, pair.module.dim
    ia, im = Matrix.identity(dA), Matrix.identity(dM)
    rep.require_laws([
        ("rb_bimodule_left", (dA, dM), left.on_columns(ra, rm),
         rm * (left.on_columns(ra, im) + left.on_columns(ia, rm)), None),
        ("rb_bimodule_right", (dM, dA), right.on_columns(rm, ra),
         rm * (right.on_columns(rm, ia) + right.on_columns(im, ra)),
         lambda u, i: (i, u))])
    return rep


def _product_tensor(a, b, c):
    """The matrix of (X, Y) -> X Y on a x b matrices X and b x c matrices
    Y, in row-major coordinates: kron(I_a, vec(I_b)^T, I_c)."""
    return padded(a, stacked([Matrix.identity(b)]).transpose(), c)


def endomorphism_rrb(cx):
    """The relative Rota-Baxter algebra of a 2-term complex A_1 -> A_0.

    A = End(complex) = {(f_0, f_1) : f_0 d = d f_1} with composition;
    M = Hom(A_0, ker d) with (f_0, f_1) . phi = f_1 phi and
    phi . (f_0, f_1) = phi f_0; R(phi) = (0, phi d).

    The basis of A is the deterministic kernel basis of the chain-map
    condition (f_0 coordinates row-major, then f_1); the basis of M is
    k_s (x) e_j^* over the kernel basis (k_s) of d, ordered (s, j).
    """
    d0, d1 = cx.dim0, cx.dim1
    d = cx.d  # d0 x d1
    nvars = d0 * d0 + d1 * d1
    # the chain-map condition f_0 d - d f_1 = 0
    kmat = kernel_basis(assemble_terms(
        [(1, 0, 0, Product(None, d)),
         (-1, 1, 0, Product(d, Matrix.identity(d1)))],
        [(d0, d0), (d1, d1)], [(d0, d1)]))
    n = kmat.cols
    # column i: f_0 and f_1 of basis vector i, row-major
    f0s = paste(Matrix(d0 * d0, nvars), Matrix.identity(d0 * d0)) * kmat
    f1s = paste(Matrix(d1 * d1, nvars), Matrix.identity(d1 * d1),
                0, d0 * d0) * kmat

    def coords(basis, values, what):
        """The coordinates of each column of values in the columns of
        basis, from one elimination."""
        x, bad = solve_columns(basis, values)
        if bad:
            raise StructuralError(what)
        return x

    # column (a, b): the composite of basis vectors a and b
    products = paste(
        paste(Matrix(nvars, n * n),
              bilinear_on_columns(_product_tensor(d0, d0, d0), f0s, f0s)),
        bilinear_on_columns(_product_tensor(d1, d1, d1), f1s, f1s), d0 * d0)
    alg = AssocAlgebra(n, StructureConstants(
        n, n, coords(kmat, products, "vector is not a chain map")))

    kd = kernel_basis(d)
    rM = kd.cols
    # the f_1 kd[s] in ker d, in the basis kd, by (i, s)
    imgs = coords(
        kd, bilinear_on_columns(_product_tensor(d1, d1, 1), f1s, kd),
        "vector is not in ker d")
    # column (j0, i): row j0 of f_0 of basis vector i
    rows_f0 = bilinear_on_columns(_product_tensor(1, d0, d0),
                                  Matrix.identity(d0), f0s)
    mod = Bimodule(alg, rM * d0,
                   StructureConstants(n, rM * d0,
                                      kron(imgs, Matrix.identity(d0))),
                   StructureConstants(rM * d0, n,
                                      kron(Matrix.identity(rM), rows_f0)))

    # R(k_s (x) e_j^*) = (0, k_s (x) (row j of d))
    rop = coords(kmat, paste(Matrix(nvars, rM * d0), kron(kd, d.transpose()),
                             d0 * d0),
                 "vector is not a chain map")
    return RelativeRBAlgebra(alg, mod, rop)
