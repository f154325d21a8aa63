"""Relative Rota-Baxter algebras and their basic constructions.

A relative Rota-Baxter algebra is a triple (A, M, R): an associative algebra
A, an A-bimodule M, and a linear operator R: M -> A satisfying

    R(m) . R(m') = R( R(m) . m' + m . R(m') )

(weight zero).  A Rota-Baxter algebra (A, R) is the relative one (A, A, R)
over the adjoint bimodule; no other representation of it is kept.  This
module provides the axiom checks, the lift of R to a Rota-Baxter operator on
the semidirect product A (+) M, the induced dendriform structure on M, the
r-matrix (associative Yang-Baxter) constructions, and the endomorphism
example built from a 2-term chain complex, given as its differential.
"""

from __future__ import annotations

from .algebra import (
    AssocAlgebra, Bimodule, DendriformAlgebra, Report, ShapeError,
    StructureConstants, semidirect_algebra, solve_or_raise, total_algebra,
)
from .linalg import (
    Matrix, Product, assemble_terms, bilinear_on_columns, kernel_basis, kron,
    stacked_row,
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


class RMatrix:
    """Element r = sum r[i][j] e_i (x) e_j of A (x) A, held as the
    dim A x dim A Matrix whose entry (i, j) is r[i][j]."""

    __slots__ = ("over", "matrix")

    def __init__(self, over, matrix):
        if matrix.rows != over.dim or matrix.cols != over.dim:
            raise ShapeError("r-matrix tensor must be dimA x dimA")
        self.over = over
        self.matrix = matrix


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
    """The Rota-Baxter algebra (A (+) M, R-hat), R-hat(a, m) = (R(m), 0),
    as the relative one over the adjoint bimodule of A (+) M.

    R-hat satisfies the Rota-Baxter identity exactly when x passes
    check_relative_rb.
    """
    total = semidirect_algebra(x.module)
    n = total.dim
    return RelativeRBAlgebra(total, Bimodule.adjoint(total),
                             Matrix.from_blocks(
                                 n, n, [(1, x.rop, 0, x.algebra.dim)]))


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
    coordinate whose index weighs s, x and y by the strides below, to
    which Matrix.reindexed moves it.  The three moved terms are summed in
    one Matrix.from_blocks and checked as one law whose d^3 columns are
    the coordinates (a, b, c), against 0.
    """
    mu, d, t = r.over.mu, r.over.dim, r.matrix
    tt, dd = t.transpose(), d * d
    terms = []
    for sign, x_side, y_side, (ws, wx, wy) in (
            (1, t, t, (dd, 1, d)),      # r13 r12 at (s, y, x)
            (-1, tt, t, (d, dd, 1)),    # r12 r23 at (x, s, y)
            (1, tt, tt, (1, d, dd))):   # r23 r13 at (y, x, s)
        terms.append((sign, mu.on_columns(x_side, y_side).reindexed(
            1, d * dd,
            lambda s, col: (0, s * ws + col // d * wx + col % d * wy)), 0, 0))
    rep = Report("aybe")
    rep.require_laws([("aybe_coordinate", (d, d, d),
                       Matrix.from_blocks(1, d * dd, terms),
                       Matrix(1, d * dd), None)])
    return rep


def r_matrix_operator(r, mod):
    """The operator m -> sum r[i][j] e_i . m . e_j on an A-bimodule.

    With d = dim A and n = dim M, the sandwiches e_i . e_v . e_j are summed
    by the weight r[i][j] at row (i * n + v) * d + j, column v: the entries
    of kron(r, I_n), entry (i n + v, j n + v) moved there.
    """
    if mod.over.mu != r.over.mu:
        raise ShapeError("bimodule must be over the r-matrix algebra")
    d, n = r.over.dim, mod.dim
    sandwiches = mod.right.on_columns(mod.left.matrix, Matrix.identity(d))
    return sandwiches * kron(r.matrix, Matrix.identity(n)).reindexed(
        d * n * d, n, lambda a, b: (a * d + b // n, b % n))


def rb_from_r_matrix(r):
    """The Rota-Baxter algebra (A, R), R(a) = sum r[i][j] e_i . a . e_j,
    as the relative one over the adjoint bimodule."""
    adjoint = Bimodule.adjoint(r.over)
    return RelativeRBAlgebra(r.over, adjoint, r_matrix_operator(r, adjoint))


def _product_tensor(a, b, c):
    """The matrix of (X, Y) -> X Y on a x b matrices X and b x c matrices
    Y, in row-major coordinates: kron(I_a, vec(I_b)^T, I_c)."""
    ident = Matrix.identity
    return kron(kron(ident(a), stacked_row([ident(b)])), ident(c))


def endomorphism_rrb(d):
    """The relative Rota-Baxter algebra of a 2-term complex d: A_1 -> A_0.

    A = End(complex) = {(f_0, f_1) : f_0 d = d f_1} with composition;
    M = Hom(A_0, ker d) with (f_0, f_1) . phi = f_1 phi and
    phi . (f_0, f_1) = phi f_0; R(phi) = (0, phi d).

    The basis of A is the deterministic kernel basis of the chain-map
    condition (f_0 coordinates row-major, then f_1); the basis of M is
    k_s (x) e_j^* over the kernel basis (k_s) of d, ordered (s, j).
    """
    d0, d1 = d.rows, d.cols
    nvars = d0 * d0 + d1 * d1
    # the chain-map condition f_0 d - d f_1 = 0
    kmat = kernel_basis(assemble_terms(
        [(1, 0, 0, Product(None, (d,))),
         (-1, 1, 0, Product(d, (Matrix.identity(d1),)))],
        [(d0, d0), (d1, d1)], [(d0, d1)]))
    n = kmat.cols
    # column i: f_0 and f_1 of basis vector i, row-major
    f0s = Matrix.from_blocks(
        d0 * d0, nvars, [(1, Matrix.identity(d0 * d0), 0, 0)]) * kmat
    f1s = Matrix.from_blocks(
        d1 * d1, nvars, [(1, Matrix.identity(d1 * d1), 0, d0 * d0)]) * kmat

    # column (a, b): the composite of basis vectors a and b
    products = Matrix.from_blocks(nvars, n * n, (
        (1, bilinear_on_columns(_product_tensor(d0, d0, d0), f0s, f0s), 0, 0),
        (1, bilinear_on_columns(_product_tensor(d1, d1, d1), f1s, f1s),
         d0 * d0, 0)))
    alg = AssocAlgebra(n, StructureConstants(
        n, n, solve_or_raise(kmat, products, "vector is not a chain map")))

    kd = kernel_basis(d)
    rM = kd.cols
    # the f_1 kd[s] in ker d, in the basis kd, by (i, s)
    imgs = solve_or_raise(
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
    rop = solve_or_raise(kmat, Matrix.from_blocks(
        nvars, rM * d0, [(1, kron(kd, d.transpose()), d0 * d0, 0)]),
        "vector is not a chain map")
    return RelativeRBAlgebra(alg, mod, rop)
