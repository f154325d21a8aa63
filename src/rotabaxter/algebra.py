"""Associative algebras, bimodules and dendriform structures by structure constants.

All products and actions are bilinear maps c with constants c[i][j][k]:
the product of the i-th and j-th input basis vectors has k-th output
coordinate c[i][j][k].  StructureConstants is built from, and stores only,
their matrix on the flattened U (x) V, entry (k, i * dim_V + j) =
c[i][j][k]; the file layout keeps the nested c[i][j][k], which the file
parser reads straight into that matrix.  Every structure made from others
(duals, pullbacks, induced and transported structures) is a matrix
expression in these matrices; a dual rotates the tensor factors, which
only moves the matrix's integers (Matrix.reindexed).
Axioms are multilinear, so checking them on basis tuples is equivalent to
the full statement.  Every check evaluates a law on all its basis tuples
at once: each variable is an identity matrix, a bilinear map c is applied
as c.matrix * kron(X, Y) (on_columns, which builds no Kronecker product),
and the two sides become matrices whose columns are the tuples
(Report.require_laws).

Hochschild cochains of degree k are linear maps A^{(x) k} -> M, flattened
big-endian, as linalg.kron flattens: the first factor varies slowest.
Degree 0 cochains are elements of M, i.e. maps from the empty tensor
product (the base field).
The Hochschild differential is a list of terms (hochschild_terms), which
the cohomology module applies to one cochain and hochschild_matrix
assembles.

Every structure on a direct sum (semidirect products, square-zero
extensions, lifted and glued structures elsewhere) is assembled by
block_constants: the first summand's basis comes first, and each block's
integers are moved to its summands' offsets by Matrix.reindexed, with no
product and no Q built.  A linear map is its linalg.Matrix;
one on a flattened U (x) V is the matrix of a bilinear map.
"""

from __future__ import annotations

from itertools import accumulate

from .linalg import (
    Matrix, OnColumns, Product, assemble_terms, bilinear_on_columns,
    between_identities, format_rational, solve_columns,
    transposed_homology_dims,
)


class Violation:
    """One failed axiom instance: which law, at which basis tuple, both sides.

    A side is a tuple of scalars, or a str for a law whose sides are
    descriptions rather than vectors.
    """

    __slots__ = ("law", "args", "lhs", "rhs")

    def __init__(self, law, args, lhs, rhs):
        self.law = law
        self.args = tuple(args)
        self.lhs = lhs if isinstance(lhs, str) else tuple(lhs)
        self.rhs = rhs if isinstance(rhs, str) else tuple(rhs)

    def __repr__(self):
        return (f"Violation({self.law} at {self.args}: "
                f"lhs={self.lhs} rhs={self.rhs})")


def _side_text(side):
    if isinstance(side, str):
        return side
    return "(" + ", ".join(format_rational(v) for v in side) + ")"


def _side_json(side):
    if isinstance(side, str):
        return side
    return [format_rational(v) for v in side]


class Report:
    """Outcome of an axiom check: pass, or every violated basis tuple."""

    def __init__(self, subject):
        self.subject = subject
        self.violations = []

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def require(self, law, args, lhs, rhs):
        if tuple(lhs) != tuple(rhs):
            self.violations.append(Violation(law, args, lhs, rhs))

    def require_equal(self, law, lhs, rhs):
        """Require two matrices to be equal, as a law at no args whose sides
        are their dense row-major entries, built only when they differ."""
        if lhs != rhs:
            self.require(law, (), lhs.entries, rhs.entries)

    def require_laws(self, laws):
        """Require multilinear laws, each on all its basis tuples at once.

        A law is (name, dims, lhs, rhs, loop).  dims are the dimensions of
        its variables, in the order of its args; both sides are matrices
        whose column t holds the value at the basis tuple that flattens to
        t, big-endian (the first variable varies slowest).  Dense sides are
        built only for the columns that differ.  The violations of all the
        laws are appended sorted by loop(*args) (args itself when loop is
        None), then by the law's place in the list: this is the order of a
        loop over basis tuples that checks the laws one after another at
        every tuple.
        """
        found = []
        for n, (law, dims, lhs, rhs, loop) in enumerate(laws):
            if lhs == rhs:
                continue
            for t in sorted({j for _, j, _ in (lhs - rhs).nonzero_items()}):
                # t unflattened, big-endian: the last variable's index
                # is t's remainder by its dimension
                args, rest = [], t
                for d in reversed(dims):
                    rest, i = divmod(rest, d)
                    args.append(i)
                args = tuple(reversed(args))
                found.append(((args if loop is None else loop(*args), n),
                              Violation(law, args, lhs.column(t),
                                        rhs.column(t))))
        found.sort(key=lambda item: item[0])
        self.violations.extend(v for _, v in found)

    def merge(self, other):
        self.violations.extend(other.violations)
        return self

    def describe(self, label=None):
        """Text form, headed by label (default: the subject)."""
        label = self.subject if label is None else label
        if self.ok:
            return f"{label}: pass"
        lines = [f"{label}: FAIL ({len(self.violations)} violations)"]
        lines.extend(f"  {v.law} at {v.args}: lhs={_side_text(v.lhs)} "
                     f"rhs={_side_text(v.rhs)}" for v in self.violations)
        return "\n".join(lines)

    def to_json(self, label=None):
        """JSON form, named by label (default: the subject)."""
        return {"name": self.subject if label is None else label,
                "ok": self.ok,
                "violations": [
                    {"law": v.law, "args": list(v.args),
                     "lhs": _side_json(v.lhs), "rhs": _side_json(v.rhs)}
                    for v in self.violations]}


class ShapeError(ValueError):
    """Tensor or matrix dimensions inconsistent with the declared spaces."""


class StructuralError(RuntimeError):
    """An internal mathematical invariant failed: implementation bug signal."""


def solve_or_raise(m, b, message):
    """The solution x of m x = b that solve_columns gives; a column of b
    that m x cannot equal raises StructuralError(message)."""
    x, bad = solve_columns(m, b)
    if bad:
        raise StructuralError(message)
    return x


class StructureConstants:
    """Bilinear map U (x) V -> W, stored as its matrix on the flattened
    U (x) V: dim_out x (dim_left * dim_right), entry (k, i * dim_right + j)
    is c[i][j][k], the k-th coordinate of the map on basis pair (i, j)."""

    __slots__ = ("dim_left", "dim_right", "dim_out", "matrix")

    def __init__(self, dim_left, dim_right, matrix):
        if matrix.cols != dim_left * dim_right:
            raise ShapeError(f"map on dimension {matrix.cols} is not bilinear "
                             f"on {dim_left} x {dim_right}")
        self.dim_left = dim_left
        self.dim_right = dim_right
        self.dim_out = matrix.rows
        self.matrix = matrix

    @staticmethod
    def zero(dim_left, dim_right, dim_out):
        return StructureConstants(dim_left, dim_right,
                                  Matrix(dim_out, dim_left * dim_right))

    def on_columns(self, x, y):
        """The map on every pair of a column of x and a column of y.

        Column s * y.cols + t of the result is self(x column s, y column t),
        so identity arguments give the values on all basis pairs.  It is
        self.matrix * kron(x, y), computed with no Kronecker product.
        """
        return bilinear_on_columns(self.matrix, x, y)

    def rotated(self):
        """The constants c'[j][k][i] = c[i][j][k] of V (x) W -> U: entry
        (k, i dr + j) of the matrix moves to (i, j do + k), as the same
        integers; dual structures are rotations."""
        dl, dr, do = self.dim_left, self.dim_right, self.dim_out
        return StructureConstants(dr, do, self.matrix.reindexed(
            dl, dr * do, lambda k, t: (t // dr, t % dr * do + k)))

    def is_zero(self):
        return self.matrix.is_zero()

    def __eq__(self, other):
        return (isinstance(other, StructureConstants)
                and (self.dim_left, self.dim_right) ==
                (other.dim_left, other.dim_right)
                and self.matrix == other.matrix)

    def __add__(self, other):
        if (self.dim_left, self.dim_right, self.dim_out) != \
                (other.dim_left, other.dim_right, other.dim_out):
            raise ShapeError("tensor shapes must agree")
        return StructureConstants(self.dim_left, self.dim_right,
                                  self.matrix + other.matrix)


def LinearMap(dom, cod, matrix):
    """Shape-check matrix and return it; kept because perfbench calls it."""
    if matrix.rows != cod or matrix.cols != dom:
        raise ShapeError(
            f"matrix is {matrix.rows}x{matrix.cols}, map needs {cod}x{dom}")
    return matrix


def block_constants(left, right, out, blocks):
    """Structure constants on direct sums, assembled from blocks.

    left, right and out list the summand dimensions of the two inputs and
    of the output; each sum takes its first summand's basis first.  blocks
    maps (p, q, r) to the constants of summand p (x) summand q -> summand
    r, placed at those summands' offsets; every other block is zero.
    Matrix.reindexed moves each block's entry at input pair (i, j) to the
    column of the pair (i + the offset of summand p, j + the offset of
    summand q), and one Matrix.from_blocks sums the moved blocks at their
    output summands' rows, all in integers.
    """
    lo, ro, oo = ([0, *accumulate(dims)] for dims in (left, right, out))
    width = ro[-1]
    placed = []
    for (p, q, r), t in blocks.items():
        if (t.dim_left, t.dim_right, t.dim_out) != (left[p], right[q], out[r]):
            raise ShapeError(
                f"block {(p, q, r)} is {t.dim_left}x{t.dim_right}x"
                f"{t.dim_out}, its summands are {left[p]}x{right[q]}x{out[r]}")
        dr, i0, j0 = right[q], lo[p], ro[q]
        placed.append((1, t.matrix.reindexed(
            out[r], lo[-1] * width,
            lambda k, c: (k, (i0 + c // dr) * width + j0 + c % dr)), oo[r], 0))
    return StructureConstants(lo[-1], width, Matrix.from_blocks(
        oo[-1], lo[-1] * width, placed))


def default_names(prefix, dim):
    return tuple(f"{prefix}{i}" for i in range(dim))


class AssocAlgebra:
    """Finite-dimensional algebra (A, mu) by structure constants."""

    __slots__ = ("dim", "mu", "basis_names")

    def __init__(self, dim, mu, basis_names=None):
        if (mu.dim_left, mu.dim_right, mu.dim_out) != (dim, dim, dim):
            raise ShapeError("product tensor must be dim x dim x dim")
        self.dim = dim
        self.mu = mu
        self.basis_names = tuple(basis_names or default_names("e", dim))
        if len(self.basis_names) != dim:
            raise ShapeError(
                f"{len(self.basis_names)} basis names for dim {dim}")

    @staticmethod
    def zero(dim):
        return AssocAlgebra(dim, StructureConstants.zero(dim, dim, dim))


class Bimodule:
    """A-bimodule M: left action A (x) M -> M, right action M (x) A -> M."""

    __slots__ = ("over", "dim", "left", "right", "basis_names")

    def __init__(self, over, dim, left, right, basis_names=None):
        if (left.dim_left, left.dim_right, left.dim_out) != \
                (over.dim, dim, dim):
            raise ShapeError("left action tensor must be dimA x dimM x dimM")
        if (right.dim_left, right.dim_right, right.dim_out) != \
                (dim, over.dim, dim):
            raise ShapeError("right action tensor must be dimM x dimA x dimM")
        self.over = over
        self.dim = dim
        self.left = left
        self.right = right
        self.basis_names = tuple(basis_names or default_names("m", dim))
        if len(self.basis_names) != dim:
            raise ShapeError(
                f"{len(self.basis_names)} basis names for dim {dim}")

    @staticmethod
    def zero_actions(over, dim):
        return Bimodule(over, dim,
                        StructureConstants.zero(over.dim, dim, dim),
                        StructureConstants.zero(dim, over.dim, dim))

    @staticmethod
    def adjoint(over):
        """The algebra acting on itself by its own multiplication."""
        return Bimodule(over, over.dim, over.mu, over.mu, over.basis_names)


def check_associativity(alg):
    """(e_i e_j) e_k == e_i (e_j e_k) for all basis triples."""
    rep = Report("associativity")
    mu, ident = alg.mu, Matrix.identity(alg.dim)
    rep.require_laws([("assoc", (alg.dim,) * 3,
                       mu.on_columns(mu.matrix, ident),
                       mu.on_columns(ident, mu.matrix), None)])
    return rep


def check_bimodule(mod):
    """The three compatibility identities of a bimodule, on basis triples
    (i, j, w) of A, A and M."""
    rep = Report("bimodule")
    mu, left, right = mod.over.mu, mod.left, mod.right
    dA, dM = mod.over.dim, mod.dim
    ia, im = Matrix.identity(dA), Matrix.identity(dM)
    rep.require_laws([
        # (a a') . m = a . (a' . m)
        ("left_assoc", (dA, dA, dM), left.on_columns(mu.matrix, im),
         left.on_columns(ia, left.matrix), None),
        # (a . m) . a' = a . (m . a')
        ("middle_assoc", (dA, dM, dA), right.on_columns(left.matrix, ia),
         left.on_columns(ia, right.matrix), lambda i, w, j: (i, j, w)),
        # (m . a) . a' = m . (a a')
        ("right_assoc", (dM, dA, dA), right.on_columns(right.matrix, ia),
         right.on_columns(im, mu.matrix), lambda w, i, j: (i, j, w))])
    return rep


def dual_bimodule(mod):
    """Dual actions (a.f)(m) = f(m.a) and (f.a)(m) = f(a.m): the action
    constants rotated."""
    names = tuple(n + "*" for n in mod.basis_names)
    return Bimodule(mod.over, mod.dim, mod.right.rotated(),
                    mod.left.rotated().rotated(), names)


def _square_zero(dims, pure, left, right):
    # product on X (+) Y: pure on X (x) X, the actions into Y, zero on Y (x) Y
    return block_constants(dims, dims, dims, {
        (0, 0, 0): pure, (0, 1, 1): left, (1, 0, 1): right})


def semidirect_algebra(mod):
    """Algebra on A (+) M with (a,m)(a',m') = (a a', a.m' + m.a').

    Basis order: A basis first, then M basis.
    """
    alg = mod.over
    dims = (alg.dim, mod.dim)
    return AssocAlgebra(
        sum(dims), _square_zero(dims, alg.mu, mod.left, mod.right),
        alg.basis_names + mod.basis_names)


def hochschild_terms(mod, k):
    """The Hochschild differential C^k(A, M) -> C^{k+1}(A, M), k >= 0, as
    (sign, term) pairs on a cochain f, the dim M x dim A^k matrix of a map
    A^(x)k -> M: a_1 . f(...), sum_i (-1)^i f(..., a_i a_{i+1}, ...) and
    (-1)^(k+1) f(...) . a_{k+1}.  Face i is its own term, f -> f (I (x) mu
    (x) I) given by its Kronecker factors, so no face's matrix is built."""
    dA, mu = mod.over.dim, mod.over.mu.matrix
    terms = [(1, OnColumns(mod.left.matrix, dA))]
    terms.extend(((-1) ** i, Product(None, between_identities(
        dA ** (i - 1), mu, dA ** (k - i)))) for i in range(1, k + 1))
    terms.append(((-1) ** (k + 1),
                  OnColumns(mod.right.matrix, dA, x_first=True)))
    return terms


def hochschild_matrix(mod, k, transposed=False):
    """Matrix of the Hochschild differential C^k(A, M) -> C^{k+1}(A, M), or
    its transpose when transposed, assembled from hochschild_terms.

    Cochain coordinates are row-major matrix entries: index = w * dimA^k + t
    for target coordinate w and flattened input tuple t.
    """
    if k < 0:
        raise ShapeError(f"cochain degree must be >= 0, got {k}")
    dA, dM = mod.over.dim, mod.dim
    return assemble_terms([(s, 0, 0, t) for s, t in hochschild_terms(mod, k)],
                          [(dM, dA ** k)], [(dM, dA ** (k + 1))], transposed)


def hochschild_cohomology_dims(mod, max_degree):
    """[dim H^0(A, M), ..., dim H^K(A, M)], with C^0 = M and the standard
    differentials."""
    if max_degree < 0:
        raise ShapeError(
            f"Hochschild cohomology starts in degree 0, got {max_degree}")
    return transposed_homology_dims(
        hochschild_matrix(mod, k, transposed=True)
        for k in range(max_degree + 1))


class DendriformAlgebra:
    """Two products prec, succ whose axioms make prec + succ associative."""

    __slots__ = ("dim", "prec", "succ", "basis_names")

    def __init__(self, dim, prec, succ, basis_names=None):
        for t in (prec, succ):
            if (t.dim_left, t.dim_right, t.dim_out) != (dim, dim, dim):
                raise ShapeError("dendriform tensors must be dim^3")
        self.dim = dim
        self.prec = prec
        self.succ = succ
        self.basis_names = tuple(basis_names or default_names("x", dim))


def check_dendriform(den):
    """The three splitting axioms on all basis triples.

    axiom1: (x < y) < z == x < (y * z)
    axiom2: (x > y) < z == x > (y < z)
    axiom3: (x * y) > z == x > (y > z)        (* = < + >)
    """
    rep = Report("dendriform")
    prec, succ = den.prec, den.succ
    tot = prec.matrix + succ.matrix
    ident = Matrix.identity(den.dim)
    dims = (den.dim,) * 3
    rep.require_laws([
        ("axiom1", dims, prec.on_columns(prec.matrix, ident),
         prec.on_columns(ident, tot), None),
        ("axiom2", dims, prec.on_columns(succ.matrix, ident),
         succ.on_columns(ident, prec.matrix), None),
        ("axiom3", dims, succ.on_columns(tot, ident),
         succ.on_columns(ident, succ.matrix), None)])
    return rep


def total_algebra(den):
    """The associative algebra with product prec + succ."""
    return AssocAlgebra(den.dim, den.prec + den.succ, den.basis_names)


class DendriformRepresentation:
    """Representation space E of a dendriform algebra D.

    Four actions: left_prec, left_succ: D (x) E -> E and right_prec,
    right_succ: E (x) D -> E, subject to the nine identities obtained from the
    three dendriform axioms by letting one argument range over E.
    """

    __slots__ = ("over", "dim", "left_prec", "left_succ", "right_prec",
                 "right_succ", "basis_names")

    def __init__(self, over, dim, left_prec, left_succ, right_prec,
                 right_succ, basis_names=None):
        for t in (left_prec, left_succ):
            if (t.dim_left, t.dim_right, t.dim_out) != (over.dim, dim, dim):
                raise ShapeError("left action tensors must be dimD x dimE x dimE")
        for t in (right_prec, right_succ):
            if (t.dim_left, t.dim_right, t.dim_out) != (dim, over.dim, dim):
                raise ShapeError("right action tensors must be dimE x dimD x dimE")
        self.over = over
        self.dim = dim
        self.left_prec = left_prec
        self.left_succ = left_succ
        self.right_prec = right_prec
        self.right_succ = right_succ
        self.basis_names = tuple(basis_names or default_names("v", dim))

    @staticmethod
    def adjoint(over):
        """D acting on itself by its own dendriform products."""
        return DendriformRepresentation(
            over, over.dim, over.prec, over.succ, over.prec, over.succ,
            over.basis_names)


def _square_zero_dendriform(rep):
    """Dendriform-shaped structure on D (+) E, zero on E (x) E.

    Mixed products use the four action tensors; this encodes the nine
    representation identities: evaluating the three dendriform axioms on
    tuples with exactly one E slot reproduces, slot by slot, each axiom with
    one argument replaced by a representation element, which is exactly how
    the identity list is generated.  Tuples with two or more E slots vanish
    identically on both sides, so nothing extra is imposed.
    """
    den = rep.over
    dims = (den.dim, rep.dim)
    return DendriformAlgebra(
        sum(dims),
        _square_zero(dims, den.prec, rep.left_prec, rep.right_prec),
        _square_zero(dims, den.succ, rep.left_succ, rep.right_succ))


def check_dendriform_representation(rep):
    """The nine identities: the three axioms of the square-zero structure
    on D (+) E at the basis triples with exactly one slot in E."""
    dD = rep.over.dim
    out = Report("dendriform_representation")
    for v in check_dendriform(_square_zero_dendriform(rep)).violations:
        in_e = [a >= dD for a in v.args]
        if sum(in_e) == 1:
            out.violations.append(Violation(
                f"{v.law}[E@{in_e.index(True) + 1}]", v.args, v.lhs, v.rhs))
    return out
