"""Exact rational linear algebra.

Everything in this package reduces to finite-dimensional linear algebra over the
rationals, done exactly: no floats anywhere.  This module provides the scalar
type, the one matrix type (row-sparse, built from dense entries or entry by
entry, with paste placing one matrix as a block of another and signed_sum
adding many in one copy), the Kronecker product kron, linear maps on lists
of matrix blocks given as terms (Product, OnColumns), whose signed entries
assemble_terms writes, term by term, straight into the rows of one matrix
(write is each term's one definition), multi-index flattening for tensor
powers, the workhorses rank / kernel_basis / solve_columns (with
its cases solve and inverse), and homology_dims, which sweeps a whole
cochain complex.

These run one elimination kernel, _echelon.  It clears each row of
denominators once and then works on primitive integer rows, with a column
index of the live rows that have a nonzero in each column.  Only the pivot
key differs between callers: rank takes the sparsest column first, which
limits fill-in; kernel_basis and solve_columns take the smallest column
first, because their documented output is fixed by the set of pivot
columns, and elimination in column order always finds the same set.  The
product accumulates in integers too, so homology_dims' check
d_k . d_{k-1} == 0 builds a rational only for a nonzero entry.

homology_dims ranks each d_k off the image of d_{k-1}, on its transpose.
With R the rows of d_{k-1} found as pivots one step before (a row basis of
it), C^k = im d_{k-1} (+) W, W spanned by the unit vectors off R, and the
pivot columns of the transposed elimination on W are the next R.  This
rests on d_k . d_{k-1} == 0, which homology_dims checks first.

Conventions fixed here and relied on by every other module:

* scalars are fractions.Fraction: reduced rationals with positive
  denominator;
* a linear map is its Matrix: codomain-dim rows and domain-dim columns,
  acting on column vectors (apply), composed by the product (f * g is f
  after g);
* tensor products flatten big-endian: the FIRST factor varies slowest.  So for
  factor dims (d1, d2) the pair (i1, i2) flattens to i1*d2 + i2.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, lcm

ZERO = Q(0)
ONE = Q(1)

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


def parse_rational(text):
    """Parse 'p' or 'p/q' (q > 0 after reduction is automatic).  Strict:
    ASCII digits only, no whitespace or underscores; bools are rejected."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Q(text)
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string or int, got {text!r}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed rational {text!r}")
    n, d = int(match[1]), int(match[2] or 1)
    if d == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    return Q(n, d)


def format_rational(q):
    """Serialize as 'p' or 'p/q'.  Inverse of parse_rational."""
    q = Q(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_matrix(m):
    """A Matrix as a list of rows of format_rational strings."""
    return [[format_rational(v) for v in m.row(i)] for i in range(m.rows)]


class Matrix:
    """Row-sparse matrix of Rationals: per row, a col -> value dict of its
    nonzeros.

    Built from dense row-major entries, or empty (Matrix(rows, cols)) and then
    filled entry by entry with add.  Read-only once built.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self._data = [{} for _ in range(rows)]
        if entries is None:
            return
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count must be rows*cols")
        for i, row in enumerate(self._data):
            for j, v in enumerate(entries[i * cols:(i + 1) * cols]):
                if v:
                    row[j] = v if type(v) is Q else Q(v)

    def add(self, i, j, val):
        """Add val to entry (i, j); used while building."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ValueError(
                f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        if val:
            _add_entry(self._data[i], j, val if type(val) is Q else Q(val))

    @staticmethod
    def _of(rows, cols, data):
        """Wrap row dicts that hold nonzeros only."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m._data = rows, cols, data
        return m

    @staticmethod
    def from_rows(rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        if any(len(r) != cols for r in rows_list):
            raise ValueError("ragged rows")
        return Matrix._of(rows, cols,
                          [{j: v if type(v) is Q else Q(v)
                            for j, v in enumerate(r) if v} for r in rows_list])

    @staticmethod
    def from_columns(rows, columns):
        """The rows x len(columns) matrix with the given dense columns."""
        return Matrix(len(columns), rows,
                      [v for col in columns for v in col]).transpose()

    @staticmethod
    def zero(rows, cols):
        return Matrix(rows, cols)

    @staticmethod
    def identity(n):
        return Matrix._of(n, n, [{i: ONE} for i in range(n)])

    @property
    def entries(self):
        """The dense row-major tuple of all rows*cols entries."""
        return tuple(v for i in range(self.rows) for v in self.row(i))

    def at(self, i, j):
        return self._data[i].get(j, ZERO)

    def row(self, i):
        """Row i as a dense tuple."""
        row = self._data[i]
        return tuple(row.get(j, ZERO) for j in range(self.cols))

    def column(self, j):
        """Column j as a dense tuple."""
        return tuple(row.get(j, ZERO) for row in self._data)

    def row_dicts(self):
        """Fresh col -> value dicts of the nonzeros, one per row."""
        return [dict(row) for row in self._data]

    def nonzero_items(self):
        """(i, j, value) for every nonzero, row by row."""
        for i, row in enumerate(self._data):
            for j, v in row.items():
                yield i, j, v

    def is_zero(self):
        return not any(self._data)

    def transpose(self):
        return Matrix._of(self.cols, self.rows, _transpose_off(self, ()))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._data == other._data)

    def __add__(self, other):
        return signed_sum(((1, self), (1, other)))

    def __sub__(self, other):
        return signed_sum(((1, self), (-1, other)))

    def __neg__(self):
        return Matrix._of(self.rows, self.cols,
                          [{j: -v for j, v in row.items()}
                           for row in self._data])

    def __mul__(self, other):
        """Matrix product over the nonzeros of both factors, accumulated in
        integers: each row of self is scaled by the lcm of its own
        denominators and other by one common denominator, and the scale is
        divided out of the nonzero results only.  Scaling other row by row
        would not preserve a zero product."""
        if not isinstance(other, Matrix):
            raise TypeError("can only multiply a Matrix by a Matrix")
        if self.cols != other.rows:
            raise ValueError("inner dimensions must agree")
        den = lcm(*(v.denominator for row in other._data
                    for v in row.values()))
        inner = [_cleared(row, den) for row in other._data]
        out = []
        for row in self._data:
            scale = lcm(*(v.denominator for v in row.values()))
            acc = {}
            for k, v in _cleared(row, scale).items():
                for j, w in inner[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            scale *= den
            out.append({j: Q(s, scale) for j, s in acc.items() if s})
        return Matrix._of(self.rows, other.cols, out)

    def apply(self, vec):
        """Apply to a column vector (any sequence of scalars)."""
        if len(vec) != self.cols:
            raise ValueError("vector length must equal cols")
        out = []
        for row in self._data:
            s = ZERO
            for j, v in row.items():
                w = vec[j]
                if w:
                    s += v * w
            out.append(s)
        return tuple(out)

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(v) for v in self.row(i))
                         for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _add_entry(row, j, v):
    """Add the nonzero Q v to entry j of a row dict, deleting the entry if
    the sum is 0: a row dict holds nonzeros only, which == relies on."""
    old = row.get(j)
    if old is None:
        row[j] = v
    else:
        nv = old + v
        if nv:
            row[j] = nv
        else:
            del row[j]


def signed_sum(terms):
    """The sum of sign * m over (sign, m) pairs, each sign +1 or -1; all
    the matrices have one shape, and there is at least one.  The rows are
    copied once, not once per term."""
    terms = iter(terms)
    sign, first = next(terms)
    out = first.row_dicts() if sign > 0 else (-first)._data
    for sign, m in terms:
        if (m.rows, m.cols) != (first.rows, first.cols):
            raise ValueError("shapes must agree")
        for row, theirs in zip(out, m._data):
            # _add_entry inline: a call per entry slows the axiom checks
            for j, v in theirs.items():
                old = row.get(j)
                if old is None:
                    row[j] = v if sign > 0 else -v
                else:
                    nv = old + v if sign > 0 else old - v
                    if nv:
                        row[j] = nv
                    else:
                        del row[j]
    return Matrix._of(first.rows, first.cols, out)


def paste(dst, src, row_off=0, col_off=0):
    """Add the block src into dst with its corner at (row_off, col_off);
    returns dst.  The block must fit inside dst."""
    if row_off + src.rows > dst.rows or col_off + src.cols > dst.cols:
        raise ValueError(
            f"{src.rows}x{src.cols} block at ({row_off}, {col_off}) does not "
            f"fit in {dst.rows}x{dst.cols}")
    for i, row in enumerate(src._data, row_off):
        out = dst._data[i]
        for j, v in row.items():
            _add_entry(out, j + col_off, v)
    return dst


def kron(a, b):
    """Kronecker product: entry ((i, k), (j, l)) is a[i, j] * b[k, l].

    Row and column pairs flatten big-endian, as TensorIndex does: the index
    of a varies slowest.  So if a's columns are values at the tuples of one
    set of variables and b's at those of another, the product's columns are
    the values of a (x) b at the joined tuples.
    """
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise TypeError("kron needs two matrices")
    n = b.cols
    out = []
    for ra in a._data:
        for rb in b._data:
            row = {}
            for j, v in ra.items():
                off = j * n
                # a factor 1, as in identity inputs, leaves the other as is
                if v == 1:
                    for l, w in rb.items():
                        row[off + l] = w
                else:
                    for l, w in rb.items():
                        row[off + l] = v if w == 1 else v * w
            out.append(row)
    return Matrix._of(a.rows * b.rows, a.cols * n, out)


def padded(pre, p, post):
    """kron(I_pre, p, I_post): p acting on the factors between a block of
    dimension pre and one of dimension post."""
    if pre != 1:
        p = kron(Matrix.identity(pre), p)
    return p if post == 1 else kron(p, Matrix.identity(post))


class Product:
    """The term X -> p X q of a linear map on matrices (p None: X -> X q).

    On row-major coordinates, X[i, j] at i * X.cols + j, its matrix is
    kron(p, q^T).
    """

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        self.p = p
        self.q = q

    def write(self, out, sign, row_off, col_off, rows, cols):
        """Add sign times the term's matrix on rows x cols matrices X to
        the row dicts out, with its corner at (row_off, col_off).  p[a, i]
        q[r, c] takes X[i, r] to image entry (a, c); p None is I_rows."""
        p = Matrix.identity(rows) if self.p is None else self.p
        signed_q = [(r, c, v if sign > 0 else -v) for r, c, v in
                    self.q.nonzero_items()]
        width = self.q.cols
        for a, i, u in p.nonzero_items():
            base, col = row_off + a * width, col_off + i * cols
            for r, c, v in signed_q:
                _add_entry(out[base + c], col + r, v if u == 1 else u * v)


class OnColumns:
    """The term X -> t kron(I_n, X), or t kron(X, I_n) when x_first: the
    bilinear map whose matrix is t, applied to every pair of a basis vector
    of an n-dimensional space and a column of X
    (StructureConstants.on_columns with an identity).

    Its matrix is t's nonzeros re-indexed, in one pass and with no product:
    it is kron(t reshaped to (t.rows n) x rows, I_cols), with the image's
    columns (basis vector, column of X) read in the other order when
    x_first.
    """

    __slots__ = ("t", "n", "x_first")

    def __init__(self, t, n, x_first=False):
        self.t = t
        self.n = n
        self.x_first = x_first

    def write(self, out, sign, row_off, col_off, rows, cols):
        """Add sign times the term's matrix on rows x cols matrices X to
        the row dicts out, with its corner at (row_off, col_off).  Entry
        t[w, j] pairs basis vector a with row r of X (j = a rows + r, or
        r n + a when x_first).  For each column c of X it takes X[r, c] to
        image entry (w, a cols + c), or (w, c n + a) when x_first."""
        n = self.n
        for w, j, v in self.t.nonzero_items():
            if self.x_first:
                r, a = divmod(j, n)
                base, step = row_off + w * cols * n + a, n
            else:
                a, r = divmod(j, rows)
                base, step = row_off + (w * n + a) * cols, 1
            col, v = col_off + r * cols, v if sign > 0 else -v
            for c in range(cols):
                _add_entry(out[base + c * step], col + c, v)


def assemble_terms(terms, in_shapes, out_shapes):
    """The matrix of the map on lists of matrix blocks whose out-block o
    is the sum of sign * term(in-block i) over its (sign, i, o, term)
    terms: the blocks read row-major and concatenated in order.  Each term
    adds its signed entries straight into the rows, at its block's
    offsets."""
    row_off = [0, *accumulate(r * c for r, c in out_shapes)]
    col_off = [0, *accumulate(r * c for r, c in in_shapes)]
    out = [{} for _ in range(row_off[-1])]
    for sign, i, o, term in terms:
        term.write(out, sign, row_off[o], col_off[i], *in_shapes[i])
    return Matrix._of(row_off[-1], col_off[-1], out)


class TensorIndex:
    """Big-endian mixed-radix flattening of a multi-index.

    factor_dims lists the dimension of each tensor factor; the first factor
    varies slowest.  flatten and unflatten are mutually inverse on the full
    range.  An empty factor list describes the base field (size 1, index ()).
    """

    __slots__ = ("factor_dims", "size")

    def __init__(self, factor_dims):
        factor_dims = tuple(int(d) for d in factor_dims)
        if any(d < 0 for d in factor_dims):
            raise ValueError("factor dimensions must be >= 0")
        object.__setattr__(self, "factor_dims", factor_dims)
        n = 1
        for d in factor_dims:
            n *= d
        object.__setattr__(self, "size", n)

    def __setattr__(self, *a):
        raise AttributeError("TensorIndex is immutable")

    def flatten(self, multi):
        if len(multi) != len(self.factor_dims):
            raise ValueError("multi-index length must equal factor count")
        flat = 0
        for i, d in zip(multi, self.factor_dims):
            if not 0 <= i < d:
                raise ValueError("index out of range")
            flat = flat * d + i
        return flat

    def unflatten(self, flat):
        if not 0 <= flat < self.size:
            raise ValueError("flat index out of range")
        multi = []
        for d in reversed(self.factor_dims):
            multi.append(flat % d)
            flat //= d
        return tuple(reversed(multi))


def _primitive(row):
    """Divide an integer row, in place, by the gcd of its entries."""
    g = gcd(*row.values())
    if g != 1:
        for c in row:
            row[c] //= g
    return row


def _cleared(row, scale):
    """A row of rationals times scale, a common multiple of their
    denominators, as integers."""
    return {c: v.numerator * (scale // v.denominator) for c, v in row.items()}


def _integer_row(row):
    """A row of rationals as a primitive integer row of the same span."""
    scale = lcm(*(v.denominator for v in row.values()))
    return _primitive(_cleared(row, scale))


def _column_order(index, ncols):
    """Pivot key of kernel_basis and solve_columns: smallest column first.

    Their output is fixed by the set of pivot columns (the columns that are
    not combinations of the columns before them), which any elimination in
    column order finds, whatever rows it picks and however it scales them.
    Another order can find another set, and so another basis or solution.
    """
    return (c for c in range(min(ncols, len(index))) if index[c])


def _sparsest_first(index, ncols):
    """Pivot key of rank: the column with the fewest live rows first (ties:
    smallest column).  A lazy heap on (count, col): an entry whose count
    went stale is pushed back with the count the column has when popped."""
    heap = [(len(rows), c) for c, rows in enumerate(index[:ncols]) if rows]
    heapify(heap)
    while heap:
        count, c = heappop(heap)
        now = len(index[c])
        if now == count:
            yield c
        elif now:
            heappush(heap, (now, c))


def _echelon(rows, ncols, order):
    """Forward elimination on primitive integer rows.

    rows are col -> rational dicts; they are not modified.  Each nonempty
    row is cleared of denominators once.  A column index keeps, for every
    column, the set of live rows that have a nonzero there, so a pivot step
    touches only the rows it changes.  order(index, ncols) yields the pivot
    columns, reading the index as elimination goes; only columns below
    ncols are pivots.  The pivot row is the shortest live row in its column
    (ties: first given).  It is cross-multiplied into every other row of the
    column with the gcd of the two leading entries, and each new row is
    divided by its content.

    Returns (pivot rows, pivot cols): integer rows, each with its pivot at
    the matching entry of pivot cols.
    """
    rows = [_integer_row(r) for r in rows if r]
    index = [set() for _ in range(max((max(r) for r in rows), default=-1)
                                  + 1)]
    for i, r in enumerate(rows):
        for c in r:
            index[c].add(i)
    pivots, pivot_cols = [], []
    for col in order(index, ncols):
        targets = index[col]
        p = min(targets, key=lambda i: (len(rows[i]), i))
        pivot = rows[p]
        for c in pivot:
            index[c].discard(p)
        index[col] = set()
        a = pivot[col]
        rest = [(c, v) for c, v in pivot.items() if c != col]
        for i in targets:
            r = rows[i]
            b = r.pop(col)
            g = gcd(a, b)
            fa, fb = a // g, b // g
            if fa != 1:
                for c in r:
                    r[c] *= fa
            for c, v in rest:
                if c in r:
                    nv = r[c] - fb * v
                    if nv:
                        r[c] = nv
                    else:
                        del r[c]
                        index[c].discard(i)
                else:
                    r[c] = -fb * v
                    index[c].add(i)
            if r:
                _primitive(r)
        pivots.append(pivot)
        pivot_cols.append(col)
    return pivots, pivot_cols


def rank(m):
    """Exact row rank over the rationals; pivots sparsest column first."""
    return len(_echelon(m._data, m.cols, _sparsest_first)[0])


def _back_substitute(pivots, pivot_cols, free_assign, ncols):
    """Complete a kernel vector from values at non-pivot columns."""
    vec = [ZERO] * ncols
    for c, v in free_assign.items():
        vec[c] = v
    for row, pc in zip(reversed(pivots), reversed(pivot_cols)):
        s = ZERO
        for c, v in row.items():
            if c != pc and vec[c]:
                s += v * vec[c]
        vec[pc] = -s / row[pc]
    return tuple(vec)


def kernel_basis(m):
    """Exact basis of the right null space, in deterministic order.

    One basis vector per non-pivot column, ascending; the vector carries 1 at
    its free column and 0 at the other free columns.
    """
    pivots, pivot_cols = _echelon(m._data, m.cols, _column_order)
    pivot_set = set(pivot_cols)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        basis.append(_back_substitute(pivots, pivot_cols, {j: ONE}, m.cols))
    return basis


def solve_columns(m, b):
    """For each column of b, any exact solution x of m x = (that column),
    or None where m x cannot equal it.

    [m | b] is eliminated once in column order, so all of m's columns
    come first: the rows it leaves read 0 = (a combination of b), and a
    column of b is consistent exactly when none of them has a nonzero
    there.  Free variables are set to zero, so the answer is deterministic.
    """
    if b.rows != m.rows:
        raise ValueError(f"right-hand side has {b.rows} rows, not {m.rows}")
    n, width = m.cols, m.cols + b.cols
    rows = m.row_dicts()
    for row, extra in zip(rows, b._data):
        for j, v in extra.items():
            row[n + j] = v
    pivots, pivot_cols = _echelon(rows, width, _column_order)
    r = sum(c < n for c in pivot_cols)
    inconsistent = {c for row in pivots[r:] for c in row}
    pivots, pivot_cols = pivots[:r], pivot_cols[:r]
    # -1 at the column of b moves it to the other side of m x = b
    return [None if n + j in inconsistent else
            _back_substitute(pivots, pivot_cols, {n + j: -ONE}, width)[:n]
            for j in range(b.cols)]


def solve(m, rhs):
    """Any exact solution x of m x = rhs, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(rhs) != m.rows:
        raise ValueError(f"rhs length {len(rhs)} != rows {m.rows}")
    return solve_columns(m, Matrix(m.rows, 1, rhs))[0]


def inverse(m):
    """Exact inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise ValueError(f"inverse needs a square matrix, got {m.rows}x{m.cols}")
    cols = solve_columns(m, Matrix.identity(m.rows))
    return None if None in cols else Matrix.from_columns(m.rows, cols)


def _transpose_off(m, skip):
    """The rows of m's transpose, built in one pass from m's row dicts,
    with those in skip left empty, which _echelon skips.  Passed straight
    to _echelon, they are freed once it has made its integer rows."""
    out = [{} for _ in range(m.cols)]
    for i, row in enumerate(m._data):
        for j, v in row.items():
            if j not in skip:
                out[j][i] = v
    return out


def homology_dims(differentials):
    """dim ker d_k - rank d_{k-1} for each map of the complex d_0, d_1, ...

    differentials is any iterable of matrices; the map into the domain of
    d_0 is zero.  Each map is checked against the one before it for
    cols(d_k) == rows(d_{k-1}) and d_k . d_{k-1} == 0, then ranked once,
    and dropped after its successor.

    The rank is taken off the image of d_{k-1}.  A set R of rows of d_{k-1}
    that is a row basis of it projects im d_{k-1} one to one onto the
    coordinates in R, so C^k = im d_{k-1} (+) W, W spanned by the unit
    vectors off R.  d_k kills the image (the check above, made first, is
    what makes this exact), so rank d_k is the rank of d_k on W: of its
    transpose with the rows in R left out.  The pivot columns of that
    elimination are rank d_k rows of d_k, independent on W and so in d_k:
    the next R.  The first map starts with R empty.
    """
    dims = []
    inner, inner_rank, row_basis = None, 0, set()
    for k, d in enumerate(differentials):
        if inner is not None:
            if d.cols != inner.rows:
                raise ValueError(
                    f"not composable: d_{k} has {d.cols} cols, "
                    f"d_{k - 1} has {inner.rows} rows")
            if not (d * inner).is_zero():
                raise ValueError(f"d_{k} . d_{k - 1} != 0: not a complex")
        pivots, pivot_cols = _echelon(_transpose_off(d, row_basis), d.rows,
                                      _sparsest_first)
        row_basis = set(pivot_cols)
        dims.append(d.cols - len(pivots) - inner_rank)
        inner, inner_rank = d, len(pivots)
    return dims
