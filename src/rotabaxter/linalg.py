"""Exact rational linear algebra.

Everything in this package reduces to finite-dimensional linear algebra over the
rationals, done exactly: no floats anywhere.  This module provides the scalar
type, the one matrix type (row-sparse, built whole from dense entries or
from a dict of its nonzeros and never changed after, with paste giving a
matrix plus a block placed in it and signed_sum adding many in one copy),
the Kronecker product kron, bilinear_on_columns
(a bilinear map's matrix times a Kronecker product, with none built),
linear maps on lists of matrix blocks given as terms (Product, OnColumns),
whose signed entries assemble_terms writes, term by term, straight into
the rows of one matrix or of its transpose (write is each term's one
definition), multi-index flattening for tensor powers, the workhorses
rank / kernel_basis / solve_columns (with its case inverse), which return
numbers and matrices, and homology_dims, which sweeps a whole cochain
complex (transposed_homology_dims, given the maps' transposes).

A Matrix stores integers over one denominator, so the product, kron,
bilinear_on_columns, signed_sum, stacked and its inverse unstacked, paste,
the term writes, the transpose and the eliminations compute in integers
and build no rational; only the reads (at, row, column, entries,
nonzero_items, row_dicts and apply) make Q values.  Structure files are
parsed into integers and rendered from them: parse_ratio reads a scalar
as an unreduced integer pair, ratio_matrix stores a matrix of such pairs
over their lcm, format_matrix writes each entry from its integer and the
denominator, and parse_rational and format_rational read and write one Q.

rank, kernel_basis, solve_columns and homology_dims run one elimination
kernel, _echelon, on integer rows, with a column index of the live rows
that have a nonzero in each column.  It owns the rows it is given and
changes them in place, so each caller passes rows built for it: rank and
kernel_basis copy the matrix's, solve_columns builds [m | b] and the sweep
hands over the transposes it owns.  It yields each (pivot column, pivot
row) pair as it finds it and keeps no reference to the row: rank and the
sweep read only the columns and so hold no pivot row, while
kernel_basis and solve_columns collect the pairs for back substitution.
An update costs the pivot's length, not the target row's: the sign of the
pivot entry goes into the multiplier, so a target row is scaled only when
the pivot entry does not divide its own, and a row is divided by its
content only when it becomes a pivot with rows to update and after such
a scaling.  A lone pivot, the only live row in its column, updates no row
and is taken as it is.  Only the pivot key differs between callers: rank
takes the sparsest column first, which limits fill-in; kernel_basis and
solve_columns take the smallest column first, because their documented
output is fixed by the set of pivot columns, and elimination in column
order always finds the same set.

The sweep runs on the transposes T_k = d_k^T, which the cohomology
modules assemble as such and homology_dims takes from its matrices.  It
ranks each d_k off the image of d_{k-1}, as T_k: with R the rows of
d_{k-1} found as pivots one step before (a row basis of it), C^k =
im d_{k-1} (+) W, W spanned by the unit vectors off R, so T_k's rows in R
are emptied, and the pivot columns of the elimination of the rest are
the next R.  This rests on d_k . d_{k-1} == 0, which the sweep checks
first, as T_{k-1} . T_k == 0 on the rows of T_{k-1} off the R before it,
which span im d_{k-1}: T_{k-1} is kept as it was built until T_k is, and
each of its rows is multiplied out in full into one integer accumulator
of length rows(d_k) that serves every row, since a row that passes leaves
it all 0.  Only then is T_{k-1} eliminated, in the rows it was built in.

Conventions fixed here and relied on by every other module:

* scalars are stored as integers over one denominator per matrix, and are
  Q (fractions.Fraction: reduced, positive denominator) at the boundary:
  every value read out, and every value taken in, which may also be an int
  or a 'p/q' string but never a float;
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
from itertools import accumulate, chain, repeat
from math import gcd, lcm

ZERO = Q(0)

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


def parse_ratio(text):
    """Parse 'p' or 'p/q' to the integers (p, q), q > 0, not reduced.
    Strict: ASCII digits only, no whitespace or underscores; bools are
    rejected."""
    if not isinstance(text, str):
        if isinstance(text, int) and not isinstance(text, bool):
            return text, 1
        raise ValueError(f"rational must be a string or int, got {text!r}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed rational {text!r}")
    n, d = int(match[1]), int(match[2] or 1)
    if d == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    return (-n, -d) if d < 0 else (n, d)


def parse_rational(text):
    """parse_ratio as a Q."""
    return Q(*parse_ratio(text))


def format_rational(q):
    """Serialize a Q or an int as 'p' or 'p/q'.  Inverse of
    parse_rational; a float or complex raises TypeError."""
    if type(q) is not Q:
        q = _rational(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_matrix(m, by_columns=False):
    """A Matrix as a list of rows (or of columns, by_columns) of
    format_rational strings, rendered from its integers: entry v over the
    denominator is reduced by their gcd, and an absent entry is '0'."""
    den = m._den
    n, width = (m.cols, m.rows) if by_columns else (m.rows, m.cols)
    out = [["0"] * width for _ in range(n)]
    for i, row in enumerate(m._data):
        for j, v in row.items():
            g = gcd(v, den)
            text = str(v // g) if g == den else f"{v // g}/{den // g}"
            if by_columns:
                out[j][i] = text
            else:
                out[i][j] = text
    return out


def ratio_matrix(rows, cols, ratios, by_columns=False):
    """The rows x cols Matrix of a list of dense entries, row by row (or
    column by column, by_columns), given as integer pairs (p, q), q > 0, as
    parse_ratio gives them: stored over the lcm of the q, in lowest terms,
    with no rational built."""
    if len(ratios) != rows * cols:
        raise ValueError("entry count must be rows*cols")
    den = lcm(*{q for _, q in ratios})
    data = [{} for _ in range(rows)]
    # zip stops at its first input that runs out, before taking from the
    # next: each inner loop takes one row's, or one column's, entries
    entries = iter(ratios)
    if by_columns:
        for j in range(cols):
            for row, (p, q) in zip(data, entries):
                if p:
                    row[j] = p * (den // q)
    else:
        for row in data:
            for j, (p, q) in zip(range(cols), entries):
                if p:
                    row[j] = p * (den // q)
    return Matrix._of(rows, cols, data, _lowest(data, den))


class Matrix:
    """Row-sparse matrix of rationals, stored as integers over one
    denominator: per row, a col -> int dict of its nonzeros, and _den > 0
    with gcd(_den, every entry) == 1 (so _den is 1 for the zero matrix and
    for every integer matrix), so equal matrices store equal data.
    Values are read out as Q.

    Built whole: from dense row-major entries (Matrix(rows, cols, entries);
    no entries is the zero matrix), from the dict of its nonzeros
    (from_entries), or as the result of an operation.  Never changed once
    built, so matrices may share row dicts (paste keeps the rows its block
    leaves alone), except by the sweep, which owns what it is handed.
    """

    __slots__ = ("rows", "cols", "_data", "_den")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self._den = 1
        if entries is None:
            # no row is changed once built: one empty dict serves them all
            self._data = [{}] * rows
            return
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count must be rows*cols")
        nums, self._den = _integers(entries)
        self._data = [{j: v for j, v in
                       enumerate(nums[i * cols:(i + 1) * cols]) if v}
                      for i in range(rows)]

    @staticmethod
    def from_entries(rows, cols, entries):
        """The rows x cols matrix whose entry (i, j) is entries[i, j], for a
        {(i, j): scalar} dict, and 0 off its keys.  A key outside the
        matrix raises ValueError, an inexact scalar TypeError."""
        nums, den = _integers(entries.values())
        data = [{} for _ in range(rows)]
        for (i, j), v in zip(entries, nums):
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside {rows}x{cols}")
            if v:
                data[i][j] = v
        return Matrix._of(rows, cols, data, _lowest(data, den))

    @staticmethod
    def _of(rows, cols, data, den=1):
        """Wrap integer row dicts that hold nonzeros only, over den, with
        gcd(den, every entry) == 1."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m._data, m._den = rows, cols, data, den
        return m

    @staticmethod
    def from_rows(rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        if any(len(r) != cols for r in rows_list):
            raise ValueError("ragged rows")
        return Matrix(rows, cols, [v for r in rows_list for v in r])

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
        return Matrix._of(n, n, [{i: 1} for i in range(n)])

    @property
    def entries(self):
        """The dense row-major tuple of all rows*cols entries."""
        return tuple(v for i in range(self.rows) for v in self.row(i))

    def at(self, i, j):
        return Q(self._data[i].get(j, 0), self._den)

    def row(self, i):
        """Row i as a dense tuple."""
        row, den = self._data[i], self._den
        return tuple(Q(row[j], den) if j in row else ZERO
                     for j in range(self.cols))

    def column(self, j):
        """Column j as a dense tuple."""
        den = self._den
        return tuple(Q(row[j], den) if j in row else ZERO
                     for row in self._data)

    def row_dicts(self):
        """Fresh col -> value dicts of the nonzeros, one per row."""
        den = self._den
        return [{j: Q(v, den) for j, v in row.items()} for row in self._data]

    def nonzero_items(self):
        """(i, j, value) for every nonzero, row by row."""
        den = self._den
        for i, row in enumerate(self._data):
            for j, v in row.items():
                yield i, j, Q(v, den)

    def is_zero(self):
        return not any(self._data)

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, v in row.items():
                out[j][i] = v
        return Matrix._of(self.cols, self.rows, out, self._den)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols
                and self._den == other._den
                and self._data == other._data)

    def __add__(self, other):
        return signed_sum(((1, self), (1, other)))

    def __sub__(self, other):
        return signed_sum(((1, self), (-1, other)))

    def __neg__(self):
        return Matrix._of(self.rows, self.cols,
                          [{j: -v for j, v in row.items()}
                           for row in self._data], self._den)

    def __mul__(self, other):
        """Matrix product over the nonzeros of both factors, in integers
        over the product of the two denominators, which is then reduced."""
        if not isinstance(other, Matrix):
            raise TypeError("can only multiply a Matrix by a Matrix")
        if self.cols != other.rows:
            raise ValueError("inner dimensions must agree")
        inner, out = other._data, []
        for row in self._data:
            acc = {}
            for k, v in row.items():
                for j, w in inner[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            out.append({j: s for j, s in acc.items() if s})
        return Matrix._of(self.rows, other.cols, out,
                          _lowest(out, self._den * other._den))

    def apply(self, vec):
        """Apply to a column vector (any sequence of scalars)."""
        if len(vec) != self.cols:
            raise ValueError("vector length must equal cols")
        nums, den = _integers(vec)
        den *= self._den
        return tuple(Q(sum(v * nums[j] for j, v in row.items()), den)
                     for row in self._data)

    def __repr__(self):
        body = "; ".join(" ".join(row) for row in format_matrix(self))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _integers(values):
    """Rationals as integers over their least common denominator: (ints,
    den).  A value is a Q or an int, or anything else Q reads, such as a
    'p/q' string; a float or complex raises TypeError, because it is not
    exact."""
    qs = [v if type(v) is Q or type(v) is int else _rational(v)
          for v in values]
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _rational(v):
    if isinstance(v, (float, complex)):
        raise TypeError(f"inexact scalar {v!r}: give a Q, an int or 'p/q'")
    return Q(v)


def _lowest(data, den):
    """Divide integer rows, in place, by the gcd of den and all their
    entries; returns den divided by it (1 when the rows are all zero)."""
    g = den
    for row in data:
        if g == 1:
            return den
        if row:
            g = gcd(g, *row.values())
    if g != 1:
        for row in data:
            for c in row:
                row[c] //= g
    return den // g


def _int_items(m):
    """(i, j, integer entry) for every nonzero of m, row by row: m times
    its denominator."""
    for i, row in enumerate(m._data):
        for j, v in row.items():
            yield i, j, v


def signed_sum(terms):
    """The sum of sign * m over (sign, m) pairs, each sign +1 or -1; all
    the matrices have one shape, and there is at least one.  Each term is
    scaled to the lcm of the denominators, and the rows are copied once,
    not once per term."""
    terms = list(terms)
    (sign, first), rest = terms[0], terms[1:]
    if any((m.rows, m.cols) != (first.rows, first.cols) for _, m in rest):
        raise ValueError("shapes must agree")
    den = lcm(*(m._den for _, m in terms))
    f = sign * (den // first._den)
    out = [{j: f * v for j, v in row.items()} for row in first._data]
    for sign, m in rest:
        f = sign * (den // m._den)
        for row, theirs in zip(out, m._data):
            # a sum of 0 is deleted: a row dict holds nonzeros only, which
            # == relies on; inline, since a call per entry slows the checks
            for j, v in theirs.items():
                old = row.get(j)
                if old is None:
                    row[j] = f * v
                else:
                    nv = old + f * v
                    if nv:
                        row[j] = nv
                    else:
                        del row[j]
    return Matrix._of(first.rows, first.cols, out, _lowest(out, den))


def stacked(blocks):
    """The column of the entries of a list of matrices, each read
    row-major, one after another: the coordinates of a list of blocks."""
    den = lcm(*(m._den for m in blocks))
    out = []
    for m in blocks:
        f = den // m._den
        for row in m._data:
            out.extend({0: f * row[j]} if j in row else {}
                       for j in range(m.cols))
    return Matrix._of(len(out), 1, out, _lowest(out, den))


def unstacked(m, j, shapes):
    """The inverse of stacked: column j of m cut into matrices of the given
    (rows, cols) shapes, each filled row-major and in lowest terms."""
    if m.rows != sum(r * c for r, c in shapes):
        raise ValueError("column length must equal the blocks' total size")
    column, out, pos = [row.get(j) for row in m._data], [], 0
    for rows, cols in shapes:
        data = [{c: v for c, v in
                 enumerate(column[pos + i * cols:pos + (i + 1) * cols]) if v}
                for i in range(rows)]
        out.append(Matrix._of(rows, cols, data, _lowest(data, m._den)))
        pos += rows * cols
    return out


def paste(dst, src, row_off=0, col_off=0):
    """dst plus the block src with its corner at (row_off, col_off), as a
    new matrix; dst is not changed.  The block must fit inside dst.  Only
    the rows src adds to are copied, and the nonzero rows of dst when its
    denominator must grow: the others are dst's own row dicts."""
    if row_off + src.rows > dst.rows or col_off + src.cols > dst.cols:
        raise ValueError(
            f"{src.rows}x{src.cols} block at ({row_off}, {col_off}) does not "
            f"fit in {dst.rows}x{dst.cols}")
    den, out = dst._den, dst._data.copy()
    if den % src._den:
        f = src._den // gcd(den, src._den)
        den *= f
        for i, row in enumerate(out):
            if row:
                out[i] = {j: f * v for j, v in row.items()}
    f = den // src._den
    for i, theirs in enumerate(src._data, row_off):
        if theirs:
            row = out[i]
            row = out[i] = row.copy() if row else {}
            for j, v in theirs.items():
                # added as in signed_sum
                j += col_off
                old = row.get(j)
                if old is None:
                    row[j] = f * v
                else:
                    nv = old + f * v
                    if nv:
                        row[j] = nv
                    else:
                        del row[j]
    # _lowest, but dividing copies, since some rows may be dst's
    g = den
    for row in out:
        if g == 1:
            break
        if row:
            g = gcd(g, *row.values())
    if g != 1:
        out = [{j: v // g for j, v in row.items()} for row in out]
    return Matrix._of(dst.rows, dst.cols, out, den // g)


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
                        row[off + l] = v * w
            out.append(row)
    return Matrix._of(a.rows * b.rows, a.cols * n, out,
                      _lowest(out, a._den * b._den))


def bilinear_on_columns(m, x, y):
    """m * kron(x, y), in one pass over the nonzeros of m, x and y, with no
    Kronecker product built: m[w, i * y.rows + k] x[i, s] y[k, t] adds to
    entry (w, s * y.cols + t)."""
    if x.rows * y.rows != m.cols:
        raise ValueError("inner dimensions must agree")
    n, width, xs, ys = y.rows, y.cols, x._data, y._data
    out = []
    for row in m._data:
        acc = {}
        for c, v in row.items():
            i, k = divmod(c, n)
            yk = ys[k]
            if yk:
                for s, u in xs[i].items():
                    off, uv = s * width, u * v
                    for t, w in yk.items():
                        j = off + t
                        acc[j] = acc.get(j, 0) + uv * w
        out.append({j: v for j, v in acc.items() if v})
    return Matrix._of(m.rows, x.cols * width, out,
                      _lowest(out, m._den * x._den * y._den))


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

    @property
    def den(self):
        """The denominator over which write adds the matrix's integers."""
        return self.q._den * (1 if self.p is None else self.p._den)

    def write(self, out, keys, factor, row_off, col_off, rows, cols,
              transposed):
        """Add factor times den times the term's matrix on rows x cols
        matrices X (integers), or its transpose when transposed, to the
        integer row dicts out, with its corner at (row_off, col_off) of the
        matrix; column j of out is keyed by keys[j].  p[a, i] q[r, c] takes
        X[i, r] to image entry (a, c); p None is I_rows."""
        # (a, i, p[a, i]) in integers: I_rows has (a, a, 1)
        p_items = (zip(range(rows), range(rows), repeat(1)) if self.p is None
                   else _int_items(self.p))
        # each entry's place in its (a, i) block: (row of out, key in it)
        if transposed:
            scaled_q = [(r, c, factor * v) for r, c, v in _int_items(self.q)]
        else:
            scaled_q = [(c, r, factor * v) for r, c, v in _int_items(self.q)]
        width = self.q.cols
        for a, i, u in p_items:
            base, col = row_off + a * width, col_off + i * cols
            if transposed:
                base, col = col, base
            for s, t, v in scaled_q:
                # added as in signed_sum, inline: a call per entry slows
                # assembly
                row, j = out[base + s], keys[col + t]
                if u != 1:
                    v *= u
                old = row.get(j)
                if old is None:
                    row[j] = v
                else:
                    nv = old + v
                    if nv:
                        row[j] = nv
                    else:
                        del row[j]


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

    @property
    def den(self):
        """The denominator over which write adds the matrix's integers."""
        return self.t._den

    def write(self, out, keys, factor, row_off, col_off, rows, cols,
              transposed):
        """Add factor times den times the term's matrix on rows x cols
        matrices X (integers), or its transpose when transposed, to the
        integer row dicts out, with its corner at (row_off, col_off) of the
        matrix; column j of out is keyed by keys[j].  Entry t[w, j] pairs
        basis vector a with row r of X (j = a rows + r, or r n + a when
        x_first).  For each column c of X it takes X[r, c] to image entry
        (w, a cols + c), or (w, c n + a) when x_first."""
        n, x_first = self.n, self.x_first
        # column c of X puts its entry c step rows and c columns on from
        # column 0's: in the transpose, c rows and c step columns
        step = n if x_first else 1
        row_step, key_step = (1, step) if transposed else (step, 1)
        for w, j, v in _int_items(self.t):
            if x_first:
                r, a = divmod(j, n)
                base = row_off + w * cols * n + a
            else:
                a, r = divmod(j, rows)
                base = row_off + (w * n + a) * cols
            col, v = col_off + r * cols, factor * v
            if transposed:
                base, col = col, base
            for c in range(cols):
                # added as in signed_sum, inline: a call per entry slows
                # assembly
                row, j = out[base + c * row_step], keys[col + c * key_step]
                old = row.get(j)
                if old is None:
                    row[j] = v
                else:
                    nv = old + v
                    if nv:
                        row[j] = nv
                    else:
                        del row[j]


def assemble_terms(terms, in_shapes, out_shapes, transposed=False):
    """The matrix of the map on lists of matrix blocks whose out-block o
    is the sum of sign * term(in-block i) over its (sign, i, o, term)
    terms: the blocks read row-major and concatenated in order.  Each term
    adds its signed integer entries straight into the rows, at its block's
    offsets, scaled to the lcm of the terms' denominators.  When transposed
    it is the transpose, written as directly: each term puts entry (i, j)
    at (j, i).  Every row keys column j by one shared int object, as a
    transpose pass would: an elimination's key comparisons then find the
    same object, and a nonzero costs no int of its own."""
    terms = list(terms)
    row_off = [0, *accumulate(r * c for r, c in out_shapes)]
    col_off = [0, *accumulate(r * c for r, c in in_shapes)]
    den = lcm(*(term.den for _, _, _, term in terms))
    shape = row_off[-1], col_off[-1]
    if transposed:
        shape = shape[::-1]
    out = [{} for _ in range(shape[0])]
    keys = list(range(shape[1]))
    for sign, i, o, term in terms:
        term.write(out, keys, sign * (den // term.den), row_off[o],
                   col_off[i], *in_shapes[i], transposed)
    return Matrix._of(*shape, out, _lowest(out, den))


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
    """Forward elimination on integer rows, yielding (pivot col, pivot row)
    pairs as it finds them.

    rows are col -> integer dicts that the elimination owns: it changes
    them in place, so a caller passes rows built for it (rank and
    kernel_basis copy the matrix's).  A column index keeps, for every
    column, the set of live rows that have a nonzero there, so a pivot step
    touches only the rows it changes.  order(index, ncols) yields the pivot
    columns, reading the index as elimination goes; only columns below
    ncols are pivots.  The pivot row is the shortest live row in its column
    (ties: first given).  A lone pivot, the only live row in its column,
    changes no other row and is taken as it is; a pivot with targets is
    divided by its content first.  With a its entry and b a target row's,
    g = gcd(a, b) takes the sign of a, so the target row becomes
    (a/g) row - (b/g) pivot with a/g > 0: it is scaled only when a does not
    divide b, never by -1, and only then divided by its content, so an
    update with a | b costs the pivot's length.  Every live row is a
    nonzero multiple of the primitive row of its span with the same
    support, so the pivots chosen do not depend on where content is taken.

    A pivot row leaves the elimination when it is yielded: a caller that
    reads only the pivot columns holds no pivot row.
    """
    rows = [r for r in rows if r]
    index = [set() for _ in range(max((max(r) for r in rows), default=-1)
                                  + 1)]
    for i, r in enumerate(rows):
        for c in r:
            index[c].add(i)
    for col in order(index, ncols):
        targets = index[col]
        if len(targets) > 1:
            p = min(targets, key=lambda i: (len(rows[i]), i))
        else:
            (p,) = targets
        pivot, rows[p] = rows[p], None
        for c in pivot:
            index[c].discard(p)
        index[col] = set()
        if not targets:
            yield col, pivot
            continue
        a = _primitive(pivot)[col]
        rest = [(c, v) for c, v in pivot.items() if c != col]
        for i in targets:
            r = rows[i]
            b = r.pop(col)
            g = gcd(a, b) if a > 0 else -gcd(a, b)
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
            if fa != 1 and r:
                _primitive(r)
        yield col, pivot


def rank(m):
    """Exact row rank over the rationals; pivots sparsest column first."""
    return sum(1 for _ in _echelon([dict(r) for r in m._data], m.cols,
                                   _sparsest_first))


def _back_substitute(pivots, free_col, free_value):
    """Complete a kernel vector from the integer free_value at the
    non-pivot column free_col, 0 at the others, given the (pivot col,
    pivot row) pairs of _echelon.  The vector is kept as integers over one
    denominator, which grows by the part of each pivot its column's value
    does not cancel; returns (col -> int dict of the nonzeros, den)."""
    vec, den = {free_col: free_value}, 1
    for pc, row in reversed(pivots):
        s = 0
        for c, v in row.items():  # vec has no value at pc yet
            x = vec.get(c)
            if x:
                s += v * x
        if s:
            a = row[pc]
            g = gcd(s, a) if a > 0 else -gcd(s, a)
            if a != g:
                f = a // g
                for c in vec:
                    vec[c] *= f
                den *= f
            vec[pc] = -s // g
    return vec, den


def _columns(rows, vectors):
    """The rows x len(vectors) Matrix whose column j is vectors[j], a
    (col -> int dict, den) pair, over the lcm of the dens; coordinates
    from rows on are dropped."""
    den = lcm(*(d for _, d in vectors))
    data = [{} for _ in range(rows)]
    for j, (vec, d) in enumerate(vectors):
        f = den // d
        for i, v in vec.items():
            if i < rows:
                data[i][j] = f * v
    return Matrix._of(rows, len(vectors), data, _lowest(data, den))


def kernel_basis(m):
    """Exact basis of the right null space, in deterministic order: the
    columns of an m.cols x nullity Matrix.

    One basis vector per non-pivot column, ascending; the vector carries 1 at
    its free column and 0 at the other free columns.
    """
    pivots = list(_echelon([dict(r) for r in m._data], m.cols,
                           _column_order))
    pivot_set = {c for c, _ in pivots}
    return _columns(m.cols, [_back_substitute(pivots, j, 1)
                             for j in range(m.cols) if j not in pivot_set])


def solve_columns(m, b):
    """(x, bad): x is an m.cols x b.cols Matrix whose column j is an exact
    solution of m x_j = (column j of b), and bad the set of the columns
    of b that m x cannot equal, where x has a zero column.

    [m | b] is eliminated once in column order, so all of m's columns
    come first: the rows it leaves read 0 = (a combination of b), and a
    column of b is consistent exactly when none of them has a nonzero
    there.  Free variables are set to zero, so the answer is deterministic.
    In integers, the rows eliminated are those of den_m den_b [m | b].
    """
    if b.rows != m.rows:
        raise ValueError(f"right-hand side has {b.rows} rows, not {m.rows}")
    n, width = m.cols, m.cols + b.cols
    rows = []
    for row, extra in zip(m._data, b._data):
        out = {j: b._den * v for j, v in row.items()}
        for j, v in extra.items():
            out[n + j] = m._den * v
        rows.append(out)
    pivots = list(_echelon(rows, width, _column_order))
    r = sum(c < n for c, _ in pivots)
    bad = {c - n for _, row in pivots[r:] for c in row}
    del pivots[r:]
    # -1 at the column of b moves it to the other side of m x = b
    return _columns(n, [({}, 1) if j in bad else
                        _back_substitute(pivots, n + j, -1)
                        for j in range(b.cols)]), bad


def inverse(m):
    """Exact inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise ValueError(f"inverse needs a square matrix, got {m.rows}x{m.cols}")
    x, bad = solve_columns(m, Matrix.identity(m.rows))
    return None if bad else x


def _kills(outer, inner, width):
    """Whether the product of two lists of integer rows is zero, the rows
    of inner width long; a row of outer at a time, stopping at the first
    nonzero row.  One accumulator serves every row: each row's product is
    summed into it in full, then the entries it touched are read, and a
    row that passes leaves them all 0, so the next row starts from zero
    with no reset."""
    acc = [0] * width
    for row in outer:
        for k, v in row.items():
            for j, w in inner[k].items():
                acc[j] += v * w
        for k in row:
            for j in inner[k]:
                if acc[j]:
                    return False
    return True


def homology_dims(differentials):
    """dim ker d_k - rank d_{k-1} for each map of the complex d_0, d_1, ...

    differentials is any iterable of matrices; the map into the domain of
    d_0 is zero.  Each map is checked against the one before it for
    cols(d_k) == rows(d_{k-1}) and d_k . d_{k-1} == 0 before that one is
    ranked.  The sweep, transposed_homology_dims, runs on d.transpose() of
    each map, so the matrices given are never changed.
    """
    return transposed_homology_dims(d.transpose() for d in differentials)


def transposed_homology_dims(transposes):
    """homology_dims of the complex whose maps' transposes T_k = d_k^T are
    given, in order.  Each is a fresh matrix, sharing no row with another,
    that the sweep owns: it changes it in place and drops it once it is
    ranked.

    T_{k-1} is kept as it is until T_k arrives.  Then T_k is checked
    against it for cols(d_k) == rows(d_{k-1}) and d_k . d_{k-1} == 0,
    T_{k-1} is ranked and dropped, and the next T is awaited; the last map
    is ranked after the loop.  The elimination holds no pivot row: only its
    pivot columns are kept, as the next R.

    The rank is taken off the image of d_{k-1}.  A set R of rows of d_{k-1}
    that is a row basis of it projects im d_{k-1} one to one onto the
    coordinates in R, so C^k = im d_{k-1} (+) W, W spanned by the unit
    vectors off R.  d_k kills the image (the check above, made first, is
    what makes this exact), so rank d_k is the rank of d_k on W: of T_k
    with its rows in R emptied, which they are as soon as R is found.  The
    pivot columns of that elimination are rank d_k rows of d_k, independent
    on W and so in d_k: the next R.  The first map starts with R empty.

    The same splitting makes the check cheaper.  With R' the rows of
    d_{k-2} that d_{k-1} was ranked off, C^{k-1} = im d_{k-2} (+) W', and
    d_{k-1} kills im d_{k-2} (checked the step before), so im d_{k-1} is
    spanned by the columns of d_{k-1} off R': d_k . d_{k-1} == 0 exactly
    when T_{k-1} . T_k, the transposed product, is zero on the rows of
    T_{k-1} off R', the rows that are not yet emptied.
    """
    dims, held, held_rank = [], None, 0
    # a None after the last map ranks it in the loop, and leaves the loop
    # variable holding no matrix while it is ranked
    for k, t in enumerate(chain(transposes, [None])):
        if held is not None:
            if t is not None:
                if t.rows != held.cols:
                    raise ValueError(
                        f"not composable: d_{k} has {t.rows} cols, "
                        f"d_{k - 1} has {held.cols} rows")
                if not _kills(held._data, t._data, t.cols):
                    raise ValueError(
                        f"d_{k} . d_{k - 1} != 0: not a complex")
            # the elimination takes held's rows over and frees each as it
            # goes: held is dropped before it starts
            steps = _echelon(held._data, held.cols, _sparsest_first)
            size, held = held.rows, None
            row_basis = {c for c, _ in steps}
            dims.append(size - len(row_basis) - held_rank)
            held_rank = len(row_basis)
            if t is not None:
                for j in row_basis:
                    t._data[j] = {}
        held = t
    return dims
