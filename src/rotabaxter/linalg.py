"""Exact rational linear algebra.

Everything in this package reduces to finite-dimensional linear algebra over the
rationals, done exactly: no floats anywhere.  This module provides the scalar
type, a dense row-major matrix, a column-sparse matrix for big differentials,
multi-index flattening for tensor powers, and the workhorses rank /
kernel_basis / solve / inverse, and homology_dims, which sweeps a whole
cochain complex.  These run one elimination kernel on sparse rows and take
either matrix type.

Conventions fixed here and relied on by every other module:

* scalars are reduced rationals with positive denominator (gmpy2.mpq when
  available, fractions.Fraction otherwise -- same interface, same semantics);
* a linear map's matrix has codomain-dim rows and domain-dim columns, and
  acts on column vectors;
* tensor products flatten big-endian: the FIRST factor varies slowest.  So for
  factor dims (d1, d2) the pair (i1, i2) flattens to i1*d2 + i2.
"""

from __future__ import annotations

import re

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Q

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
    """Dense row-major matrix of Rationals.  Immutable once built."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(Q(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count must be rows*cols")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def from_rows(rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        flat = []
        for r in rows_list:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return Matrix(rows, cols, flat)

    @staticmethod
    def zero(rows, cols):
        return Matrix(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n):
        return Matrix(n, n, [ONE if i == j else ZERO
                             for i in range(n) for j in range(n)])

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def row_dicts(self):
        """Fresh col -> value dicts of the nonzeros, one per row."""
        return [{j: v for j, v in enumerate(self.row(i)) if v}
                for i in range(self.rows)]

    def is_zero(self):
        return all(e == 0 for e in self.entries)

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [self.at(i, j) for j in range(self.cols)
                       for i in range(self.rows)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shapes must agree")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shapes must agree")
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c):
        c = Q(c)
        return Matrix(self.rows, self.cols, [c * a for a in self.entries])

    def __mul__(self, other):
        """Matrix product, skipping zero entries of the right factor."""
        if not isinstance(other, Matrix):
            raise TypeError("can only multiply a Matrix by a Matrix")
        if self.cols != other.rows:
            raise ValueError("inner dimensions must agree")
        # column-sparse view of self: for each k, the nonzeros of column k
        left_cols = [[] for _ in range(self.cols)]
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                v = self.entries[base + k]
                if v:
                    left_cols[k].append((i, v))
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for k in range(other.rows):
            base = k * other.cols
            for j in range(other.cols):
                w = other.entries[base + j]
                if w:
                    for i, v in left_cols[k]:
                        out[i][j] += v * w
        return Matrix.from_rows(out) if self.rows else Matrix(0, other.cols, [])

    def apply(self, vec):
        """Apply to a column vector (any sequence of scalars)."""
        if len(vec) != self.cols:
            raise ValueError("vector length must equal cols")
        vec = [Q(v) for v in vec]
        out = []
        for i in range(self.rows):
            base = i * self.cols
            s = ZERO
            for j, v in enumerate(vec):
                if v:
                    s += self.entries[base + j] * v
            out.append(s)
        return tuple(out)

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(self.at(i, j))
                                  for j in range(self.cols))
                         for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


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

    def all_indices(self):
        """Iterate multi-indices in flattening order."""
        for flat in range(self.size):
            yield self.unflatten(flat)


def _echelon(rows_as_dicts, ncols):
    """Sparse forward elimination.  Returns (pivot rows, pivot cols).

    rows_as_dicts is consumed.  Each returned row is a dict col->value with its
    pivot at the matching entry of pivot_cols.  Deterministic: the pivot column
    is the smallest column carrying a nonzero; among candidate rows the one
    with fewest nonzeros (ties: first seen) is chosen.
    """
    live = [r for r in rows_as_dicts if r]
    pivots = []
    pivot_cols = []
    col = 0
    while live and col < ncols:
        cand = [r for r in live if col in r]
        if not cand:
            col += 1
            continue
        shortest = min(len(r) for r in cand)
        best = next(r for r in cand if len(r) == shortest)
        live.remove(best)
        pv = best[col]
        inv = ONE / pv
        best = {c: v * inv for c, v in best.items()}
        for r in live:
            f = r.get(col)
            if f:
                for c, v in best.items():
                    nv = r.get(c, ZERO) - f * v
                    if nv:
                        r[c] = nv
                    elif c in r:
                        del r[c]
        live = [r for r in live if r]
        pivots.append(best)
        pivot_cols.append(col)
        col += 1
    return pivots, pivot_cols


def rank(m):
    """Exact row rank over the rationals."""
    pivots, _ = _echelon(m.row_dicts(), m.cols)
    return len(pivots)


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
        vec[pc] = -s  # pivot entry normalized to 1
    return tuple(vec)


def kernel_basis(m):
    """Exact basis of the right null space, in deterministic order.

    One basis vector per non-pivot column, ascending; the vector carries 1 at
    its free column and 0 at the other free columns.
    """
    pivots, pivot_cols = _echelon(m.row_dicts(), m.cols)
    pivot_set = set(pivot_cols)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        basis.append(_back_substitute(pivots, pivot_cols, {j: ONE}, m.cols))
    return basis


def solve(m, rhs):
    """Any exact solution x of m x = rhs, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(rhs) != m.rows:
        raise ValueError(f"rhs length {len(rhs)} != rows {m.rows}")
    rows = m.row_dicts()
    aug = m.cols  # rhs lives in an extra column
    for row, b in zip(rows, rhs):
        b = Q(b)
        if b:
            row[aug] = b
    pivots, pivot_cols = _echelon(rows, aug + 1)
    if aug in pivot_cols:
        return None  # a row reduced to 0 = nonzero
    # -1 at the rhs column moves it to the other side of m x = rhs
    return _back_substitute(pivots, pivot_cols, {aug: -ONE}, aug + 1)[:aug]


def inverse(m):
    """Exact inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise ValueError(f"inverse needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    rows = m.row_dicts()
    for i, row in enumerate(rows):
        row[n + i] = ONE  # [m | I], pivots only among the first n columns
    pivots, pivot_cols = _echelon(rows, n)
    if len(pivots) < n:
        return None
    # column j of the inverse solves m x = e_j
    cols = [_back_substitute(pivots, pivot_cols, {n + j: -ONE}, 2 * n)
            for j in range(n)]
    return Matrix(n, n, [cols[j][i] for i in range(n) for j in range(n)])


def homology_dims(differentials):
    """dim ker d_k - rank d_{k-1} for each map of the complex d_0, d_1, ...

    differentials is any iterable of matrices of either type; the map into
    the domain of d_0 is zero.  Each map is ranked once, checked against the
    one before it for cols(d_k) == rows(d_{k-1}) and d_k . d_{k-1} == 0, and
    dropped after its successor.
    """
    dims = []
    inner, inner_rank = None, 0
    for k, d in enumerate(differentials):
        rows = d.row_dicts()
        if inner is not None:
            if d.cols != len(inner):
                raise ValueError(
                    f"not composable: d_{k} has {d.cols} cols, "
                    f"d_{k - 1} has {len(inner)} rows")
            for row in rows:
                acc = {}
                for i, v in row.items():
                    for j, w in inner[i].items():
                        acc[j] = acc.get(j, ZERO) + v * w
                if any(acc.values()):
                    raise ValueError(
                        f"d_{k} . d_{k - 1} != 0: not a complex")
        r = rank(d)
        dims.append(d.cols - r - inner_rank)
        inner, inner_rank = rows, r
    return dims


class SparseBuilder:
    """Column-sparse accumulator for big differential matrices.

    Large coboundary matrices are built here entry by entry.  rank,
    kernel_basis, solve, inverse and homology_dims take it as they take a
    Matrix; to_matrix gives the dense form.
    """

    __slots__ = ("rows", "cols", "cols_data")

    def __init__(self, rows, cols):
        self.rows = rows
        self.cols = cols
        self.cols_data = [dict() for _ in range(cols)]

    def add(self, i, j, val):
        if not val:
            return
        col = self.cols_data[j]
        nv = col.get(i, ZERO) + val
        if nv:
            col[i] = nv
        elif i in col:
            del col[i]

    def compose(self, other):
        """self . other as SparseBuilder."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions must agree")
        out = SparseBuilder(self.rows, other.cols)
        for j, col in enumerate(other.cols_data):
            acc = out.cols_data[j]
            for k, w in col.items():
                for i, v in self.cols_data[k].items():
                    nv = acc.get(i, ZERO) + v * w
                    if nv:
                        acc[i] = nv
                    elif i in acc:
                        del acc[i]
        return out

    def is_zero(self):
        return all(not c for c in self.cols_data)

    def nonzero_items(self):
        for j, col in enumerate(self.cols_data):
            for i, v in col.items():
                yield i, j, v

    def row_dicts(self):
        """Fresh col -> value dicts of the nonzeros, one per row."""
        out = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.cols_data):
            for i, v in col.items():
                out[i][j] = v
        return out

    def to_matrix(self):
        flat = [ZERO] * (self.rows * self.cols)
        for j, col in enumerate(self.cols_data):
            for i, v in col.items():
                flat[i * self.cols + j] = v
        return Matrix(self.rows, self.cols, flat)

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length must equal cols")
        out = [ZERO] * self.rows
        for j, v in enumerate(vec):
            if v:
                for i, w in self.cols_data[j].items():
                    out[i] += w * v
        return tuple(out)
