"""Small hand-built structures and a reference Gauss-Jordan elimination
shared across test modules."""

from fractions import Fraction

from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, LinearMap, StructureConstants,
)
from rotabaxter.linalg import Matrix, Q
from rotabaxter.rrb import RelativeRBAlgebra


def sc(dim_left, dim_right, dim_out, entries):
    """Structure constants from a sparse {(i,j,k): value} dict."""
    t = StructureConstants.zero(dim_left, dim_right, dim_out)
    data = [[[v for v in row] for row in plane] for plane in t.data]
    for (i, j, k), v in entries.items():
        data[i][j][k] = Q(v)
    return StructureConstants(dim_left, dim_right, dim_out, data)


def linmap(rows):
    return LinearMap.from_matrix(Matrix.from_rows([[Q(x) for x in r]
                                                   for r in rows]))


def field_algebra():
    """The base field as a 1-dimensional algebra, e.e = e."""
    return AssocAlgebra(1, sc(1, 1, 1, {(0, 0, 0): 1}))


def dual_numbers():
    """k[x]/(x^2), basis (1, x)."""
    return AssocAlgebra(2, sc(2, 2, 2, {(0, 0, 0): 1, (0, 1, 1): 1,
                                        (1, 0, 1): 1}))


def truncated_cubic():
    """k[x]/(x^3), basis (1, x, x^2)."""
    e = {}
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                e[(i, j, i + j)] = 1
    return AssocAlgebra(3, sc(3, 3, 3, e))


def zero_rrb(dim_a=1, dim_m=1):
    """All products, actions and operator identically zero."""
    alg = AssocAlgebra.zero(dim_a)
    return RelativeRBAlgebra.zero_operator(Bimodule.zero_actions(alg, dim_m))


def field_adjoint_rrb():
    """A = k with e.e = e, M = adjoint, R = 0."""
    return RelativeRBAlgebra.zero_operator(Bimodule.adjoint(field_algebra()))


def one_sided_rrb():
    """A = k, M 1-dim with only the right action m.e = m, R = identity.

    Passes the relative Rota-Baxter identity: R(m)R(m) = e and
    R(R(m).m + m.R(m)) = R(0 + m) = e.
    """
    alg = field_algebra()
    mod = Bimodule(alg, 1, sc(1, 1, 1, {}), sc(1, 1, 1, {(0, 0, 0): 1}))
    return RelativeRBAlgebra(alg, mod, linmap([[1]]))


def nilpotent_shift_rrb():
    """A = k[x]/(x^2), M = adjoint, R(1) = x, R(x) = 0.

    Both sides of the relative Rota-Baxter identity land in x^2 = 0.
    """
    alg = dual_numbers()
    return RelativeRBAlgebra(alg, Bimodule.adjoint(alg),
                             linmap([[0, 0], [1, 0]]))


# ---------------------------------------------------------------------------
# Reference linear algebra: textbook Gauss-Jordan on dense Fraction rows.  It
# shares no code with rotabaxter.linalg, so the kernels are checked against
# an independent implementation of their documented output.


def gauss_jordan(rows, ncols):
    """Reduced row echelon form of dense rows, pivots only among the first
    ncols columns, each the first nonzero at or below the current row.

    Returns (reduced rows, pivot columns, pivot rows): the reduced pivot rows
    come first, and pivot rows lists the index each had in the input.  Those
    input rows are independent and span the row space.
    """
    rows = [[Fraction(v) for v in row] for row in rows]
    order = list(range(len(rows)))
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        r = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if r is None:
            continue
        rows[top], rows[r] = rows[r], rows[top]
        order[top], order[r] = order[r], order[top]
        inv = 1 / rows[top][col]
        prow = rows[top] = [v * inv for v in rows[top]]
        nonzero = [c for c, v in enumerate(prow) if v]
        for i, row in enumerate(rows):
            f = row[col]
            if i != top and f:
                for c in nonzero:
                    row[c] -= f * prow[c]
        pivots.append(col)
    return rows, pivots, order[:len(pivots)]


def dense_rows(m):
    return [list(m.row(i)) for i in range(m.rows)]


def reference_elimination(m, rhs):
    """One Gauss-Jordan pass over [m | rhs].

    Returns (kernel basis, solution, pivot columns, pivot rows).  The basis
    has one vector per free column, ascending, with 1 there and 0 at the
    other free columns.  The solution of m x = rhs has every free variable
    0, or is None when there is none.
    """
    rows, pivots, pivot_rows = gauss_jordan(
        [row + [b] for row, b in zip(dense_rows(m), rhs)], m.cols)
    basis = []
    for j in range(m.cols):
        if j in pivots:
            continue
        vec = [Fraction(0)] * m.cols
        vec[j] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[j]
        basis.append(tuple(vec))
    solution = None
    if not any(row[-1] for row in rows[len(pivots):]):
        solution = [Fraction(0)] * m.cols
        for row, pc in zip(rows, pivots):
            solution[pc] = row[-1]
        solution = tuple(solution)
    return basis, solution, pivots, pivot_rows


def reference_inverse(m):
    """The inverse as dense rows, or None when m is singular."""
    n = m.rows
    rows, pivots, _ = gauss_jordan(
        [row + [int(i == j) for j in range(n)]
         for i, row in enumerate(dense_rows(m))], n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in rows]
