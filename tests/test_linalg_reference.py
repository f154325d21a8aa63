"""Every Matrix operation against the Fraction-dict reference of
tests/helpers.py, on matrices drawn with mixed denominators.

A Matrix stores integers over one denominator in lowest terms, so a
result must read the reference's values, compare == to the matrix built
from those values, and be is_zero exactly when they are all 0.

The elimination behind rank, kernel_basis, solve_columns and
homology_dims is checked against the textbook Gauss-Jordan of
tests/helpers.py, and for invariance: scaling rows by nonzero integers,
negative ones included, must not change any of their answers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rotabaxter.fileformat import parse_document
from rotabaxter.linalg import (
    Matrix, OnColumns, Product, Q, assemble_terms, bilinear_on_columns,
    format_matrix, format_rational, kernel_basis, kron, parse_ratio, rank,
    ratio_matrix, solve_columns,
)
from rotabaxter.rrb import RMatrix

from helpers import (
    apply, at, dual_numbers, from_columns, from_nested,
    gauss_jordan_rank, homology_dims, parse_rational, ref_apply,
    ref_assemble_terms, ref_from_blocks, ref_kron, ref_mul, ref_of,
    ref_transpose, reference_elimination, reference_solve_columns,
)

SETTINGS = settings(max_examples=150, deadline=None, database=None)

# 0 half the time, else a numerator over one of several denominators
SCALARS = st.one_of(st.just(Q(0)), st.builds(
    Q, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 9))))


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    return Matrix(rows, cols, draw(st.lists(
        SCALARS, min_size=rows * cols, max_size=rows * cols)))


def agrees(m, ref):
    """m holds exactly the reference's values, in lowest terms."""
    rows, cols, entries = ref
    assert (m.rows, m.cols) == (rows, cols)
    assert ref_of(m)[2] == entries
    assert all(type(v) is Q for _, _, v in m.nonzero_items())
    assert m == Matrix(rows, cols, [entries.get((i, j), 0)
                                    for i in range(rows) for j in range(cols)])
    assert m.is_zero() == (not entries)


@SETTINGS
@given(st.data())
def test_product(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    agrees(a * b, ref_mul(ref_of(a), ref_of(b)))


@SETTINGS
@given(matrices(), matrices())
def test_kron(a, b):
    agrees(kron(a, b), ref_kron(ref_of(a), ref_of(b)))


@SETTINGS
@given(st.data())
def test_bilinear_on_columns(data):
    # m on the flattened U (x) V, applied to the columns of x and of y
    x, y = data.draw(matrices()), data.draw(matrices())
    m = data.draw(matrices(cols=x.rows * y.rows))
    got = bilinear_on_columns(m, x, y)
    agrees(got, ref_mul(ref_of(m), ref_kron(ref_of(x), ref_of(y))))
    assert got == m * kron(x, y)


# file scalars: ints, and 'p' or 'p/q' with signs on either part, over
# denominators that share factors, so the lcm is not in lowest terms
TEXTS = st.one_of(
    st.integers(-9, 9),
    st.sampled_from(("2/4", "1/-2", "-0", "+3", "0/5", "-6/-9", "4/6")),
    st.builds("{}{}/{}{}".format, st.sampled_from(("", "+", "-")),
              st.integers(0, 12), st.sampled_from(("", "+", "-")),
              st.sampled_from((1, 2, 4, 6, 8, 12))))


@SETTINGS
@given(st.data())
def test_parsed_files_store_what_the_rationals_would(data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    texts = data.draw(st.lists(TEXTS, min_size=rows * cols,
                               max_size=rows * cols))
    want = Matrix(rows, cols, [parse_rational(t) for t in texts])
    got = ratio_matrix(rows, cols, [parse_ratio(t) for t in texts])
    agrees(got, ref_of(want))
    assert format_matrix(got) == format_matrix(want)
    # the same entries read column by column are the transpose
    assert ratio_matrix(cols, rows, [parse_ratio(t) for t in texts],
                        by_columns=True) == want.transpose()
    # and through the file parser, as a linear and as a bilinear map
    dl = data.draw(st.integers(0, 2))
    doc = {"field": "Q",
           "spaces": {"R": {"dim": rows}, "C": {"dim": cols},
                      "L": {"dim": dl}},
           "linear": {"f": {"from": "C", "to": "R", "matrix": [
               texts[i * cols:(i + 1) * cols] for i in range(rows)]}},
           "bilinear": {"c": {"from": ["L", "R"], "to": "C", "tensor": [
               [texts[i * cols:(i + 1) * cols] for i in range(rows)]
               for _ in range(dl)]}}}
    sf = parse_document(doc)
    assert sf.linear["f"] == want
    nested = [[[parse_rational(t) for t in texts[i * cols:(i + 1) * cols]]
               for i in range(rows)] for _ in range(dl)]
    assert sf.bilinear["c"] == from_nested(dl, rows, cols, nested)


def test_parse_ratio_keeps_the_pair_unreduced():
    assert [parse_ratio(t) for t in ("2/4", "1/-2", "-0", "+3", "-6/-9")] \
        == [(2, 4), (-1, 2), (0, 1), (3, 1), (6, 9)]
    assert parse_ratio(7) == (7, 1)
    for bad in (True, False, None, 0.5, "1 /2", "1_0", "", "1/0"):
        with pytest.raises(ValueError):
            parse_ratio(bad)
    # the lcm 12 of 4 and 6 shares the factor 2 with every numerator
    m = ratio_matrix(1, 2, [parse_ratio("2/4"), parse_ratio("4/6")])
    assert m == Matrix(1, 2, [Q(1, 2), Q(2, 3)])
    assert format_matrix(m) == [["1/2", "2/3"]]


@SETTINGS
@given(st.data())
def test_format_matrix(data):
    a = data.draw(matrices())
    assert format_matrix(a) == [[format_rational(v) for v in a.row(i)]
                                for i in range(a.rows)]
    assert format_matrix(a, by_columns=True) == [
        [format_rational(v) for v in a.column(j)] for j in range(a.cols)]


@SETTINGS
@given(st.data())
def test_from_blocks(data):
    """1-4 blocks with signs +1 and -1, each placed anywhere it fits, so
    blocks overlap or not, or all of the matrix's shape at (0, 0); with
    mixed denominators, and half the time the first block again with the
    other sign, so its sum cancels."""
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    whole = data.draw(st.booleans())
    blocks = []
    for _ in range(data.draw(st.integers(1, 4))):
        m = data.draw(matrices(rows, cols) if whole else matrices(
            data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))))
        blocks.append((data.draw(st.sampled_from((1, -1))), m,
                       data.draw(st.integers(0, rows - m.rows)),
                       data.draw(st.integers(0, cols - m.cols))))
    if data.draw(st.booleans()):
        sign, m, r, c = blocks[0]
        blocks.append((-sign, m, r, c))
    before = [ref_of(m) for _, m, _, _ in blocks]
    agrees(Matrix.from_blocks(rows, cols, blocks),
           ref_from_blocks(rows, cols, [(s, ref_of(m), r, c)
                                        for s, m, r, c in blocks]))
    assert [ref_of(m) for _, m, _, _ in blocks] == before  # unchanged
    # + and - are the blocks of one shape at the corner
    first = blocks[0][1]
    agrees(first + first - first, ref_of(first))


@SETTINGS
@given(matrices())
def test_transpose_and_negation(a):
    agrees(a.transpose(), ref_transpose(ref_of(a)))
    rows, cols, entries = ref_of(a)
    agrees(-a, (rows, cols, {ij: -v for ij, v in entries.items()}))


@SETTINGS
@given(st.data())
def test_from_entries(data):
    # any entries, zero values and ints among them, over mixed
    # denominators: the matrix holds the nonzeros in lowest terms
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entries = data.draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        st.one_of(SCALARS, st.integers(-3, 3)), max_size=12))
    m = Matrix.from_entries(rows, cols, entries)
    want = (rows, cols, {ij: Fraction(v) for ij, v in entries.items() if v})
    # a copy that keeps the denominator, read before anything else
    read = data.draw(st.sampled_from(("transpose", "negation", "itself")))
    if read == "transpose":
        agrees(m.transpose(), ref_transpose(want))
    elif read == "negation":
        agrees(-m, (rows, cols, {ij: -v for ij, v in want[2].items()}))
    agrees(m, want)


@SETTINGS
@given(st.data())
def test_apply(data):
    a = data.draw(matrices())
    vec = data.draw(st.lists(st.one_of(SCALARS, st.integers(-3, 3)),
                             min_size=a.cols, max_size=a.cols))
    out = apply(a, vec)
    assert out == ref_apply(ref_of(a), vec)
    assert all(type(v) is Q for v in out)


@st.composite
def dims_of_product(draw, total, m):
    """m dimensions whose product is total: for a nonzero total, 1 or 2
    while they divide what is left, then the rest; for 0, each 0-2 with
    at least one 0."""
    dims, rest = [], total
    for _ in range(m - 1):
        dims.append(draw(st.sampled_from(
            [d for d in (1, 2) if rest % d == 0] if total else (0, 1, 2))))
        rest //= dims[-1] or 1
    if total:
        return dims + [rest]
    return dims + [draw(st.integers(0, 2)) if 0 in dims else 0]


@st.composite
def kron_factors(draw, rows, cols):
    """1-3 Kronecker factors whose product is rows x cols: 0-row and
    0-column ones, identities and any denominator among them."""
    m = draw(st.integers(1, 3))
    factors = []
    for r, c in zip(draw(dims_of_product(rows, m)),
                    draw(dims_of_product(cols, m))):
        factors.append(Matrix.identity(r) if r == c and draw(st.booleans())
                       else draw(matrices(r, c)))
    return tuple(factors)


@st.composite
def term_lists(draw):
    """Terms on two in-blocks with cols columns into two out-blocks with
    n cols columns, as assemble_terms takes them; a Product's right factor
    is cols x n cols, the product of its factors."""
    n, cols = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    in_shapes = [(draw(st.integers(0, 2)), cols) for _ in range(2)]
    out_shapes = [(draw(st.integers(0, 2)), n * cols) for _ in range(2)]
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from((1, -1)))
        i, o = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        rows, out_rows = in_shapes[i][0], out_shapes[o][0]
        kind = draw(st.sampled_from(("p q", "q", "t", "t x_first")))
        if kind == "q" and rows != out_rows:
            kind = "p q"
        qs = draw(kron_factors(cols, n * cols))
        if kind == "p q":
            term = Product(draw(matrices(out_rows, rows)), qs)
        elif kind == "q":
            term = Product(None, qs)
        else:
            term = OnColumns(draw(matrices(out_rows, n * rows)), n,
                             x_first=kind == "t x_first")
        terms.append((sign, i, o, term))
    return terms, in_shapes, out_shapes


@SETTINGS
@given(term_lists(), st.booleans())
def test_assemble_terms(case, cancel):
    terms, in_shapes, out_shapes = case
    if cancel:  # every term once more with the other sign: the zero map
        terms = terms + [(-s, i, o, t) for s, i, o, t in terms]
    m = assemble_terms(terms, in_shapes, out_shapes)
    agrees(m, ref_assemble_terms(terms, in_shapes, out_shapes))
    assert assemble_terms(terms, in_shapes, out_shapes, transposed=True) \
        == m.transpose()


def test_equal_values_compare_equal():
    # 1/2 + 1/2 is the integer 1 however it was reached
    half = Matrix(1, 1, [Q(1, 2)])
    for one in (half + half, Matrix.from_entries(1, 1, {(0, 0): "2/2"}),
                Matrix(1, 1, ["2/2"]),
                Matrix.from_blocks(1, 1, [(1, half, 0, 0), (1, half, 0, 0)]),
                kron(half, Matrix(1, 1, [2])), half * Matrix(1, 1, [2])):
        assert one == Matrix.identity(1)
    third, five = Matrix(1, 1, [Q(1, 3)]), Matrix(1, 1, [5])
    blocks = [(1, Matrix(2, 2, [Q(1, 3), 0, 0, 5]), 0, 0), (-1, third, 0, 0)]
    cancelled = Matrix.from_blocks(2, 2, blocks)
    assert cancelled == Matrix(2, 2, [0, 0, 0, 5])
    cancelled = Matrix.from_blocks(2, 2, blocks + [(-1, five, 1, 1)])
    assert cancelled == Matrix.zero(2, 2) and cancelled.is_zero()


@pytest.mark.parametrize("value", [0.5, 0.0, 0.1, 1j, complex(1, 0)])
@pytest.mark.parametrize("entry_point", [
    lambda v: Matrix(1, 2, [1, v]),
    lambda v: Matrix.from_rows([[v, 1]]),
    lambda v: Matrix.from_entries(2, 2, {(0, 1): v}),
    lambda v: apply(Matrix.identity(2), (v, 1)),
    lambda v: solve_columns(Matrix.identity(2), Matrix(2, 1, (1, v))),
    lambda v: RMatrix(dual_numbers(), Matrix.from_rows([[v, 0], [0, 1]])),
    format_rational,
], ids=["Matrix", "from_rows", "from_entries", "apply", "solve", "RMatrix",
        "format_rational"])
def test_inexact_scalars_are_refused(entry_point, value):
    # a float is not an exact rational: 0.1 would be stored as
    # 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        entry_point(value)


def test_format_rational_takes_rationals_and_ints():
    assert [format_rational(v) for v in (Q(-3, 6), Q(4, 2), 5, -0, "3/6")] \
        == ["-1/2", "2", "5", "0", "1/2"]


# ---------------------------------------------------------------------------
# elimination: invariance under row scaling, and the Gauss-Jordan reference

# nonzero multipliers, negative half the time
MULTIPLIERS = st.sampled_from((-1, -1, -2, -3, 1, 2, 3, 6))


@st.composite
def low_rank(draw):
    """A product a * c through an inner dimension of 1 to 6, so the rank
    is often below both sides and rows are combinations of others."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    inner = draw(st.integers(1, 6))
    return (draw(matrices(rows=rows, cols=inner))
            * draw(matrices(rows=inner, cols=cols)))


def rescaled(m, row_factors, col_factors=None):
    """diag(row_factors) m diag(col_factors)^-1; with col_factors left out,
    m with row i multiplied by row_factors[i]."""
    col_factors = col_factors or [1] * m.cols
    return Matrix(m.rows, m.cols, [Q(row_factors[i]) * at(m, i, j)
                                   / col_factors[j]
                                   for i in range(m.rows)
                                   for j in range(m.cols)])


def rescaled_complex(maps, factors):
    """The complex in the basis of each space scaled by a prefix of
    factors: d_k becomes D_{k+1} d_k D_k^-1, so the rows and the columns
    of every map are scaled, and it is still a complex."""
    return [rescaled(d, factors[:d.rows], factors[:d.cols]) for d in maps]


def kernels(m, b):
    """rank, the kernel basis and the solutions of m x = (each column of
    b) with the set of columns that have none."""
    return rank(m), kernel_basis(m), solve_columns(m, b)


def reference_kernels(m, b):
    basis, _, pivots, _ = reference_elimination(m, [0] * m.rows)
    return (len(pivots), from_columns(m.cols, basis),
            reference_solve_columns(m, b))


def complexes(m):
    """Two complexes d_0, d_1 from m: (its kernel basis, m) and their
    transposes in the other order, so that homology_dims eliminates the
    columns of m in one and its rows in the other."""
    kernel = kernel_basis(m)
    return [kernel, m], [m.transpose(), kernel.transpose()]


def reference_homology(maps):
    ranks = [gauss_jordan_rank(d) for d in maps]
    return [d.cols - r - r_in for d, r, r_in in zip(maps, ranks, [0, *ranks])]


def check_scaling_invariance(m, b, factors):
    """factors covers the rows and the columns of m."""
    row_factors = factors[:m.rows]
    assert kernels(rescaled(m, row_factors), rescaled(b, row_factors)) \
        == kernels(m, b) == reference_kernels(m, b)
    for maps in complexes(m):
        want = reference_homology(maps)
        assert homology_dims(maps) == want
        assert homology_dims(rescaled_complex(maps, factors)) == want


@SETTINGS
@given(st.data())
def test_elimination_ignores_row_scaling(data):
    m = data.draw(low_rank())
    b = data.draw(matrices(rows=m.rows, cols=data.draw(st.integers(1, 3))))
    # half the columns of b are images m x, so both answers occur
    x = data.draw(matrices(rows=m.cols, cols=b.cols))
    b = from_columns(m.rows, [apply(m, x.column(j)) if j % 2
                                     else b.column(j) for j in range(b.cols)])
    factors = data.draw(st.lists(MULTIPLIERS, min_size=max(m.rows, m.cols),
                                 max_size=max(m.rows, m.cols)))
    check_scaling_invariance(m, b, factors)


def test_unit_negative_pivots_under_long_rows():
    """Every pivot entry is -1 and the rows it is eliminated from are full:
    twelve rows -e_i + (i % 3 + 1) e_{12 + i % 3}, and four full rows that
    are combinations of them.  Each pivot is one of the short rows, in
    either pivot order, and -1 divides every entry it meets, so no update
    needs to scale the full rows it touches."""
    n = 12
    short = [[-1 if j == i else i % 3 + 1 if j == n + i % 3 else 0
              for j in range(n + 3)] for i in range(n)]
    full = [[sum(((i + 2 * k) % 5 + 1) * row[j] for i, row in enumerate(short))
             for j in range(n + 3)] for k in range(4)]
    assert all(all(row) for row in full)
    m = Matrix.from_rows(full + short)
    x = [Q(j % 4 - 1, 2) for j in range(n + 3)]
    b = from_columns(m.rows, [apply(m, x), [1] + [0] * (m.rows - 1)])
    r, _, (_, bad) = kernels(m, b)
    assert r == n and bad == {1}
    check_scaling_invariance(m, b, [-1] * m.rows)
    check_scaling_invariance(m, b, [(-1) ** i * (i % 3 + 1)
                                    for i in range(m.rows)])
