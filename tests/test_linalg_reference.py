"""Every Matrix operation against the Fraction-dict reference of
tests/helpers.py, on matrices drawn with mixed denominators.

A Matrix stores integers over one denominator in lowest terms, so a
result must read the reference's values, compare == to the matrix built
from those values, and be is_zero exactly when they are all 0."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rotabaxter.linalg import (
    Matrix, OnColumns, Product, Q, assemble_terms, kron, paste, signed_sum,
    solve,
)

from helpers import (
    ref_apply, ref_assemble_terms, ref_kron, ref_mul, ref_of, ref_paste,
    ref_signed_sum, ref_transpose,
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
def test_signed_sum(data):
    first = data.draw(matrices())
    shape = matrices(first.rows, first.cols)
    terms = [(1, first)] + [(data.draw(st.sampled_from((1, -1))),
                             data.draw(shape))
                            for _ in range(data.draw(st.integers(0, 3)))]
    if data.draw(st.booleans()):  # the first term cancels out
        terms.append((-1, first))
    agrees(signed_sum(terms),
           ref_signed_sum([(s, ref_of(m)) for s, m in terms]))
    agrees(first + first - first, ref_of(first))


@SETTINGS
@given(st.data())
def test_paste(data):
    dst = data.draw(matrices())
    src = data.draw(matrices(data.draw(st.integers(0, dst.rows)),
                             data.draw(st.integers(0, dst.cols))))
    row_off = data.draw(st.integers(0, dst.rows - src.rows))
    col_off = data.draw(st.integers(0, dst.cols - src.cols))
    want = ref_paste(ref_of(dst), ref_of(src), row_off, col_off)
    agrees(paste(dst, src, row_off, col_off), want)
    agrees(dst, want)  # in place


@SETTINGS
@given(matrices())
def test_transpose_and_negation(a):
    agrees(a.transpose(), ref_transpose(ref_of(a)))
    rows, cols, entries = ref_of(a)
    agrees(-a, (rows, cols, {ij: -v for ij, v in entries.items()}))


@SETTINGS
@given(st.data())
def test_add(data):
    # entry by entry, each value sometimes added back negated, so entries
    # cancel and the denominator must shrink again
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m, want = Matrix(rows, cols), {}
    for _ in range(data.draw(st.integers(0, 12))):
        i = data.draw(st.integers(0, rows - 1))
        j = data.draw(st.integers(0, cols - 1))
        for v in [data.draw(SCALARS)] * data.draw(st.integers(1, 2)):
            if data.draw(st.booleans()):
                v = -v
            m.add(i, j, v)
            want[i, j] = want.get((i, j), Fraction(0)) + v
    want = (rows, cols, {ij: v for ij, v in want.items() if v})
    # a copy that keeps the denominator, read before anything else, must
    # not keep a common factor add left
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
    out = a.apply(vec)
    assert out == ref_apply(ref_of(a), vec)
    assert all(type(v) is Q for v in out)


@st.composite
def term_lists(draw):
    """Terms on two in-blocks with cols columns into two out-blocks with
    n cols columns, as assemble_terms takes them."""
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
        q = draw(matrices(cols, n * cols))
        if kind == "p q":
            term = Product(draw(matrices(out_rows, rows)), q)
        elif kind == "q":
            term = Product(None, q)
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
    agrees(assemble_terms(terms, in_shapes, out_shapes),
           ref_assemble_terms(terms, in_shapes, out_shapes))


def test_equal_values_compare_equal():
    # 1/2 + 1/2 is the integer 1 however it was reached
    half = Matrix(1, 1, [Q(1, 2)])
    built = Matrix(1, 1)
    built.add(0, 0, Q(1, 2))
    built.add(0, 0, "1/2")
    for one in (half + half, built, Matrix(1, 1, ["2/2"]),
                kron(half, Matrix(1, 1, [2])), half * Matrix(1, 1, [2])):
        assert one == Matrix.identity(1)
    # read first through a copy, which must not keep add's factor 2
    for read, want in ((Matrix.transpose, 1), (Matrix.__neg__, -1)):
        built = Matrix(1, 1)
        built.add(0, 0, Q(1, 2))
        built.add(0, 0, Q(1, 2))
        assert read(built).at(0, 0) == want
    cancelled = Matrix(2, 2, [Q(1, 3), 0, 0, 5])
    cancelled.add(0, 0, Q(-1, 3))
    assert cancelled == Matrix(2, 2, [0, 0, 0, 5])
    cancelled.add(1, 1, -5)
    assert cancelled == Matrix.zero(2, 2) and cancelled.is_zero()


@pytest.mark.parametrize("value", [0.5, 0.0, 0.1, 1j, complex(1, 0)])
@pytest.mark.parametrize("entry_point", [
    lambda v: Matrix(1, 2, [1, v]),
    lambda v: Matrix.from_rows([[v, 1]]),
    lambda v: Matrix(2, 2).add(0, 1, v),
    lambda v: Matrix.identity(2).apply((v, 1)),
    lambda v: solve(Matrix.identity(2), (1, v)),
], ids=["Matrix", "from_rows", "add", "apply", "solve"])
def test_inexact_scalars_are_refused(entry_point, value):
    # a float is not an exact rational: 0.1 would be stored as
    # 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        entry_point(value)
