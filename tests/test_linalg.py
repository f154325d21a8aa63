"""Exact linear algebra kernel: frozen examples plus randomized invariants."""

import gc
import random

import pytest

from rotabaxter import linalg
from rotabaxter.algebra import StructureConstants
from rotabaxter.linalg import (
    Matrix, OnColumns, Product, Q, assemble_terms,
    bilinear_on_columns, format_matrix, format_rational, inverse,
    kernel_basis, kron, rank, solve_columns, stacked, stacked_row,
    unstacked,
)

from helpers import (
    TensorIndex, apply, at, flatten, from_columns, full_rank_dims,
    gauss_jordan_rank, homology_dims, kron_chain, on_basis, parse_rational,
    ref_on_columns_matrix, reference_elimination, reference_inverse,
    reference_solve_columns, row_dicts,
)


def mat(rows):
    return Matrix.from_rows([[Q(x) for x in r] for r in rows])


class TestRational:
    def test_parse_plain_and_fraction(self):
        assert parse_rational("3") == 3
        assert parse_rational("-7/2") == Q(-7, 2)
        assert parse_rational("4/6") == Q(2, 3)

    def test_parse_rejects_garbage(self):
        for bad in ["1/0", "x", "1.5", "1/ 2 /3", "", "1_0", " 0 ", "1/2\n",
                    "\u0663", True, False]:
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_format_round_trips(self):
        for s in ["0", "5", "-3", "1/2", "-9/7"]:
            assert format_rational(parse_rational(s)) == s


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(2)) == 2

    def test_zero(self):
        assert rank(Matrix.zero(2, 2)) == 0

    def test_dependent_rows(self):
        assert rank(mat([[1, 2], [2, 4]])) == 1


def column(*values):
    return Matrix(len(values), 1, values)


class TestKernelBasis:
    def test_injective(self):
        assert kernel_basis(Matrix.identity(2)) == Matrix.zero(2, 0)

    def test_zero_map(self):
        assert kernel_basis(Matrix.zero(1, 2)) == Matrix.identity(2)

    def test_dependent_rows(self):
        basis = kernel_basis(mat([[1, 2], [2, 4]]))
        assert (basis.rows, basis.cols) == (2, 1)
        v = basis.column(0)
        # proportional to (2, -1)
        assert v[0] * Q(-1) == v[1] * Q(2)
        assert any(x != 0 for x in v)


class TestSolve:
    """solve_columns on one right-hand side."""

    def test_identity(self):
        assert solve_columns(Matrix.identity(2), column(3, 5)) == \
            (column(3, 5), set())

    def test_inconsistent(self):
        assert solve_columns(Matrix.zero(2, 2), column(1, 0)) == \
            (Matrix.zero(2, 1), {0})

    def test_diagonal(self):
        assert solve_columns(mat([[2, 0], [0, 4]]), column(1, 1)) == \
            (column(Q(1, 2), Q(1, 4)), set())

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            solve_columns(Matrix.identity(2), column(1, 2, 3))


class TestHomologyDim:
    """Each case is the complex d_0, d_1; the map into d_0's domain is 0."""

    def test_zero_differentials(self):
        assert homology_dims([Matrix.zero(3, 1), Matrix.zero(1, 3)]) == [1, 3]

    def test_injective_out(self):
        assert homology_dims([Matrix.zero(2, 1), Matrix.identity(2)]) == \
            [1, 0]

    def test_exact_in_middle(self):
        assert homology_dims([mat([[2], [-1]]), mat([[1, 2]])]) == [0, 0]

    def test_rejects_noncomplex(self):
        with pytest.raises(ValueError):
            homology_dims([Matrix.identity(2), Matrix.identity(2)])

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            homology_dims([Matrix.zero(3, 1), Matrix.zero(1, 2)])

    def test_rejects_sparse_noncomplex(self):
        d_out = Matrix.from_entries(1, 2, {(0, 0): 1, (0, 1): 1})
        d_in = Matrix.from_entries(2, 1, {(0, 0): 1, (1, 0): 2})
        with pytest.raises(ValueError, match="not a complex"):
            homology_dims(iter([d_in, d_out]))
        # now d_in = (1, -1)^T and d_out . d_in = 0
        d_in = d_in + Matrix.from_entries(2, 1, {(1, 0): -3})
        assert homology_dims(iter([d_in, d_out])) == [0, 0]

    def test_rejects_small_rational_defect(self):
        # d_out . d_in is zero but for one entry, 1/2 - 1/3 = 1/6
        d_in = mat([["1/2", 1], ["1/3", 1]])
        d_out = mat([[1, -1]])
        assert d_out * d_in == mat([["1/6", 0]])
        with pytest.raises(ValueError, match="not a complex"):
            homology_dims([d_in, d_out])

    def test_checks_before_it_ranks(self, monkeypatch):
        # d_k . d_{k-1} != 0 raises before d_{k-1} is ranked: d_1 . d_0
        # before any map is, and d_2 . d_1 once d_0 is and before d_1 is
        ranked = []

        def counting(rows, ncols, order):
            ranked.append(ncols)
            return echelon(rows, ncols, order)

        echelon = linalg._echelon
        monkeypatch.setattr(linalg, "_echelon", counting)
        d_0 = mat([[1], [0]])
        d_1 = mat([[1, 0], [0, 0], [0, 0]])
        with pytest.raises(ValueError, match="not a complex"):
            homology_dims([d_0, d_1])
        assert ranked == []
        d_1 = mat([[0, 1], [0, 0], [0, 0]])
        d_2 = mat([[1, 0, 0]])
        with pytest.raises(ValueError, match="not a complex"):
            homology_dims([d_0, d_1, d_2])
        assert ranked == [d_0.rows]

    def test_empty_complex(self):
        assert homology_dims([]) == []

    def test_single_map_gives_its_nullity(self):
        d = mat([[1, 2, 0], [2, 4, 0]])
        assert homology_dims([d]) == [d.cols - rank(d)] == [2]

    def test_defect_in_the_last_map_is_seen(self):
        # the check of the last map runs before the map before it is
        # ranked, and no later map comes to trigger it
        d_0, d_1 = mat([[1], [-1], [0]]), mat([[1, 1, 0], [0, 0, 1]])
        assert homology_dims([d_0, d_1]) == [0, 0]
        for i, j in ((0, 0), (1, 1)):
            bumped = d_1 + Matrix.from_entries(d_1.rows, d_1.cols,
                                               {(i, j): 1})
            with pytest.raises(ValueError, match="not a complex"):
                homology_dims([d_0, bumped])

    def test_ranks_off_the_pivot_rows(self):
        # The first rank-many rows of d_0 (row 0) and of d_1 (row 0) are
        # zero, so they are no row basis: off either, the next map reads 0
        # on the coordinates left, and its rank would come out 0, not 1.
        d_0 = mat([[0], [1]])
        d_1 = mat([[0, 0], [1, 0]])
        d_2 = mat([[1, 0]])
        assert homology_dims([d_0, d_1]) == [0, 0]
        assert homology_dims([d_0, d_1, d_2]) == [0, 0, 0]
        assert homology_dims([d_1, d_2]) == [1, 0]


class TestTensorIndex:
    def test_big_endian_order(self):
        ti = TensorIndex((2, 3))
        assert flatten(ti, (1, 2)) == 5
        assert flatten(ti, (1, 0)) == 3  # first factor varies slowest

    def test_flatten_unflatten_inverse(self):
        ti = TensorIndex((2, 3, 4))
        for flat in range(ti.size):
            assert flatten(ti, ti.unflatten(flat)) == flat

    def test_empty_factor_list_is_base_field(self):
        ti = TensorIndex(())
        assert ti.size == 1
        assert flatten(ti, ()) == 0


# Each of these would pass malformed data on if the check were an assert
# and the suite ran under python -O.
@pytest.mark.parametrize("call", [
    lambda: Matrix(2, 2, [1]),
    lambda: Matrix.from_rows([[1, 2], [3]]),
    lambda: Matrix.identity(2) + Matrix.identity(3),
    lambda: Matrix.identity(2) - Matrix.identity(3),
    lambda: Matrix.identity(2) * Matrix.identity(3),
    lambda: apply(Matrix.identity(2), [1]),
    lambda: TensorIndex((2, -1)),
    lambda: flatten(TensorIndex((2,)), (2,)),
    lambda: flatten(TensorIndex((2,)), (0, 0)),
    lambda: TensorIndex((2,)).unflatten(2),
    lambda: Matrix(2, 2) * Matrix(3, 1),
    lambda: apply(Matrix(2, 2), [1]),
    lambda: Matrix.from_entries(2, 2, {(2, 0): 1}),
    lambda: Matrix.from_entries(2, 2, {(0, -1): 1}),
    lambda: Matrix.from_blocks(2, 2, [(1, Matrix(1, 1), 2, 0)]),  # zero too
    # a negative offset is no Python index from the end
    lambda: Matrix.from_blocks(3, 3, [(1, Matrix.identity(1), -1, 0)]),
    lambda: Matrix.from_blocks(3, 3, [(1, Matrix.identity(1), 0, -1)]),
    lambda: solve_columns(Matrix(2, 2), Matrix(3, 1)),
    lambda: unstacked(Matrix(5, 1), 0, [(2, 2)]),
    # a column outside the matrix is refused, not read as zeros
    lambda: unstacked(Matrix(2, 2, [1, 2, 3, 4]), 9, [(1, 2)]),
    lambda: Matrix(2, 2, [1, 2, 3, 4]).column(5),
    lambda: Matrix(2, 2, [1, 2, 3, 4]).column(-1),
    lambda: on_basis(StructureConstants(2, 1, Matrix(1, 2, [1, 2])), 2, 0),
    # a row or an entry outside the matrix is refused: not read from the
    # end, and not read as 0
    lambda: Matrix(2, 2, [1, 2, 3, 4]).row(-1),
    lambda: Matrix(2, 2, [1, 2, 3, 4]).row(2),
    lambda: at(Matrix(2, 2, [1, 2, 3, 4]), -1, 0),
    lambda: at(Matrix(2, 2, [1, 2, 3, 4]), 0, 5),
    lambda: at(Matrix(2, 2, [1, 2, 3, 4]), 0, -1),
    # (0, 2) is no pair of a 2 x 2 tensor, though 0 * 2 + 2 is a column
    lambda: on_basis(StructureConstants(2, 2, Matrix(1, 4, [1, 2, 3, 4])),
                     0, 2),
    lambda: Matrix.identity(2).reindexed(2, 1, lambda i, j: (i, j)),
    lambda: Matrix.identity(2).reindexed(2, 2, lambda i, j: (i - 1, j)),
    lambda: Matrix(1, 2, [1, 2]).reindexed(1, 2, lambda i, j: (0, 0)),
    # a term that does not fit its blocks is refused, not written past them
    lambda: assemble_terms([(1, 0, 0, Product(None, (Matrix.identity(3),)))],
                           [(3, 2), (1, 2)], [(3, 3)]),
    lambda: assemble_terms([(1, 0, 0, Product(Matrix.identity(2),
                                              (Matrix.identity(2),)))],
                           [(3, 2)], [(2, 2)]),
    lambda: assemble_terms([(1, 0, 0, OnColumns(Matrix.identity(4), 2))],
                           [(3, 1)], [(4, 2)]),
], ids=["entry-count", "ragged", "add", "sub", "mul", "apply",
        "negative-dim", "index-range", "index-length", "flat-range",
        "sparse-compose", "sparse-apply", "entry-row", "entry-col",
        "from-blocks-fit", "from-blocks-row", "from-blocks-col",
        "solve-columns-rows", "unstacked-length", "unstacked-column",
        "column-past", "column-negative", "on-basis-past",
        "row-negative", "row-past", "at-row-negative", "at-col-past",
        "at-col-negative", "on-basis-right-past", "reindexed-past",
        "reindexed-negative", "reindexed-shared", "term-in-cols",
        "term-in-rows", "on-columns-rows"])
def test_validation_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_from_blocks_adds_each_block_at_its_corner():
    first = Matrix(2, 3, [1, 0, 0, 0, 0, 0])
    block = Matrix(2, 2, [1, 2, 0, 3])
    out = Matrix.from_blocks(2, 3, [(1, first, 0, 0), (1, block, 0, 1)])
    assert out.entries == (1, 1, 2, 0, 0, 3)
    assert first.entries == (1, 0, 0, 0, 0, 0)
    # signs, and a first block off the corner with rows above and below it
    out = Matrix.from_blocks(4, 3, [(-1, block, 1, 1), (1, first, 2, 0)])
    assert out.entries == (0, 0, 0, 0, -1, -2, 1, 0, -3, 0, 0, 0)
    # the sum has the common factor 2 with the denominator 2, and row 1,
    # which the second block leaves alone, is divided by it too
    half = Matrix(2, 2, [Q(1, 2), 0, 0, 1])
    out = Matrix.from_blocks(2, 2, [(1, half, 0, 0),
                                    (1, Matrix(1, 1, [Q(1, 2)]), 0, 0)])
    assert out == Matrix.identity(2)
    assert half == Matrix(2, 2, [Q(1, 2), 0, 0, 1])
    # no blocks is the zero matrix
    assert Matrix.from_blocks(2, 3, []) == Matrix(2, 3)


def test_reindexed_moves_the_entries():
    """reindexed puts entry (i, j) at place(i, j) with no rational built:
    the transpose's placement gives the transpose, over the same
    denominator, and a rotation of the factors of a flattened pair is
    undone by its inverse."""
    rng = random.Random(5)
    for rows, cols in ((0, 3), (1, 1), (3, 4), (4, 2)):
        m = random_matrix(rng, rows, cols)
        assert m.reindexed(cols, rows, lambda i, j: (j, i)) == m.transpose()
        flat = m.reindexed(1, rows * cols, lambda i, j: (0, i * cols + j))
        assert flat.entries == m.entries
        back = flat.reindexed(rows, cols, lambda _, t: divmod(t, cols))
        assert back == m
    assert Matrix(2, 2, [Q(1, 2), 0, 0, Q(3, 4)]).reindexed(
        1, 4, lambda i, j: (0, 3 * i)).entries == (Q(1, 2), 0, 0, Q(3, 4))


def test_product_needs_a_matrix():
    with pytest.raises(TypeError):
        Matrix.identity(2) * 2


def test_constructors_keep_q_values():
    # entries are stored as integers over one denominator and read out as Q
    q = Q(1, 3)
    for m in (Matrix(1, 2, [q, 2]), Matrix.from_rows([[q, 2]])):
        assert at(m, 0, 0) == q and type(at(m, 0, 0)) is Q
        assert type(at(m, 0, 1)) is Q and at(m, 0, 1) == 2


def test_solve_takes_q_and_other_rhs_entries_alike():
    # Q entries are used as they are, others go through Q()
    m = mat([[1, 2], [0, 3]])
    want = column(Q(-1, 9), Q(1, 9))
    for rhs in ((Q(1, 9), Q(1, 3)), ("1/9", "1/3"), (Q(1, 9), "1/3")):
        assert solve_columns(m, column(*rhs)) == (want, set())
    assert solve_columns(m, column(0, Q(0))) == (Matrix.zero(2, 1), set())


def test_column_is_dense():
    m = Matrix(2, 3, [0, Q(1, 2), 0, 4, 0, 0])
    assert [m.column(j) for j in range(3)] == [(0, 4), (Q(1, 2), 0), (0, 0)]
    assert all(type(v) is Q for j in range(3) for v in m.column(j))


@pytest.mark.parametrize("seed", range(40))
def test_unstacked_inverts_stacked(seed):
    """Blocks of random shapes, 0 included, with mixed denominators: each
    block cut from column j of a matrix is the matrix of its entries there,
    in lowest terms on its own, whatever the other blocks' denominators.
    stacked_row, built as a row, is the matrix of those entries, integers
    and denominator alike, and stacked its transpose."""
    rng = random.Random(seed)
    shapes = [(rng.randint(0, 3), rng.randint(0, 3))
              for _ in range(rng.randint(1, 4))]
    blocks = [Matrix(r, c, [Q(rng.choice((0, 0, 1, -3, 4)),
                              rng.choice((1, 1, 2, 3, 7)))
                            for _ in range(r * c)]) for r, c in shapes]
    entries = [v for m in blocks for v in m.entries]
    assert stacked_row(blocks) == Matrix(1, len(entries), entries)
    column = stacked(blocks)
    assert column == Matrix(len(entries), 1, entries)
    assert unstacked(column, 0, shapes) == blocks
    width = rng.randint(1, 3)
    j = rng.randrange(width)
    wide = Matrix.from_blocks(column.rows, width, [(1, column, 0, j)])
    cut = unstacked(wide, j, shapes)
    assert cut == blocks
    assert [format_matrix(m) for m in cut] == \
        [[[format_rational(v) for v in m.row(i)] for i in range(m.rows)]
         for m in blocks]
    assert all(m.is_zero() for j2 in range(width) if j2 != j
               for m in unstacked(wide, j2, shapes))


@pytest.mark.parametrize("seed", range(40))
def test_kron_matches_its_definition(seed):
    # random shapes, 0 included, with mixed denominators and 1s
    rng = random.Random(seed)
    shapes = [rng.randint(0, 3) for _ in range(4)]
    a, b = (Matrix(r, c, [Q(rng.choice((0, 0, 1, -1, 2)),
                           rng.choice((1, 1, 2, 3, 7)))
                          for _ in range(r * c)])
            for r, c in (shapes[:2], shapes[2:]))
    out = kron(a, b)
    rows, cols = TensorIndex((a.rows, b.rows)), TensorIndex((a.cols, b.cols))
    assert (out.rows, out.cols) == (rows.size, cols.size)
    for r in range(out.rows):
        i, k = rows.unflatten(r)
        for c in range(out.cols):
            j, l = cols.unflatten(c)
            assert at(out, r, c) == at(a, i, j) * at(b, k, l)
    assert all(v for _, _, v in out.nonzero_items())


def test_kron_columns_join_the_tuples():
    # columns of the factors indexed by tuples of variables give the
    # product's columns at the joined tuples, flattened as TensorIndex does
    ident, left = Matrix.identity(2), Matrix(1, 6, [1, 2, 3, 4, 5, 6])
    out = kron(left, ident)  # variables (i, j) of dims (2, 3), then k of 2
    index = TensorIndex((2, 3, 2))
    for t in range(out.cols):
        i, j, k = index.unflatten(t)
        assert out.column(t) == tuple(
            at(left, 0, flatten(TensorIndex((2, 3)), (i, j))) * at(ident, r, k)
            for r in range(2))


def term_matrix(term, in_shape, out_shape):
    """The term's matrix from in_shape to out_shape matrices, read through
    a one-term assemble_terms, whose transposed write gives its
    transpose."""
    terms = [(1, 0, 0, term)]
    m = assemble_terms(terms, [in_shape], [out_shape])
    assert assemble_terms(terms, [in_shape], [out_shape],
                          transposed=True) == m.transpose()
    return m


@pytest.mark.parametrize("seed", range(60))
def test_on_columns_matrix_matches_reference(seed):
    # a random bilinear map t of an n-dimensional space and rows-dimensional
    # columns, 0 included, in both orientations: the matrix equals the
    # unit-vector construction and, times X read row-major, equals
    # t kron(I_n, X), or t kron(X, I_n) when x_first
    rng = random.Random(seed)
    n, rows, cols, out = (rng.randint(0, 3) for _ in range(4))
    if seed < 12:  # each of n, rows, cols zero on some seeds
        n, rows, cols = [(0, 2, 3), (2, 0, 3), (2, 3, 0)][seed % 3]
    t = Matrix(out, n * rows, [Q(rng.choice((0, 0, 1, -1, 2)),
                                 rng.choice((1, 1, 2, 3)))
                               for _ in range(out * n * rows)])
    x = Matrix(rows, cols, [Q(rng.randint(-3, 3), rng.choice((1, 2)))
                            for _ in range(rows * cols)])
    ident = Matrix.identity(n)
    for x_first in (False, True):
        m = term_matrix(OnColumns(t, n, x_first), (rows, cols),
                        (out, n * cols))
        assert m == ref_on_columns_matrix(t, ident, x_first, rows, cols), \
            (n, rows, cols)
        image = t * (kron(x, ident) if x_first else kron(ident, x))
        assert m * Matrix(rows * cols, 1, x.entries) == \
            Matrix(m.rows, 1, image.entries)


@pytest.mark.parametrize("seed", range(20))
def test_product_matrix_matches_kron(seed):
    # X -> X q and X -> p X q on rows x cols matrices, 0 included, with q
    # given as 1-3 Kronecker factors of 0-2 rows and columns: the matrix
    # is kron(p or I_rows, q^T) and, times X read row-major, equals X q or
    # p X q
    rng = random.Random(seed)
    rows, out = rng.randint(0, 3), rng.randint(0, 3)
    qs = tuple(random_matrix(rng, rng.randint(0, 2), rng.randint(0, 2), 0.5)
               for _ in range(rng.randint(1, 3)))
    q = kron_chain(qs)
    cols, wide = q.rows, q.cols
    x = random_matrix(rng, rows, cols)
    for p in (None, random_matrix(rng, out, rows, 0.5)):
        image = x * q if p is None else p * x * q
        m = term_matrix(Product(p, qs), (rows, cols),
                        (rows if p is None else out, wide))
        want = kron(Matrix.identity(rows) if p is None else p, q.transpose())
        assert m == want, (rows, cols, wide)
        assert m * Matrix(rows * cols, 1, x.entries) == \
            Matrix(m.rows, 1, image.entries)


@pytest.mark.parametrize("kind", ["product", "on-columns"])
def test_term_writes_at_its_block_offsets(kind):
    # a term with sign -1 as block (1, 1) of a two-block map, beside a
    # Product in block (0, 0): its entries land past the 9 rows and 6
    # columns of the first block, and the matrix takes the blocks (X, Y)
    # to the first term's image of X and minus the second's of Y
    rng = random.Random(kind)
    first = Product(random_matrix(rng, 3, 2), (random_matrix(rng, 3, 3),))
    if kind == "product":
        p = random_matrix(rng, 2, 2)
        qs = random_matrix(rng, 2, 1), random_matrix(rng, 1, 3)
        q = kron_chain(qs)
        second, second_ref = Product(p, qs), kron(p, q.transpose())
    else:
        t = random_matrix(rng, 2, 4)
        second = OnColumns(t, 2)
        second_ref = ref_on_columns_matrix(t, Matrix.identity(2), False, 2, 2)
    terms = [(1, 0, 0, first), (-1, 1, 1, second)]
    in_shapes = [(2, 3), (2, 2)]
    out_shapes = [(3, 3), (2, second_ref.rows // 2)]
    m = assemble_terms(terms, in_shapes, out_shapes)
    assert m == Matrix.from_blocks(9 + second_ref.rows, 6 + 4, (
        (1, kron(first.p, kron_chain(first.qs).transpose()), 0, 0),
        (-1, second_ref, 9, 6)))
    x, y = (random_matrix(rng, *shape) for shape in in_shapes)
    images = (first.p * x * kron_chain(first.qs),
              -(p * y * q if kind == "product" else
                t * kron(Matrix.identity(2), y)))
    assert apply(m, x.entries + y.entries) == \
        tuple(v for image in images for v in image.entries)


def test_cancelling_adds_store_no_zero():
    # an entry that sums to 0 is deleted, not stored: a stored 0 would
    # break == and is_zero
    rng = random.Random(5)
    a = random_matrix(rng, 3, 4)
    term = OnColumns(random_matrix(rng, 2, 6), 2)  # on 3 x 2 matrices
    assert assemble_terms([(1, 0, 0, term)], [(3, 2)], [(2, 4)]) != \
        Matrix(8, 6)
    sums = [assemble_terms([(1, 0, 0, term), (-1, 0, 0, term)],
                           [(3, 2)], [(2, 4)]),
            a - a, Matrix.from_blocks(3, 4, [(1, a, 0, 0), (1, -a, 0, 0)]),
            Matrix.from_entries(3, 4, {(i, j): v - v
                                       for i, j, v in a.nonzero_items()})]
    for m in sums:
        assert m == Matrix(m.rows, m.cols) and m.is_zero()


def test_kron_needs_matrices():
    with pytest.raises(TypeError):
        kron(Matrix.identity(2), 2)


def test_products_with_a_zero_operand_keep_their_guards():
    """A product with a zero operand is the zero matrix, returned after
    the checks: a zero operand of a misfit shape still raises ValueError,
    and a non-matrix TypeError.  On 0-row and 0-column
    operands, some zero and some not, *, kron and bilinear_on_columns
    equal their definitions entry by entry."""
    with pytest.raises(ValueError):
        Matrix(2, 3) * Matrix(2, 2)
    with pytest.raises(ValueError):
        Matrix.identity(2) * Matrix(3, 1)
    with pytest.raises(TypeError):
        Matrix(2, 2) * 2
    for bad in ((Matrix(2, 5), Matrix.identity(2), Matrix.identity(2)),
                (mat([[1, 2, 3, 4]]), Matrix(3, 2), Matrix.identity(1)),
                (mat([[1, 2]]), Matrix.identity(2), Matrix(0, 2))):
        with pytest.raises(ValueError):
            bilinear_on_columns(*bad)
    for bad in ((Matrix(2, 2), 2), (2, Matrix(0, 0)), (Matrix(0, 3), None)):
        with pytest.raises(TypeError):
            kron(*bad)
    rng = random.Random(404)
    for _ in range(200):
        n, k, c, r2 = (rng.randint(0, 2) for _ in range(4))
        a, b, y = (random_matrix(rng, rows, cols, rng.choice((0, 0.5)))
                   for rows, cols in ((n, k), (k, c), (r2, rng.randint(0, 2))))
        assert a * b == Matrix(n, c, [sum(at(a, i, t) * at(b, t, j)
                                          for t in range(k))
                                      for i in range(n) for j in range(c)])
        want = Matrix(n * r2, k * y.cols, [
            at(a, i, j) * at(y, i2, j2) for i in range(n) for i2 in range(r2)
            for j in range(k) for j2 in range(y.cols)])
        assert kron(a, y) == want
        m = random_matrix(rng, c, n * r2, rng.choice((0, 0.5)))
        assert bilinear_on_columns(m, a, y) == Matrix(c, k * y.cols, [
            sum(at(m, w, t) * at(want, t, j) for t in range(n * r2))
            for w in range(c) for j in range(k * y.cols)])


def test_matrix_is_not_hashable():
    # a Matrix compares by value and defines no hash, so it is no key,
    # nor are the structure constants that hold one as their matrix
    with pytest.raises(TypeError):
        hash(Matrix.identity(2))
    with pytest.raises(TypeError):
        hash(StructureConstants.zero(1, 1, 1))


def random_matrix(rng, rows, cols, density=0.7):
    return Matrix(rows, cols,
                  [Q(rng.randint(-4, 4), rng.randint(1, 3))
                   if rng.random() < density else Q(0)
                   for _ in range(rows * cols)])


def mixed_matrix(rng, rows, cols, density=0.6):
    """Entries with many distinct denominators, so rows need different
    scales to clear them."""
    return Matrix(rows, cols,
                  [Q(rng.randint(-5, 5), rng.choice((1, 2, 3, 5, 7, 12)))
                   if rng.random() < density else Q(0)
                   for _ in range(rows * cols)])


class TestRandomizedInvariants:
    def test_rank_nullity_and_kernel_exactness(self):
        rng = random.Random(20260814)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            basis = kernel_basis(m)
            assert rank(m) + basis.cols == m.cols
            assert (m * basis).is_zero()
            assert rank(basis) == basis.cols

    def test_solve_consistency(self):
        rng = random.Random(99)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            x0 = [Q(rng.randint(-3, 3)) for _ in range(m.cols)]
            rhs = m * column(*x0)
            x, bad = solve_columns(m, rhs)
            assert not bad
            assert m * x == rhs

    def test_solve_reports_inconsistency_via_rank(self):
        rng = random.Random(7)
        hits = 0
        for _ in range(60):
            m = random_matrix(rng, rng.randint(2, 5), rng.randint(1, 4))
            rhs = tuple(Q(rng.randint(-3, 3)) for _ in range(m.rows))
            x, bad = solve_columns(m, column(*rhs))
            aug = Matrix.from_rows(
                [list(m.row(i)) + [rhs[i]] for i in range(m.rows)])
            if bad:
                hits += 1
                assert bad == {0} and x.is_zero()
                assert rank(aug) > rank(m)
            else:
                assert m * x == column(*rhs)
                assert rank(aug) == rank(m)
        assert hits > 0  # the sampler must hit some inconsistent systems

    def test_sparse_builder_matches_dense_product(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 0.5)
            b = random_matrix(rng, a.cols, rng.randint(1, 5), 0.5)
            # every entry given, the zeros too
            sa = Matrix.from_entries(a.rows, a.cols, {
                (i, j): at(a, i, j)
                for i in range(a.rows) for j in range(a.cols)})
            assert sa == a and sa.entries == a.entries
            prod = sa * b
            assert (prod.rows, prod.cols) == (a.rows, b.cols)
            for i in range(a.rows):
                for j in range(b.cols):
                    assert at(prod, i, j) == sum(
                        (at(a, i, k) * at(b, k, j) for k in range(a.cols)),
                        Q(0))
            vec = [Q(rng.randint(-3, 3)) for _ in range(b.cols)]
            assert apply(b, vec) == tuple(
                sum((at(b, i, j) * vec[j] for j in range(b.cols)), Q(0))
                for i in range(b.rows))
        # distinct denominators on both sides, and a product that cancels
        # to exactly 0 in entry (0, 0): 1/2 * 2/3 + 1/3 * (-1) = 0
        a = mat([["1/2", "1/3", 0], ["1/5", "-1/7", "3/11"]])
        b = mat([["2/3", "1/4"], [-1, "3/8"], ["5/6", "-1/9"]])
        assert a * b == mat([[0, "1/4"], ["1163/2310", "-313/9240"]])
        assert 0 not in row_dicts(a * b)[0]
        for _ in range(20):
            a = mixed_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            b = mixed_matrix(rng, a.cols, rng.randint(1, 5))
            prod = a * b
            assert prod == Matrix(a.rows, b.cols, [
                sum((at(a, i, k) * at(b, k, j) for k in range(a.cols)), Q(0))
                for i in range(a.rows) for j in range(b.cols)])
            assert all(v for row in row_dicts(prod) for v in row.values())


class TestInverse:
    def test_two_by_two(self):
        assert inverse(mat([[2, 1], [1, 1]])) == mat([[1, -1], [-1, 2]])

    def test_identity_and_scaling(self):
        assert inverse(Matrix.identity(3)) == Matrix.identity(3)
        assert inverse(mat([[4]])) == mat([["1/4"]])

    def test_singular_returns_none(self):
        assert inverse(mat([[1, 2], [2, 4]])) is None
        assert inverse(Matrix.zero(2, 2)) is None

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            inverse(Matrix.zero(2, 3))

    def test_random_round_trip(self):
        rng = random.Random(9)
        invertible = 0
        for _ in range(40):
            m = random_matrix(rng, 3, 3)
            inv = inverse(m)
            if inv is None:
                assert rank(m) < 3
            else:
                invertible += 1
                assert inv * m == Matrix.identity(3)
                assert m * inv == Matrix.identity(3)
        assert invertible > 10


def gauss_jordan_cases():
    """150 random matrices, each with a right-hand side and its leading
    square block: mixed denominators, some with a row that is a
    combination of two others."""
    rng = random.Random(2718)
    for _ in range(150):
        m = mixed_matrix(rng, rng.randint(1, 7), rng.randint(1, 7),
                         rng.choice((0.3, 0.6, 0.9)))
        if m.rows > 2 and rng.random() < 0.5:
            f, g = Q(rng.randint(-3, 3), rng.randint(1, 4)), Q(1, 5)
            m = Matrix.from_rows([list(m.row(i)) for i in range(m.rows - 1)]
                                 + [[f * u + g * v for u, v
                                     in zip(m.row(0), m.row(1))]])
        rhs = tuple(Q(rng.randint(-3, 3), rng.choice((1, 2, 9)))
                    for _ in range(m.rows))
        n = min(m.rows, m.cols)
        yield m, rhs, Matrix.from_rows([list(m.row(i)[:n])
                                        for i in range(n)])


def test_random_matrices_match_reference_gauss_jordan():
    """rank, kernel_basis, solve_columns and inverse agree exactly with the
    textbook dense Gauss-Jordan of tests/helpers.py on gauss_jordan_cases."""
    inconsistent = singular = 0
    for m, rhs, square in gauss_jordan_cases():
        basis, sol, pivots, _ = reference_elimination(m, rhs)
        assert rank(m) == len(pivots)
        assert kernel_basis(m) == from_columns(m.cols, basis)
        assert solve_columns(m, column(*rhs)) == \
            ((Matrix.zero(m.cols, 1), {0}) if sol is None
             else (column(*sol), set()))
        inconsistent += sol is None
        want = reference_inverse(square)
        singular += want is None
        if want is not None:
            want = Matrix.from_rows(want)
        assert inverse(square) == want
    assert inconsistent > 10 and singular > 10


def _mutable_parts(obj):
    """The ids of the dicts, and of the nonempty lists and sets, reachable
    from obj through matrices and containers: the state a result could
    share with an operand, however a Matrix stores it.  An empty dict
    counts, since it may be a row that a zero result shares."""
    seen, stack = set(), [obj]
    while stack:
        for part in gc.get_referents(stack.pop()):
            if isinstance(part, (Matrix, tuple)):
                stack.append(part)
            elif (isinstance(part, (dict, list, set))
                    and (part or isinstance(part, dict))
                    and id(part) not in seen):
                seen.add(id(part))
                stack.append(part)
    return seen


def test_eliminations_leave_their_inputs_alone():
    """No operation changes its operands, and every matrix it returns
    holds rows of its own.  The elimination changes the rows it is given
    in place, so rank, kernel_basis, solve_columns, inverse and
    homology_dims hand it rows of their own, and Matrix.from_blocks copies
    its first block and adds the rest into that copy: on
    gauss_jordan_cases, each operation leaves its operands equal to copies
    taken before the call, and what it returns shares no dict, nonempty
    list or set with an operand, so no row, not even an empty one; the
    products run with zero operands too.  homology_dims gets the complex of m's kernel basis and m; placed, m
    plus square at its lower right corner, is a block sum taken as an
    operand in turn."""
    third = Matrix(1, 1, [Q(1, 3)])

    def zero(a):
        return Matrix(a.rows, a.cols)

    for m, rhs, square in gauss_jordan_cases():
        b, n, t = column(*rhs), square.rows, m.transpose()
        placed = Matrix.from_blocks(m.rows, m.cols, (
            (1, m, 0, 0), (1, square, m.rows - n, m.cols - n)))
        blocks = [(m.rows, m.cols), (n, n)]
        in_shapes, out_shapes = [(m.cols, n), (m.rows, 1)], [(m.rows, n),
                                                             (m.cols, 1)]
        terms = [(1, 0, 0, Product(m, (square,))),
                 (-1, 0, 0, OnColumns(m, 1, x_first=True)),
                 (1, 1, 1, Product(t, (third,))),
                 (-1, 1, 1, OnColumns(t, 1))]
        for name, call, args in (
                ("rank", rank, (m,)),
                ("kernel_basis", kernel_basis, (m,)),
                ("solve_columns", solve_columns, (m, b)),
                ("inverse", inverse, (square,)),
                ("homology_dims", lambda *maps: homology_dims(maps),
                 (kernel_basis(m), m)),
                ("from_blocks",
                 lambda a, s: Matrix.from_blocks(m.rows, m.cols, (
                     (1, a, 0, 0), (1, s, m.rows - n, m.cols - n))),
                 (m, square)),
                ("from_blocks, one block",
                 lambda a: Matrix.from_blocks(m.rows, m.cols,
                                              [(1, a, 0, 0)]),
                 (placed,)),
                ("from_blocks, signed",
                 lambda a, s: Matrix.from_blocks(m.rows, m.cols, (
                     (1, a, 0, 0), (-1, s, 0, 0), (1, a, 0, 0))),
                 (m, placed)),
                ("+", lambda a, s: a + s, (m, placed)),
                ("-", lambda a, s: a - s, (placed, m)),
                ("unary -", lambda a: -a, (placed,)),
                ("*", lambda a, s: a * s, (t, placed)),
                ("transpose", Matrix.transpose, (placed,)),
                ("reindexed",
                 lambda a: a.reindexed(a.cols, a.rows, lambda i, j: (j, i)),
                 (placed,)),
                ("kron", kron, (square, b)),
                ("kron, zero operand", kron, (zero(square), b)),
                ("bilinear_on_columns", bilinear_on_columns, (m, t, third)),
                ("bilinear_on_columns, zero operand", bilinear_on_columns,
                 (m, zero(t), third)),
                ("*, zero operands", lambda a, s: a * s,
                 (zero(t), zero(placed))),
                ("*, zero right operand", lambda a, s: a * s,
                 (t, zero(placed))),
                ("stacked", lambda *ms: stacked(list(ms)),
                 (placed, square, b)),
                ("stacked_row", lambda *ms: stacked_row(list(ms)),
                 (placed, square, b)),
                ("unstacked", lambda c: unstacked(c, 0, blocks),
                 (stacked([m, square]),)),
                ("assemble_terms",
                 lambda *_: (assemble_terms(terms, in_shapes, out_shapes),
                             assemble_terms(terms, in_shapes, out_shapes,
                                            transposed=True)),
                 (m, square, t, third))):
            before = [Matrix(a.rows, a.cols, a.entries) for a in args]
            got = call(*args)
            assert list(args) == before, name
            assert not _mutable_parts(got) & _mutable_parts(args), name


def test_solve_columns_matches_reference_column_by_column():
    """One elimination of [m | b] gives, column by column, the solution of
    the textbook Gauss-Jordan (free variables 0) or None where there is
    none; half the columns of b are images m x, so both kinds occur in
    one call."""
    rng = random.Random(31415)
    consistent = inconsistent = mixed = 0
    for _ in range(300):
        m = mixed_matrix(rng, rng.randint(1, 6), rng.randint(1, 6),
                         rng.choice((0.3, 0.6, 0.9)))
        cols = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                x = [Q(rng.randint(-3, 3)) for _ in range(m.cols)]
                cols.append(apply(m, x))
            else:
                cols.append(tuple(Q(rng.randint(-3, 3), rng.choice((1, 2)))
                                  for _ in range(m.rows)))
        b = from_columns(m.rows, cols)
        got = solve_columns(m, b)
        assert got == reference_solve_columns(m, b)
        bad = got[1]
        consistent += len(cols) - len(bad)
        inconsistent += len(bad)
        mixed += 0 < len(bad) < len(cols)
    assert consistent > 500 and inconsistent > 200 and mixed > 80, \
        (consistent, inconsistent, mixed)


def random_complex(rng, dims):
    """Maps d_0, d_1, ... of a random complex on spaces of the given dims.
    Each row of d_k is a random combination of a basis of the left null
    space of d_{k-1}, so d_k . d_{k-1} == 0; rows, leading ones too, are
    often zero or combinations of others."""
    d = mixed_matrix(rng, dims[1], dims[0], rng.choice((0.3, 0.6)))
    maps = [d]
    for rows in dims[2:]:
        left = kernel_basis(d.transpose())
        combos = [[Q(rng.choice((0, 0, 1, -1, 2)), rng.choice((1, 2, 3)))
                   for _ in range(left.cols)] for _ in range(rows)]
        d = Matrix.from_rows(combos) * left.transpose()
        maps.append(d)
    return maps


def random_complexes():
    """200 random complexes of five maps on spaces of dimension 1 to 5."""
    rng = random.Random(1717)
    return [random_complex(rng, [rng.randint(1, 5) for _ in range(5)])
            for _ in range(200)]


def test_homology_dims_match_full_rank_on_random_complexes():
    """The restricted ranks give the homology of the full ranks, which the
    textbook Gauss-Jordan of tests/helpers.py confirms map by map."""
    restricted = 0
    for maps in random_complexes():
        dims, ranks = full_rank_dims(maps)
        assert homology_dims(maps) == dims
        assert ranks == [gauss_jordan_rank(d) for d in maps]
        # pairs where d_k is ranked off a nonzero image
        restricted += sum(a > 0 and b > 0 for a, b in zip(ranks, ranks[1:]))
    assert restricted > 200, restricted


def test_restricted_check_raises_exactly_when_the_product_is_nonzero():
    """homology_dims checks d_k . d_{k-1} == 0 only on the columns of
    d_{k-1} off the rows of d_{k-2} that d_{k-1} was ranked off.  With one
    entry of d_k changed, the complex ending in d_k must be refused exactly
    when the full product is nonzero."""
    rng = random.Random(1718)
    refused = kept = restricted = 0
    for maps in random_complexes():
        k = rng.randint(1, len(maps) - 1)
        d = maps[k]
        i, j = rng.randrange(d.rows), rng.randrange(d.cols)
        changed = d + Matrix.from_entries(d.rows, d.cols, {
            (i, j): Q(rng.choice((1, -1, 2)), rng.choice((1, 3)))})
        nonzero = not (changed * maps[k - 1]).is_zero()
        try:
            homology_dims(maps[:k] + [changed])
        except ValueError as exc:
            assert nonzero and "not a complex" in str(exc)
            refused += 1
        else:
            assert not nonzero
            kept += 1
        # d_{k-1} was ranked off a nonzero image, so columns were skipped
        restricted += nonzero and k >= 2 and rank(maps[k - 2]) > 0
    assert refused > 100 and kept > 40 and restricted > 40, \
        (refused, kept, restricted)
