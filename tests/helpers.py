"""Small hand-built structures, the nested c[i][j][k] form of structure
constants (nested, from_nested), a count of the Fractions made
(fractions_made), a reference Gauss-Jordan elimination,
reference per-tuple axiom checks, reference index-loop assemblers of the
cochain maps, the restricted differential applied cochain by cochain and
reference basis-vector constructions, shared across test modules."""

from fractions import Fraction
from itertools import product

from rotabaxter.algebra import (
    AssocAlgebra, Bimodule, Report, ShapeError, StructuralError,
    StructureConstants, _square_zero_dendriform, hochschild_matrix,
)
from rotabaxter.cohomology import (
    RRBCochain, cochain_space_dims, rrb_differential, semidirect_complex,
)
from rotabaxter.linalg import (
    Matrix, Q, TensorIndex, inverse, kron, paste, rank, signed_sum,
)
from rotabaxter.rrb import RMatrix, RelativeRBAlgebra, induced_dendriform
from rotabaxter.rrb_modules import (
    RRBBimodule, dendriform_to_rrb, lift_bimodule, mtot_action_bimodule,
)


def add_vec(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub_vec(u, v):
    return tuple(a - b for a, b in zip(u, v))


def star(den, x, y):
    """x * y = x < y + x > y in a dendriform algebra, on vectors."""
    return add_vec(den.prec(x, y), den.succ(x, y))


def nested(t):
    """The constants of t as the nested tuple c[i][j][k]."""
    data = [[[Q(0)] * t.dim_out for _ in range(t.dim_right)]
            for _ in range(t.dim_left)]
    for k, col, v in t.matrix.nonzero_items():
        i, j = divmod(col, t.dim_right)
        data[i][j][k] = v
    return tuple(tuple(tuple(row) for row in plane) for plane in data)


def from_nested(dim_left, dim_right, dim_out, data):
    """The structure constants whose nested form is data[i][j][k]."""
    if len(data) != dim_left or any(len(p) != dim_right for p in data) \
            or any(len(r) != dim_out for p in data for r in p):
        raise ShapeError(
            f"structure constants must be {dim_left}x{dim_right}x{dim_out}")
    return StructureConstants(dim_left, dim_right, Matrix(
        dim_out, dim_left * dim_right,
        [data[i][j][k] for k in range(dim_out)
         for i in range(dim_left) for j in range(dim_right)]))


def sc(dim_left, dim_right, dim_out, entries):
    """Structure constants from a sparse {(i,j,k): value} dict."""
    data = [[[Q(0)] * dim_out for _ in range(dim_right)]
            for _ in range(dim_left)]
    for (i, j, k), v in entries.items():
        data[i][j][k] = Q(v)
    return from_nested(dim_left, dim_right, dim_out, data)


def fractions_made(monkeypatch):
    """Count every Fraction made from here on: Fraction.__new__ is patched
    to append its arguments to the list returned."""
    made, new = [], Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    Fraction(1, 2)
    assert len(made) == 1  # the count sees every Fraction made
    made.clear()
    return made


def basis_vec(n, i):
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def linmap(rows):
    return Matrix.from_rows([[Q(x) for x in r] for r in rows])


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


def upper_triangular():
    """The upper triangular 2x2 matrices, basis (E11, E12, E22)."""
    return AssocAlgebra(3, sc(3, 3, 3, {(0, 0, 0): 1, (0, 1, 1): 1,
                                        (1, 2, 1): 1, (2, 2, 2): 1}))


def upper_triangular_r_matrix(p):
    """E11 (x) E12 - E12 (x) E11, a solution of the associative
    Yang-Baxter equation, moved with its algebra to the basis that the
    invertible p maps to (E11, E12, E22)."""
    p_inv = inverse(p)
    alg = AssocAlgebra(3, ref_transport_bilinear(upper_triangular().mu, p,
                                                 p, p_inv))
    t = p_inv * linmap([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]) \
        * p_inv.transpose()
    return RMatrix(alg, t)


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


def reference_solve_columns(m, b):
    """reference_elimination on each column of b, as solve_columns returns
    it: (the m.cols x b.cols Matrix of the solutions, with a zero column
    where there is none, and the set of those columns)."""
    sols = [reference_elimination(m, b.column(j))[1] for j in range(b.cols)]
    return (Matrix.from_columns(m.cols, [(0,) * m.cols if x is None else x
                                         for x in sols]),
            {j for j, x in enumerate(sols) if x is None})


def reference_inverse(m):
    """The inverse as dense rows, or None when m is singular."""
    n = m.rows
    rows, pivots, _ = gauss_jordan(
        [row + [int(i == j) for j in range(n)]
         for i, row in enumerate(dense_rows(m))], n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in rows]


def full_rank_dims(differentials):
    """The homology of a complex from each map's rank on all of its domain:
    dim C^k - rank d_k - rank d_{k-1}, with linalg.rank.  Returns (dims,
    ranks)."""
    ranks = [rank(d) for d in differentials]
    return ([d.cols - r - r_in for d, r, r_in
             in zip(differentials, ranks, [0, *ranks])], ranks)


def gauss_jordan_rank(m):
    return len(gauss_jordan(dense_rows(m), m.cols)[1])


# ---------------------------------------------------------------------------
# Reference matrix operations: a matrix as (rows, cols, {(i, j): Fraction})
# of its nonzeros, each operation computed entry by entry in Fraction
# arithmetic from its definition.  They read a Matrix only through
# nonzero_items, so linalg.Matrix's integer storage is checked against
# plain rationals.


def ref_of(m):
    return m.rows, m.cols, {(i, j): v for i, j, v in m.nonzero_items()}


def _ref(rows, cols, entries):
    return rows, cols, {ij: v for ij, v in entries.items() if v}


def _ref_add(entries, ij, v):
    entries[ij] = entries.get(ij, Fraction(0)) + v


def ref_mul(a, b):
    (rows, _, ea), (_, cols, eb) = a, b
    out = {}
    for (i, k), v in ea.items():
        for (k2, j), w in eb.items():
            if k == k2:
                _ref_add(out, (i, j), v * w)
    return _ref(rows, cols, out)


def ref_kron(a, b):
    (ar, ac, ea), (br, bc, eb) = a, b
    return _ref(ar * br, ac * bc,
                {(i * br + k, j * bc + l): v * w
                 for (i, j), v in ea.items() for (k, l), w in eb.items()})


def ref_transpose(a):
    rows, cols, entries = a
    return cols, rows, {(j, i): v for (i, j), v in entries.items()}


def ref_signed_sum(terms):
    """The sum of sign * a over (sign, reference matrix) pairs."""
    out = {}
    for sign, (_, _, entries) in terms:
        for ij, v in entries.items():
            _ref_add(out, ij, sign * v)
    rows, cols, _ = terms[0][1]
    return _ref(rows, cols, out)


def ref_paste(dst, src, row_off, col_off):
    rows, cols, entries = dst
    out = dict(entries)
    for (i, j), v in src[2].items():
        _ref_add(out, (i + row_off, j + col_off), v)
    return _ref(rows, cols, out)


def ref_apply(a, vec):
    rows, _, entries = a
    out = [Fraction(0)] * rows
    for (i, j), v in entries.items():
        out[i] += v * Fraction(vec[j])
    return tuple(out)


def ref_term(term, rows, cols):
    """The matrix of a Product or OnColumns term on rows x cols matrices X
    read row-major.  Product(p, q) is kron(p or I_rows, q^T).  OnColumns
    takes X to t kron(I_n, X), whose entry (w, a cols + c) is the sum over
    r of t[w, a rows + r] X[r, c], or to t kron(X, I_n), whose entry
    (w, c n + a) is the sum over r of t[w, r n + a] X[r, c]."""
    if hasattr(term, "q"):
        p = (rows, rows, {(i, i): Fraction(1) for i in range(rows)}) \
            if term.p is None else ref_of(term.p)
        return ref_kron(p, ref_transpose(ref_of(term.q)))
    n, (out_rows, _, t) = term.n, ref_of(term.t)
    width = n * cols
    entries = {}
    for w in range(out_rows):
        for a in range(n):
            for r in range(rows):
                v = t.get((w, r * n + a if term.x_first else a * rows + r))
                for c in range(cols if v else 0):
                    out = c * n + a if term.x_first else a * cols + c
                    entries[w * width + out, r * cols + c] = v
    return out_rows * width, rows * cols, entries


def ref_assemble_terms(terms, in_shapes, out_shapes):
    """The block matrix: sign * term(in-block i) added into out-block o for
    each (sign, i, o, term), the blocks read row-major in order."""
    row_off = [sum(r * c for r, c in out_shapes[:o])
               for o in range(len(out_shapes) + 1)]
    col_off = [sum(r * c for r, c in in_shapes[:i])
               for i in range(len(in_shapes) + 1)]
    out = (row_off[-1], col_off[-1], {})
    for sign, i, o, term in terms:
        rows, cols, entries = ref_term(term, *in_shapes[i])
        out = ref_paste(out, (rows, cols, {ij: sign * v for ij, v
                                           in entries.items()}),
                        row_off[o], col_off[i])
    return out


# ---------------------------------------------------------------------------
# Reference axiom checks: the per-basis-tuple loops the package evaluated
# before its checks became matrix identities, kept verbatim.  Each builds
# dense vectors for one basis tuple at a time and shares only Report and
# the structure types with rotabaxter, so the matrix form is checked
# against an independent evaluation of every law, violation by violation.


def ref_check_associativity(alg):
    """(e_i e_j) e_k == e_i (e_j e_k) for all basis triples."""
    rep = Report("associativity")
    mu = alg.mu
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = mu.on_basis(i, j)
            for k in range(alg.dim):
                lhs = mu(ij, basis_vec(alg.dim, k))
                rhs = mu(basis_vec(alg.dim, i), mu.on_basis(j, k))
                rep.require("assoc", (i, j, k), lhs, rhs)
    return rep


def ref_check_bimodule(mod):
    """The three compatibility identities of a bimodule, on basis triples."""
    rep = Report("bimodule")
    alg = mod.over
    dA, dM = alg.dim, mod.dim
    for i in range(dA):
        for j in range(dA):
            ij = alg.mu.on_basis(i, j)
            for w in range(dM):
                m = basis_vec(dM, w)
                a = basis_vec(dA, i)
                b = basis_vec(dA, j)
                # (a a') . m = a . (a' . m)
                rep.require("left_assoc", (i, j, w),
                            mod.left(ij, m), mod.left(a, mod.left(b, m)))
                # (a . m) . a' = a . (m . a')
                rep.require("middle_assoc", (i, w, j),
                            mod.right(mod.left(a, m), b),
                            mod.left(a, mod.right(m, b)))
                # (m . a) . a' = m . (a a')
                rep.require("right_assoc", (w, i, j),
                            mod.right(mod.right(m, a), b), mod.right(m, ij))
    return rep


def ref_check_dendriform(den):
    """The three splitting axioms on all basis triples.

    axiom1: (x < y) < z == x < (y * z)
    axiom2: (x > y) < z == x > (y < z)
    axiom3: (x * y) > z == x > (y > z)        (* = < + >)
    """
    rep = Report("dendriform")
    d = den.dim
    for i in range(d):
        x = basis_vec(d, i)
        for j in range(d):
            y = basis_vec(d, j)
            xy_prec = den.prec(x, y)
            xy_succ = den.succ(x, y)
            xy_star = add_vec(xy_prec, xy_succ)
            for k in range(d):
                z = basis_vec(d, k)
                rep.require("axiom1", (i, j, k),
                            den.prec(xy_prec, z), den.prec(x, star(den, y, z)))
                rep.require("axiom2", (i, j, k),
                            den.prec(xy_succ, z), den.succ(x, den.prec(y, z)))
                rep.require("axiom3", (i, j, k),
                            den.succ(xy_star, z), den.succ(x, den.succ(y, z)))
    return rep


def ref_check_dendriform_representation(rep):
    """The nine identities, generated mechanically by slot substitution."""
    big = _square_zero_dendriform(rep)
    dD = rep.over.dim
    n = big.dim
    out = Report("dendriform_representation")
    for i in range(n):
        x = basis_vec(n, i)
        for j in range(n):
            y = basis_vec(n, j)
            xy_prec = big.prec(x, y)
            xy_succ = big.succ(x, y)
            for k in range(n):
                # exactly one of the three slots in the E block
                if (i >= dD) + (j >= dD) + (k >= dD) != 1:
                    continue
                z = basis_vec(n, k)
                slot = "E@" + str([i >= dD, j >= dD, k >= dD].index(True) + 1)
                out.require(f"axiom1[{slot}]", (i, j, k),
                            big.prec(xy_prec, z),
                            big.prec(x, star(big, y, z)))
                out.require(f"axiom2[{slot}]", (i, j, k),
                            big.prec(xy_succ, z),
                            big.succ(x, big.prec(y, z)))
                out.require(f"axiom3[{slot}]", (i, j, k),
                            big.succ(add_vec(xy_prec, xy_succ), z),
                            big.succ(x, big.succ(y, z)))
    return out


def ref_check_relative_rb(x):
    """The relative Rota-Baxter identity on all basis pairs of M."""
    rep = Report("relative_rota_baxter")
    alg, mod, rop = x.algebra, x.module, x.rop
    dM = mod.dim
    rm = [rop.apply(basis_vec(dM, u)) for u in range(dM)]
    for u in range(dM):
        for w in range(dM):
            lhs = alg.mu(rm[u], rm[w])
            inner = add_vec(mod.left(rm[u], basis_vec(dM, w)),
                            mod.right(basis_vec(dM, u), rm[w]))
            rep.require("rrb_identity", (u, w), lhs, rop.apply(inner))
    return rep


def ref_check_morphism(mor):
    """The four morphism conditions, reported in order of first failure."""
    rep = Report("rrb_morphism")
    src, tgt = mor.source, mor.target
    phi, psi = mor.phi, mor.psi
    dA, dM = src.algebra.dim, src.module.dim
    fa = [phi.apply(basis_vec(dA, i)) for i in range(dA)]
    fm = [psi.apply(basis_vec(dM, u)) for u in range(dM)]
    for i in range(dA):
        for j in range(dA):
            rep.require("algebra_morphism", (i, j),
                        phi.apply(src.algebra.mu.on_basis(i, j)),
                        tgt.algebra.mu(fa[i], fa[j]))
    for i in range(dA):
        for u in range(dM):
            rep.require("left_action_intertwine", (i, u),
                        psi.apply(src.module.left.on_basis(i, u)),
                        tgt.module.left(fa[i], fm[u]))
            rep.require("right_action_intertwine", (u, i),
                        psi.apply(src.module.right.on_basis(u, i)),
                        tgt.module.right(fm[u], fa[i]))
    for u in range(dM):
        rep.require("operator_intertwine", (u,),
                    phi.apply(src.rop.apply(basis_vec(dM, u))),
                    tgt.rop.apply(fm[u]))
    return rep


def ref_induced_dendriform_report(x):
    """The report of rrb.induced_dendriform: R: M_Tot -> A multiplies."""
    alg, rop = x.algebra, x.rop
    dM = x.module.dim
    _, mtot, _ = induced_dendriform(x)
    rm = [rop.apply(basis_vec(dM, u)) for u in range(dM)]
    rep = Report("total_operator_is_algebra_morphism")
    for u in range(dM):
        for w in range(dM):
            rep.require("R_multiplicative", (u, w),
                        rop.apply(mtot.mu.on_basis(u, w)),
                        alg.mu(rm[u], rm[w]))
    return rep


def ref_check_rb_bimodule(pair):
    """The two Rota-Baxter bimodule identities on basis pairs:

      R(a) . R_M(m) = R_M( R(a) . m + a . R_M(m) )
      R_M(m) . R(a) = R_M( R_M(m) . a + m . R(a) )
    """
    rep = Report("rb_bimodule")
    alg, mod = pair.algebra, pair.module
    dA, dM = alg.dim, mod.dim
    ra = [pair.rop.apply(basis_vec(dA, i)) for i in range(dA)]
    rm = [pair.mop.apply(basis_vec(dM, u)) for u in range(dM)]
    for i in range(dA):
        a = basis_vec(dA, i)
        for u in range(dM):
            m = basis_vec(dM, u)
            rep.require(
                "rb_bimodule_left", (i, u),
                mod.left(ra[i], rm[u]),
                pair.mop.apply(add_vec(mod.left(ra[i], m),
                                       mod.left(a, rm[u]))))
            rep.require(
                "rb_bimodule_right", (u, i),
                mod.right(rm[u], ra[i]),
                pair.mop.apply(add_vec(mod.right(rm[u], a),
                                       mod.right(m, ra[i]))))
    return rep


def ref_aybe_violations(r):
    """Associative Yang-Baxter equation, coordinatewise in A (x) A (x) A.

    With r = sum r[i][j] e_i (x) e_j and a second copy indexed (p, q):
      r13 r12 = (e_i e_p) (x) e_q (x) e_j
      r12 r23 = e_i (x) (e_j e_p) (x) e_q
      r23 r13 = e_i (x) e_p (x) (e_q e_j)
    and the equation is r13 r12 - r12 r23 + r23 r13 = 0.
    """
    alg = r.over
    d = alg.dim
    t = [r.matrix.row(i) for i in range(d)]
    total = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
    mu = nested(alg.mu)
    for i in range(d):
        for j in range(d):
            rij = t[i][j]
            if not rij:
                continue
            for p in range(d):
                for q in range(d):
                    c = rij * t[p][q]
                    if not c:
                        continue
                    for s in range(d):
                        v = mu[i][p][s]
                        if v:
                            total[s][q][j] += c * v
                        v = mu[j][p][s]
                        if v:
                            total[i][s][q] -= c * v
                        v = mu[q][j][s]
                        if v:
                            total[i][p][s] += c * v
    rep = Report("aybe")
    for a in range(d):
        for b in range(d):
            for c in range(d):
                if total[a][b][c]:
                    rep.require("aybe_coordinate", (a, b, c),
                                (total[a][b][c],), (Q(0),))
    return rep


def ref_check_pairing_identities(module, base, fiber, left_pair, right_pair):
    """The six identities tying the pairings to the three A-bimodules.

    l(a.m, b) = a.l(m, b)    l(m.a, b) = l(m, a.b)    l(m, b.a) = l(m, b).a
    r(a.b, m) = a.r(b, m)    r(b.a, m) = r(b, a.m)    r(b, m.a) = r(b, m).a
    """
    rep = Report("pairing_identities")
    alg = module.over
    dA, dM, dB = alg.dim, module.dim, base.dim
    for i in range(dA):
        a = basis_vec(dA, i)
        for u in range(dM):
            m = basis_vec(dM, u)
            for w in range(dB):
                b = basis_vec(dB, w)
                rep.require("pair_l_left", (i, u, w),
                            left_pair(module.left.on_basis(i, u), b),
                            fiber.left(a, left_pair.on_basis(u, w)))
                rep.require("pair_l_middle", (u, i, w),
                            left_pair(module.right.on_basis(u, i), b),
                            left_pair(m, base.left.on_basis(i, w)))
                rep.require("pair_l_right", (u, w, i),
                            left_pair(m, base.right.on_basis(w, i)),
                            fiber.right(left_pair.on_basis(u, w), a))
                rep.require("pair_r_left", (i, w, u),
                            right_pair(base.left.on_basis(i, w), m),
                            fiber.left(a, right_pair.on_basis(w, u)))
                rep.require("pair_r_middle", (w, i, u),
                            right_pair(base.right.on_basis(w, i), m),
                            right_pair(b, module.left.on_basis(i, u)))
                rep.require("pair_r_right", (w, u, i),
                            right_pair(b, module.right.on_basis(u, i)),
                            fiber.right(right_pair.on_basis(w, u), a))
    return rep


def ref_check_operator_identities(b):
    """The two identities coupling R with the complex map S."""
    rep = Report("operator_identities")
    x = b.over
    dM, dN = x.module.dim, b.fiber.dim
    rm = [x.rop.apply(basis_vec(dM, u)) for u in range(dM)]
    sn = [b.sop.apply(basis_vec(dN, v)) for v in range(dN)]
    for u in range(dM):
        m = basis_vec(dM, u)
        for v in range(dN):
            n = basis_vec(dN, v)
            rep.require("operator_left", (u, v),
                        b.base.left(rm[u], sn[v]),
                        b.sop.apply(add_vec(b.fiber.left(rm[u], n),
                                            b.left_pair(m, sn[v]))))
            rep.require("operator_right", (v, u),
                        b.base.right(sn[v], rm[u]),
                        b.sop.apply(add_vec(b.right_pair(sn[v], m),
                                            b.fiber.right(n, rm[u]))))
    return rep


def ref_check_differential_pair(p):
    """Derivation law, pairing identities, and the two delta laws."""
    rep = Report("differential_pair")
    alg = p.algebra
    dA, dB = alg.dim, p.base.dim
    da = [p.d.apply(basis_vec(dA, i)) for i in range(dA)]
    for i in range(dA):
        a = basis_vec(dA, i)
        for j in range(dA):
            rep.require("derivation", (i, j),
                        p.d.apply(alg.mu.on_basis(i, j)),
                        add_vec(p.module.left(a, da[j]),
                                p.module.right(da[i], basis_vec(dA, j))))
    rep.merge(ref_check_pairing_identities(
        p.module, p.base, p.fiber, p.left_pair, p.right_pair))
    for i in range(dA):
        a = basis_vec(dA, i)
        for w in range(dB):
            b = basis_vec(dB, w)
            rep.require("delta_left", (i, w),
                        p.delta.apply(p.base.left.on_basis(i, w)),
                        add_vec(p.fiber.left(a, p.delta.apply(b)),
                                p.left_pair(da[i], b)))
            rep.require("delta_right", (w, i),
                        p.delta.apply(p.base.right.on_basis(w, i)),
                        add_vec(p.right_pair(b, da[i]),
                                p.fiber.right(p.delta.apply(b), a)))
    return rep


def ref_check_derivation(x, b, alpha, beta):
    """The four identities cutting out the degree-1 cocycles.

    alpha(a.a') = alpha(a).a' + a.alpha(a')            (values in the base)
    beta(a.m)   = r(alpha(a), m) + a.beta(m)           (values in the fiber)
    beta(m.a)   = beta(m).a + l(m, alpha(a))
    alpha(R m)  = S(beta(m))
    """
    alg, mod = x.algebra, x.module
    dA, dM = alg.dim, mod.dim
    rep = Report("derivation_pair")
    av = [alpha.apply(basis_vec(dA, i)) for i in range(dA)]
    bv = [beta.apply(basis_vec(dM, u)) for u in range(dM)]
    for i in range(dA):
        ei = basis_vec(dA, i)
        for j in range(dA):
            rep.require(
                "leibniz", (i, j), alpha.apply(alg.mu.on_basis(i, j)),
                tuple(p + q for p, q in
                      zip(b.base.right(av[i], basis_vec(dA, j)),
                          b.base.left(ei, av[j]))))
        for u in range(dM):
            eu = basis_vec(dM, u)
            rep.require(
                "left_action", (i, u), beta.apply(mod.left.on_basis(i, u)),
                tuple(p + q for p, q in
                      zip(b.right_pair(av[i], eu), b.fiber.left(ei, bv[u]))))
            rep.require(
                "right_action", (u, i), beta.apply(mod.right.on_basis(u, i)),
                tuple(p + q for p, q in
                      zip(b.fiber.right(bv[u], ei),
                          b.left_pair(eu, av[i]))))
    for u in range(dM):
        rep.require("intertwine", (u,),
                    alpha.apply(x.rop.apply(basis_vec(dM, u))),
                    b.sop.apply(bv[u]))
    return rep


def _kron3(u, v, w):
    return tuple(p * q * r for p in u for q in v for r in w)


class _Graded:
    """A vector tagged by layer: space "a" or "m", degree 0 or 1."""

    __slots__ = ("space", "deg", "vec")

    def __init__(self, space, deg, vec):
        self.space = space
        self.deg = deg
        self.vec = tuple(vec)

    def _check_layer(self, other):
        if (self.space, self.deg) != (other.space, other.deg):
            raise StructuralError(
                f"layer ({self.space}, {self.deg}) combined with "
                f"({other.space}, {other.deg})")

    def __add__(self, other):
        self._check_layer(other)
        return _Graded(self.space, self.deg, add_vec(self.vec, other.vec))

    def __sub__(self, other):
        self._check_layer(other)
        return _Graded(self.space, self.deg, sub_vec(self.vec, other.vec))


class _TwoTermEnv:
    """Evaluates d, mu2, mu3 on layer-tagged vectors by block dispatch.

    Writing the defining identities once against this dispatcher yields
    both the algebra check (all inputs in the "a" layer) and the full
    substituted bimodule identity list (exactly one input moved to the
    "m" layer) without spelling the expansions out by hand.
    """

    __slots__ = ("alg", "mod", "blocks")

    def __init__(self, alg, mod=None):
        self.alg = alg
        self.mod = mod
        self.blocks = {("a", 0, "a", 0): alg.mu00,
                       ("a", 0, "a", 1): alg.mu01,
                       ("a", 1, "a", 0): alg.mu10}
        if mod is not None:
            self.blocks.update({("a", 0, "m", 0): mod.left00,
                                ("a", 0, "m", 1): mod.left01,
                                ("a", 1, "m", 0): mod.left10,
                                ("m", 0, "a", 0): mod.right00,
                                ("m", 0, "a", 1): mod.right01,
                                ("m", 1, "a", 0): mod.right10})

    def d(self, x):
        lin = self.alg.d if x.space == "a" else self.mod.dm
        return _Graded(x.space, 0, lin.apply(x.vec))

    def mu2(self, x, y):
        block = self.blocks[(x.space, x.deg, y.space, y.deg)]
        space = "m" if "m" in (x.space, y.space) else "a"
        return _Graded(space, x.deg + y.deg, block(x.vec, y.vec))

    def mu3(self, x, y, z):
        spaces = (x.space, y.space, z.space)
        flat = _kron3(x.vec, y.vec, z.vec)
        if spaces == ("a", "a", "a"):
            return _Graded("a", 1, self.alg.mu3.apply(flat))
        return _Graded("m", 1, self.mod.mu3m[spaces.index("m")].apply(flat))


# each law: name, input degrees, and both sides as expressions over the
# dispatcher; substituting layers is then purely mechanical
_TWO_TERM_LAWS = (
    ("complex_right", (0, 1),
     lambda E, a, p: E.d(E.mu2(a, p)),
     lambda E, a, p: E.mu2(a, E.d(p))),
    ("complex_left", (1, 0),
     lambda E, p, a: E.d(E.mu2(p, a)),
     lambda E, p, a: E.mu2(E.d(p), a)),
    ("complex_exchange", (1, 1),
     lambda E, p, q: E.mu2(E.d(p), q),
     lambda E, p, q: E.mu2(p, E.d(q))),
    ("associator_boundary", (0, 0, 0),
     lambda E, a, b, c: E.d(E.mu3(a, b, c)),
     lambda E, a, b, c: E.mu2(E.mu2(a, b), c) - E.mu2(a, E.mu2(b, c))),
    ("associator_right", (0, 0, 1),
     lambda E, a, b, p: E.mu3(a, b, E.d(p)),
     lambda E, a, b, p: E.mu2(E.mu2(a, b), p) - E.mu2(a, E.mu2(b, p))),
    ("associator_middle", (0, 1, 0),
     lambda E, a, p, c: E.mu3(a, E.d(p), c),
     lambda E, a, p, c: E.mu2(E.mu2(a, p), c) - E.mu2(a, E.mu2(p, c))),
    ("associator_left", (1, 0, 0),
     lambda E, p, b, c: E.mu3(E.d(p), b, c),
     lambda E, p, b, c: E.mu2(E.mu2(p, b), c) - E.mu2(p, E.mu2(b, c))),
    ("corrector_cocycle", (0, 0, 0, 0),
     lambda E, a, b, c, e: (E.mu3(E.mu2(a, b), c, e) -
                            E.mu3(a, E.mu2(b, c), e) +
                            E.mu3(a, b, E.mu2(c, e))),
     lambda E, a, b, c, e: (E.mu2(E.mu3(a, b, c), e) +
                            E.mu2(a, E.mu3(b, c, e)))),
)


def _basis_elements(env, degs, spaces):
    dims = []
    for deg, space in zip(degs, spaces):
        if space == "a":
            dims.append(env.alg.dim0 if deg == 0 else env.alg.dim1)
        else:
            dims.append(env.mod.dim0 if deg == 0 else env.mod.dim1)
    for combo in product(*(range(n) for n in dims)):
        yield combo, [_Graded(space, deg, basis_vec(dim, idx))
                      for space, deg, dim, idx
                      in zip(spaces, degs, dims, combo)]


def ref_check_two_term_ainfty(a):
    """All defining identities on all basis tuples, degrees forced."""
    rep = Report("two_term_ainfty")
    env = _TwoTermEnv(a)
    for law, degs, lhs, rhs in _TWO_TERM_LAWS:
        spaces = ("a",) * len(degs)
        for combo, elems in _basis_elements(env, degs, spaces):
            rep.require(law, combo,
                        lhs(env, *elems).vec, rhs(env, *elems).vec)
    return rep


def ref_check_ainfty_bimodule(a, m):
    """Every defining identity with exactly one input in the module layer."""
    if (m.left00.dim_left, m.left10.dim_left) != (a.dim0, a.dim1):
        raise ShapeError("bimodule blocks do not fit the algebra dimensions")
    rep = Report("ainfty_bimodule")
    env = _TwoTermEnv(a, m)
    for law, degs, lhs, rhs in _TWO_TERM_LAWS:
        for pos in range(len(degs)):
            spaces = tuple("m" if q == pos else "a"
                           for q in range(len(degs)))
            for combo, elems in _basis_elements(env, degs, spaces):
                rep.require(f"{law}/input {pos + 1}", combo,
                            lhs(env, *elems).vec, rhs(env, *elems).vec)
    return rep


def ref_check_homotopy_rrb_operator(a, m, r):
    """The five operator conditions on all basis tuples.

    In the final condition the three mixed-corrector terms are composed
    with r1 so that every term lands in the degree-1 algebra layer.
    """
    if (r.r0.cols, r.r0.rows) != (m.dim0, a.dim0) or \
            (r.r1.cols, r.r1.rows) != (m.dim1, a.dim1):
        raise ShapeError("operator layers must map the module complex into "
                         "the algebra complex")
    rep = Report("homotopy_rrb_operator")
    d0, d1 = m.dim0, m.dim1
    r0m = [r.r0.apply(basis_vec(d0, u)) for u in range(d0)]
    r1n = [r.r1.apply(basis_vec(d1, v)) for v in range(d1)]
    # the operator intertwines the two complexes
    for v in range(d1):
        rep.require("chain_map", (v,),
                    a.d.apply(r1n[v]),
                    r.r0.apply(m.dm.apply(basis_vec(d1, v))))
    # the degree-0 defect is the boundary of the corrector
    for u in range(d0):
        eu = basis_vec(d0, u)
        for w in range(d0):
            ew = basis_vec(d0, w)
            inner = add_vec(m.left00(r0m[u], ew), m.right00(eu, r0m[w]))
            rep.require("baxter_boundary", (u, w),
                        sub_vec(r.r0.apply(inner), a.mu00(r0m[u], r0m[w])),
                        a.d.apply(r.r2.on_basis(u, w)))
    # the degree-1 defects are corrector values on boundaries
    for u in range(d0):
        eu = basis_vec(d0, u)
        for v in range(d1):
            nv = basis_vec(d1, v)
            dn = m.dm.apply(nv)
            inner = add_vec(m.left01(r0m[u], nv), m.right01(eu, r1n[v]))
            rep.require("baxter_right", (u, v),
                        sub_vec(r.r1.apply(inner), a.mu01(r0m[u], r1n[v])),
                        r.r2(eu, dn))
            inner = add_vec(m.left10(r1n[v], eu), m.right10(nv, r0m[u]))
            rep.require("baxter_left", (v, u),
                        sub_vec(r.r1.apply(inner), a.mu10(r1n[v], r0m[u])),
                        r.r2(dn, eu))
    # the two correctors are compatible
    for u in range(d0):
        eu = basis_vec(d0, u)
        for w in range(d0):
            ew = basis_vec(d0, w)
            r2uw = r.r2.on_basis(u, w)
            circ_uw = add_vec(m.left00(r0m[u], ew), m.right00(eu, r0m[w]))
            for z in range(d0):
                ez = basis_vec(d0, z)
                r2wz = r.r2.on_basis(w, z)
                circ_wz = add_vec(m.left00(r0m[w], ez),
                                  m.right00(ew, r0m[z]))
                acc = a.mu01(r0m[u], r2wz)
                acc = sub_vec(acc, r.r1.apply(m.right01(eu, r2wz)))
                acc = sub_vec(acc, r.r2(circ_uw, ez))
                acc = add_vec(acc, r.r2(eu, circ_wz))
                acc = sub_vec(acc, a.mu10(r2uw, r0m[z]))
                acc = add_vec(acc, r.r1.apply(m.left10(r2uw, ez)))
                acc = add_vec(acc, r.r1.apply(m.mu3m[0].apply(
                    _kron3(eu, r0m[w], r0m[z]))))
                acc = add_vec(acc, r.r1.apply(m.mu3m[1].apply(
                    _kron3(r0m[u], ew, r0m[z]))))
                acc = add_vec(acc, r.r1.apply(m.mu3m[2].apply(
                    _kron3(r0m[u], r0m[w], ez))))
                rep.require("baxter_corrector", (u, w, z), acc,
                            a.mu3.apply(_kron3(r0m[u], r0m[w], r0m[z])))
    return rep


# ---------------------------------------------------------------------------
# Reference assemblers: the index loops that built the differential, the
# Hochschild differential, the comparison map and the semidirect inclusion
# entry by entry before they were assembled from term lists, kept verbatim
# but for summing their entries into a dict that Matrix.from_entries
# builds once (the differential reads ref_hochschild_matrix), and the
# unit-vector products that built the matrix of an OnColumns term.  They
# share with rotabaxter only Matrix, TensorIndex, paste, the structure
# types, the cochain dimensions and the M_Tot action, so the term lists are
# checked against an independent indexing of the same formulas.  The
# labelled differential read through the hat and unhat of the doubled
# Hochschild complex, as it was before it became the slot-map part of the
# differential, is kept too.

ONE = Q(1)


def _unit(n, j):
    """The n x 1 unit column e_j."""
    return Matrix(n, 1, [ONE if i == j else 0 for i in range(n)])


def ref_on_columns_matrix(t, y, x_first, rows, cols):
    """The matrix of X -> t kron(y, X) (t kron(X, y) when x_first) on
    rows x cols matrices X, split over the columns y e_j of y into
    products P_j X Q_j: the Kronecker products and sum that
    linalg.OnColumns.write avoids by reading t's nonzeros directly."""
    ix, iq, n = Matrix.identity(rows), Matrix.identity(cols), y.cols
    parts = [(1, Matrix(t.rows * n * cols, rows * cols))]
    for j in range(n):
        e = _unit(n, j)
        yj = y * e
        parts.append((1, kron(t * kron(ix, yj), kron(iq, e))
                      if x_first else
                      kron(t * kron(yj, ix), kron(e, iq))))
    return signed_sum(parts)


def ref_hochschild_matrix(mod, k):
    """Matrix of the Hochschild differential C^k(A, M) -> C^{k+1}(A, M).

    Cochain coordinates are row-major matrix entries: index = w * dimA^k + t
    for target coordinate w and flattened input tuple t.
    """
    if k < 0:
        raise ShapeError(f"cochain degree must be >= 0, got {k}")
    alg = mod.over
    dA, dM = alg.dim, mod.dim
    left, right, mu = nested(mod.left), nested(mod.right), nested(alg.mu)
    dom = dA ** k
    cod = dA ** (k + 1)
    out = {}
    if k == 0:
        # (delta m)(a) = a.m - m.a
        for a in range(dA):
            for w in range(dM):
                for v in range(dM):
                    _ref_add(out, (w * dA + a, v),
                             left[a][v][w] - right[v][a][w])
        return Matrix.from_entries(dM * cod, dM * dom, out)
    ti_out = TensorIndex((dA,) * (k + 1))
    ti_in = TensorIndex((dA,) * k)
    for t_out in range(cod):
        tup = ti_out.unflatten(t_out)
        # first term: a_1 . f(a_2 ... a_{k+1})
        t_in = ti_in.flatten(tup[1:])
        for w in range(dM):
            row = w * cod + t_out
            for v in range(dM):
                _ref_add(out, (row, v * dom + t_in), left[tup[0]][v][w])
        # middle terms: (-1)^i f(..., a_i a_{i+1}, ...)
        sign = Q(1)
        for i in range(k):
            sign = -sign
            prod = mu[tup[i]][tup[i + 1]]
            for p, c in enumerate(prod):
                if not c:
                    continue
                t_in = ti_in.flatten(tup[:i] + (p,) + tup[i + 2:])
                for w in range(dM):
                    _ref_add(out, (w * cod + t_out, w * dom + t_in),
                             sign * c)
        # last term: (-1)^{k+1} f(a_1 ... a_k) . a_{k+1}
        sign = -sign
        t_in = ti_in.flatten(tup[:k])
        for w in range(dM):
            row = w * cod + t_out
            for v in range(dM):
                _ref_add(out, (row, v * dom + t_in),
                         sign * right[v][tup[k]][w])
    return Matrix.from_entries(dM * cod, dM * dom, out)


class MixedTensorSpace:
    """Index bookkeeping for k-fold tensors with one factor swapped out.

    Models the direct sum over positions s = 1..k of
    A^(x)(s-1) (x) M (x) A^(x)(k-s).  Each summand is flattened big-endian
    and the summands are concatenated in slot order, so the total dimension
    is k * dim_a^(k-1) * dim_m.
    """

    __slots__ = ("k", "dim_a", "dim_m", "slot_dim", "total_dim", "_indexers")

    def __init__(self, k, dim_a, dim_m):
        if k < 1:
            raise ShapeError("a mixed tensor space needs k >= 1")
        self.k = k
        self.dim_a = dim_a
        self.dim_m = dim_m
        self._indexers = tuple(
            TensorIndex((dim_a,) * (s - 1) + (dim_m,) + (dim_a,) * (k - s))
            for s in range(1, k + 1))
        self.slot_dim = self._indexers[0].size
        self.total_dim = k * self.slot_dim

    def indexer(self, s):
        """TensorIndex of the slot-s summand (s is 1-based)."""
        return self._indexers[s - 1]

    def offset(self, s):
        """Start of the slot-s summand inside the concatenated coordinates."""
        return (s - 1) * self.slot_dim


def _twisted_block(out, x, b, k, row_off, alpha_off, beta_off):
    """Rows of the fiber-valued output block, added into the
    {(i, j): value} entries out.

    For each output slot t the three terms are: the leading argument
    consumed from the left (through the left pairing when t = 1, through
    the left fiber action otherwise), the alternating sum of neighbour
    merges (algebra product or module action, dispatched by which factor
    holds M), and the trailing argument consumed from the right (right
    pairing when t = k+1, right fiber action otherwise).  The boundary
    cases read the alpha block; everything else reads the slot maps.
    """
    alg, mod = x.algebra, x.module
    dA, dM = alg.dim, mod.dim
    dB, dN = b.base.dim, b.fiber.dim
    mix_in = MixedTensorSpace(k, dA, dM)
    mix_out = MixedTensorSpace(k + 1, dA, dM)
    ti_a_in = TensorIndex((dA,) * k)
    da_in, slot_in, slot_out = ti_a_in.size, mix_in.slot_dim, mix_out.slot_dim
    lp, rp = nested(b.left_pair), nested(b.right_pair)
    ln, rn = nested(b.fiber.left), nested(b.fiber.right)
    lm, rm, mu = nested(mod.left), nested(mod.right), nested(alg.mu)
    last_sign = ONE if k % 2 else -ONE          # (-1)^(k+1)
    for t in range(1, k + 2):
        ti_out = mix_out.indexer(t)
        row_base = row_off + dN * mix_out.offset(t)
        for flat_out in range(slot_out):
            tup = ti_out.unflatten(flat_out)
            rows = [row_base + w * slot_out + flat_out for w in range(dN)]
            # leading term
            if t == 1:
                t_in = ti_a_in.flatten(tup[1:])
                plane = lp[tup[0]]
                for vb in range(dB):
                    col = alpha_off + vb * da_in + t_in
                    for w, c in enumerate(plane[vb]):
                        if c:
                            _ref_add(out, (rows[w], col), c)
            else:
                f_in = mix_in.indexer(t - 1).flatten(tup[1:])
                col_base = beta_off + dN * mix_in.offset(t - 1)
                plane = ln[tup[0]]
                for v in range(dN):
                    col = col_base + v * slot_in + f_in
                    for w, c in enumerate(plane[v]):
                        if c:
                            _ref_add(out, (rows[w], col), c)
            # neighbour merges
            sign = ONE
            for i in range(1, k + 1):
                sign = -sign
                li, ri = tup[i - 1], tup[i]
                if t == i:
                    prods, s_in = rm[li][ri], i
                elif t == i + 1:
                    prods, s_in = lm[li][ri], i
                else:
                    prods = mu[li][ri]
                    s_in = t if t < i else t - 1
                idx = mix_in.indexer(s_in)
                col_base = beta_off + dN * mix_in.offset(s_in)
                head, tail = tup[:i - 1], tup[i + 1:]
                for p, c in enumerate(prods):
                    if not c:
                        continue
                    f_in = idx.flatten(head + (p,) + tail)
                    for w in range(dN):
                        _ref_add(out,
                                 (rows[w], col_base + w * slot_in + f_in),
                                 sign * c)
            # trailing term
            if t == k + 1:
                t_in = ti_a_in.flatten(tup[:k])
                for vb in range(dB):
                    col = alpha_off + vb * da_in + t_in
                    for w, c in enumerate(rp[vb][tup[k]]):
                        if c:
                            _ref_add(out, (rows[w], col), last_sign * c)
            else:
                f_in = mix_in.indexer(t).flatten(tup[:k])
                col_base = beta_off + dN * mix_in.offset(t)
                for v in range(dN):
                    col = col_base + v * slot_in + f_in
                    for w, c in enumerate(rn[v][tup[k]]):
                        if c:
                            _ref_add(out, (rows[w], col), last_sign * c)


def _weighted_tuples(choices):
    """Cartesian product of (index, weight) lists with multiplied weights."""
    for picks in product(*choices):
        coeff = ONE
        idx = []
        for i, c in picks:
            idx.append(i)
            coeff = coeff * c
        yield tuple(idx), coeff


def _operator_block(out, x, b, k, row_off, alpha_off, beta_off):
    """Rows of the base-valued output block fed by R and S, added into
    the {(i, j): value} entries out.

    (-1)^k { alpha(R m_1, ..., R m_k)
             - sum_i S . beta_i(R m_1, ..., m_i, ..., R m_k) }.
    """
    dA, dM = x.algebra.dim, x.module.dim
    dB, dN = b.base.dim, b.fiber.dim
    mix_in = MixedTensorSpace(k, dA, dM)
    ti_m = TensorIndex((dM,) * k)
    ti_a = TensorIndex((dA,) * k)
    da_in, slot_in = ti_a.size, mix_in.slot_dim
    rmat, smat = x.rop, b.sop
    sign = -ONE if k % 2 else ONE               # (-1)^k
    r_cols = [tuple((a, rmat.at(a, u)) for a in range(dA) if rmat.at(a, u))
              for u in range(dM)]
    for flat_out in range(ti_m.size):
        mm = ti_m.unflatten(flat_out)
        rows = [row_off + w * ti_m.size + flat_out for w in range(dB)]
        picked = [r_cols[u] for u in mm]
        for atup, coeff in _weighted_tuples(picked):
            t_in = ti_a.flatten(atup)
            val = sign * coeff
            for w in range(dB):
                _ref_add(out, (rows[w], alpha_off + w * da_in + t_in), val)
        for i in range(1, k + 1):
            idx = mix_in.indexer(i)
            col_base = beta_off + dN * mix_in.offset(i)
            mixed = picked[:i - 1] + [((mm[i - 1], ONE),)] + picked[i:]
            for tup, coeff in _weighted_tuples(mixed):
                f_in = idx.flatten(tup)
                for v in range(dN):
                    col = col_base + v * slot_in + f_in
                    for w in range(dB):
                        sv = smat.at(w, v)
                        if sv:
                            _ref_add(out, (rows[w], col), -sign * coeff * sv)


def ref_rrb_differential_matrix(x, b, k):
    """Matrix of the full degree-k differential, k >= 1."""
    if k < 1:
        raise ShapeError("the differential starts in degree 1")
    a_in, bt_in, g_in = cochain_space_dims(x, b, k)
    a_out, bt_out, g_out = cochain_space_dims(x, b, k + 1)
    entries = {}
    _twisted_block(entries, x, b, k, a_out, 0, a_in)
    _operator_block(entries, x, b, k, a_out + bt_out, 0, a_in)
    out = paste(Matrix.from_entries(a_out + bt_out + g_out,
                                    a_in + bt_in + g_in, entries),
                ref_hochschild_matrix(b.base, k))
    if k >= 2:
        out = paste(
            out, ref_hochschild_matrix(mtot_action_bimodule(b).actions, k - 1),
            a_out + bt_out, a_in + bt_in)
    return out


def ref_psi_matrix(x, b, k):
    """Matrix of the comparison map from degree-k cochains on (M_Tot, base)
    to labelled degree-(k+1) cochains on (M, fiber), k >= 1.

    Label 1 pairs the leading argument against the value from the left
    with sign (-1)^(k+1); labels 2..k vanish; label k+1 pairs the trailing
    argument from the right.
    """
    if k < 1:
        raise ShapeError("the comparison map starts in degree 1")
    dM, dB, dN = x.module.dim, b.base.dim, b.fiber.dim
    ti_out, ti_in = TensorIndex((dM,) * (k + 1)), TensorIndex((dM,) * k)
    size, size_in = ti_out.size, ti_in.size
    last = k * dN * size                        # start of label k+1
    sign = ONE if k % 2 else -ONE               # (-1)^(k+1)
    lpair, rpair = nested(b.left_pair), nested(b.right_pair)
    out = {}
    for flat in range(size):
        mt = ti_out.unflatten(flat)
        lead = ti_in.flatten(mt[1:])
        trail = ti_in.flatten(mt[:k])
        for vb in range(dB):
            for w, c in enumerate(lpair[mt[0]][vb]):
                if c:
                    _ref_add(out, (w * size + flat, vb * size_in + lead),
                             sign * c)
            for w, c in enumerate(rpair[vb][mt[k]]):
                if c:
                    _ref_add(out, (last + w * size + flat,
                                   vb * size_in + trail), c)
    return Matrix.from_entries((k + 1) * dN * size, dB * size_in, out)


def ref_semidirect_inclusion_matrix(x, b, k):
    """Coordinates of the degree-k cochains inside the ambient complex.

    alpha becomes the map seeing only A-arguments and valued in the B
    summand; each slot map keeps its position with M and N embedded as
    summands; gamma sees only M-arguments and is valued in B.  The blocks
    of the full differential commute with this inclusion.
    """
    if k < 1:
        raise ShapeError("the inclusion starts in degree 1")
    dA, dM = x.algebra.dim, x.module.dim
    dB, dN = b.base.dim, b.fiber.dim
    big_a, big_m = dA + dB, dM + dN
    a_in, bt_in, g_in = cochain_space_dims(x, b, k)
    big, bigb = semidirect_complex(b)
    A_in, BT_in, G_in = cochain_space_dims(big, bigb, k)
    out = {}
    ti_a, ti_big_a = TensorIndex((dA,) * k), TensorIndex((big_a,) * k)
    for flat in range(ti_a.size):
        big_flat = ti_big_a.flatten(ti_a.unflatten(flat))
        for w in range(dB):
            _ref_add(out, ((dA + w) * ti_big_a.size + big_flat,
                           w * ti_a.size + flat), ONE)
    mix = MixedTensorSpace(k, dA, dM)
    big_mix = MixedTensorSpace(k, big_a, big_m)
    for s in range(1, k + 1):
        idx, big_idx = mix.indexer(s), big_mix.indexer(s)
        col_base = a_in + dN * mix.offset(s)
        row_base = A_in + big_m * big_mix.offset(s)
        for flat in range(idx.size):
            big_flat = big_idx.flatten(idx.unflatten(flat))
            for w in range(dN):
                _ref_add(out, (row_base + (dM + w) * big_idx.size + big_flat,
                               col_base + w * idx.size + flat), ONE)
    if k >= 2:
        ti_m = TensorIndex((dM,) * (k - 1))
        ti_big_m = TensorIndex((big_m,) * (k - 1))
        for flat in range(ti_m.size):
            big_flat = ti_big_m.flatten(ti_m.unflatten(flat))
            for w in range(dB):
                _ref_add(out, (A_in + BT_in + (dA + w) * ti_big_m.size
                               + big_flat,
                               a_in + bt_in + w * ti_m.size + flat), ONE)
    return Matrix.from_entries(A_in + BT_in + G_in, a_in + bt_in + g_in, out)


def ref_dendriform_embedding(k, dim_d, dim_e):
    """The hat H_k and unhat U_k between labelled k-cochains and the host.

    A labelled k-cochain is one map D^(x)k -> E per label 1..k, with
    coordinates (label - 1) * dim_e * dim_d^k + target * dim_d^k + tuple.
    The host complex is the Hochschild complex of the semidirect sum
    (total of D) (+) D with coefficients (total of E) (+) E.  H places
    each labelled coordinate twice: in the first component on the same
    tuple (so a pure first-component tuple sees the sum of all labels), and
    in the second component on the tuple whose only second-component
    argument sits at the label's position.  U reads the second place back,
    one nonzero per row, so U_k H_k is the identity.
    """
    if k < 1:
        raise ShapeError("labelled cochains start in degree 1")
    ti_d, ti_host = TensorIndex((dim_d,) * k), TensorIndex((2 * dim_d,) * k)
    size, host = ti_d.size, ti_host.size
    hat, unhat = {}, {}
    for t in range(size):
        first = ti_host.flatten(ti_d.unflatten(t))
        for i in range(k):
            second = (dim_e * host + first +
                      dim_d * (2 * dim_d) ** (k - 1 - i))
            for w in range(dim_e):
                col = (i * dim_e + w) * size + t
                _ref_add(hat, (w * host + first, col), ONE)
                _ref_add(hat, (second + w * host, col), ONE)
                _ref_add(unhat, (col, second + w * host), ONE)
    return (Matrix.from_entries(2 * dim_e * host, k * dim_e * size, hat),
            Matrix.from_entries(k * dim_e * size, 2 * dim_e * host, unhat))


def ref_dendriform_differential_matrix(d, e, k):
    """Matrix D_k = U_{k+1} delta H_k of the labelled differential, k >= 1.

    delta is the Hochschild differential of the doubled host.  It must keep
    the embedded subspace, H_{k+1} D_k = delta H_k; a mismatch signals a
    bug, so it raises.
    """
    _, bim = dendriform_to_rrb(d, e)
    host, _ = lift_bimodule(bim)
    hat, _ = ref_dendriform_embedding(k, d.dim, e.dim)
    hat_next, unhat_next = ref_dendriform_embedding(k + 1, d.dim, e.dim)
    image = hochschild_matrix(host, k) * hat
    out = unhat_next * image
    if hat_next * out != image:
        raise StructuralError(
            "the doubled differential left the labelled embedding")
    return out


# ---------------------------------------------------------------------------
# Reference constructions: the structures made from others, built one
# basis vector at a time through ref_build (StructureConstants.build) as
# they were before they became matrix expressions, kept verbatim.  They
# share with rotabaxter only the structure types and the sample cochain
# type, and solve through the Gauss-Jordan reference above, so the matrix
# forms are checked against an independent evaluation of the same
# formulas.


def ref_build(dim_left, dim_right, dim_out, fn):
    """fn(i, j) -> output coordinate vector."""
    return from_nested(
        dim_left, dim_right, dim_out,
        [[list(fn(i, j)) for j in range(dim_right)]
         for i in range(dim_left)])


def zero_vec(n):
    return (Q(0),) * n


def ref_dual_bimodule(mod):
    """Dual actions (a.f)(m) = f(m.a) and (f.a)(m) = f(a.m)."""
    alg = mod.over
    dA, dM = alg.dim, mod.dim
    lm, rm = nested(mod.left), nested(mod.right)
    left = ref_build(
        dA, dM, dM, lambda a, v: tuple(rm[w][a][v] for w in range(dM)))
    right = ref_build(
        dM, dA, dM, lambda v, a: tuple(lm[a][w][v] for w in range(dM)))
    names = tuple(n + "*" for n in mod.basis_names)
    return Bimodule(alg, dM, left, right, names)


def ref_dual_rrb_bimodule(b):
    """The dual bimodule on the transposed complex -S*: B* -> N*.

    New base N*, new fiber B*, A-actions by the dual bimodules, pairings
    l*(m, f_N)(b) = f_N(r(b, m)) and r*(f_N, m)(b) = f_N(l(m, b)).
    """
    dM = b.over.module.dim
    dB, dN = b.base.dim, b.fiber.dim
    lp, rp = nested(b.left_pair), nested(b.right_pair)
    lstar = ref_build(
        dM, dN, dB, lambda u, v: tuple(rp[w][u][v] for w in range(dB)))
    rstar = ref_build(
        dN, dM, dB, lambda v, u: tuple(lp[u][w][v] for w in range(dB)))
    return RRBBimodule(b.over, ref_dual_bimodule(b.fiber),
                       ref_dual_bimodule(b.base), -b.sop.transpose(), lstar,
                       rstar)


def ref_morphism_induced_bimodule(mor):
    """Pull the target structure back along a morphism (phi, psi).

    A acts on the target's algebra B and module N through phi, and the
    pairings use psi: l(m, b) = psi(m).b, r(b, m) = b.psi(m).
    """
    src, tgt = mor.source, mor.target
    alg = src.algebra
    dA, dM = alg.dim, src.module.dim
    dB, dN = tgt.algebra.dim, tgt.module.dim
    fa = [mor.phi.apply(basis_vec(dA, i)) for i in range(dA)]
    fm = [mor.psi.apply(basis_vec(dM, u)) for u in range(dM)]
    base = Bimodule(
        alg, dB,
        ref_build(
            dA, dB, dB, lambda i, w: tgt.algebra.mu(fa[i], basis_vec(dB, w))),
        ref_build(
            dB, dA, dB, lambda w, i: tgt.algebra.mu(basis_vec(dB, w), fa[i])),
        tgt.algebra.basis_names)
    fiber = Bimodule(
        alg, dN,
        ref_build(
            dA, dN, dN,
            lambda i, v: tgt.module.left(fa[i], basis_vec(dN, v))),
        ref_build(
            dN, dA, dN,
            lambda v, i: tgt.module.right(basis_vec(dN, v), fa[i])),
        tgt.module.basis_names)
    left_pair = ref_build(
        dM, dB, dN, lambda u, w: tgt.module.right(fm[u], basis_vec(dB, w)))
    right_pair = ref_build(
        dB, dM, dN, lambda w, u: tgt.module.left(basis_vec(dB, w), fm[u]))
    return RRBBimodule(src, base, fiber, tgt.rop, left_pair, right_pair)


def ref_transport_bilinear(c, f, g, h_inv):
    """Constants of h^-1 . c . (f (x) g) on the new bases."""
    return ref_build(
        f.cols, g.cols, h_inv.rows,
        lambda i, j: h_inv.apply(c(f.apply(basis_vec(f.cols, i)),
                                   g.apply(basis_vec(g.cols, j)))))


def ref_rb_from_r_matrix(r):
    """The Rota-Baxter operator R(a) = sum r[i][j] e_i . a . e_j."""
    alg, d = r.over, r.over.dim
    t = [r.matrix.row(i) for i in range(d)]
    cols = []
    for a in range(d):
        v = zero_vec(d)
        for i in range(d):
            for j in range(d):
                if t[i][j]:
                    w = alg.mu(alg.mu.on_basis(i, a), basis_vec(d, j))
                    v = add_vec(v, tuple(t[i][j] * x for x in w))
        cols.append(v)
    m = Matrix.from_rows([[cols[a][i] for a in range(d)] for i in range(d)])
    return alg, m


def ref_rb_bimodule_from_r_matrix(r, mod):
    """The induced operator R_M(m) = sum r[i][j] e_i . m . e_j on a bimodule."""
    alg = r.over
    if mod.over.mu != alg.mu:
        raise ShapeError("bimodule must be over the r-matrix algebra")
    d, dM = alg.dim, mod.dim
    t = [r.matrix.row(i) for i in range(d)]
    cols = []
    for u in range(dM):
        v = zero_vec(dM)
        for i in range(d):
            for j in range(d):
                if t[i][j]:
                    w = mod.right(mod.left.on_basis(i, u), basis_vec(d, j))
                    v = add_vec(v, tuple(t[i][j] * x for x in w))
        cols.append(v)
    m = Matrix.from_rows([[cols[u][p] for u in range(dM)]
                          for p in range(dM)])
    return m


def ref_endomorphism_rrb(cx):
    """The relative Rota-Baxter algebra of a 2-term complex A_1 -> A_0.

    A = End(complex) = {(f_0, f_1) : f_0 d = d f_1} with composition;
    M = Hom(A_0, ker d) with (f_0, f_1) . phi = f_1 phi and
    phi . (f_0, f_1) = phi f_0; R(phi) = (0, phi d).

    The basis of A is the deterministic kernel basis of the chain-map
    condition (f_0 coordinates row-major, then f_1); the basis of M is
    k_s (x) e_j^* over the kernel basis (k_s) of d, ordered (s, j).
    """
    d0, d1 = cx.dim0, cx.dim1
    dmat = cx.d  # d0 x d1
    nvars = d0 * d0 + d1 * d1
    cond = []
    for i in range(d0):
        for q in range(d1):
            row = [Q(0)] * nvars
            for j in range(d0):
                row[i * d0 + j] += dmat.at(j, q)
            for p in range(d1):
                row[d0 * d0 + p * d1 + q] -= dmat.at(i, p)
            cond.append(row)
    cond_m = Matrix.from_rows(cond) if cond else Matrix.zero(0, nvars)
    end_basis = reference_elimination(cond_m, [0] * cond_m.rows)[0]
    n = len(end_basis)
    kmat = Matrix.from_columns(nvars, end_basis)

    def coords(basis, vectors, what):
        """The coordinates of each vector in the columns of basis."""
        cols = [reference_elimination(basis, v)[1] for v in vectors]
        if None in cols:
            raise StructuralError(what)
        return cols

    def split(vec):
        f0 = Matrix(d0, d0, vec[:d0 * d0])
        f1 = Matrix(d1, d1, vec[d0 * d0:])
        return f0, f1

    ends = [split(v) for v in end_basis]
    mu = Matrix.from_columns(n, coords(
        kmat, [(a0 * b0).entries + (a1 * b1).entries
               for a0, a1 in ends for b0, b1 in ends],
        "vector is not a chain map"))
    alg = AssocAlgebra(n, StructureConstants(n, n, mu))

    kd = reference_elimination(dmat, [0] * dmat.rows)[0]
    rM = len(kd)
    dM = rM * d0
    # the f_1 kd[s] in ker d, in the basis kd, by (i, s)
    imgs = coords(Matrix.from_columns(d1, kd),
                  [f1.apply(k) for _, f1 in ends for k in kd],
                  "vector is not in ker d")

    def left_act(i, su):
        s, j = divmod(su, d0)
        img = imgs[i * rM + s]
        out = [Q(0)] * dM
        for t in range(rM):
            out[t * d0 + j] = img[t]
        return out

    def right_act(su, i):
        s, j0 = divmod(su, d0)
        f0, _ = ends[i]
        out = [Q(0)] * dM
        for j in range(d0):
            out[s * d0 + j] = f0.at(j0, j)
        return out

    left = Matrix.from_columns(
        dM, [left_act(i, su) for i in range(n) for su in range(dM)])
    right = Matrix.from_columns(
        dM, [right_act(su, i) for su in range(dM) for i in range(n)])
    mod = Bimodule(alg, dM, StructureConstants(n, dM, left),
                   StructureConstants(dM, n, right))

    rop_vecs = []
    for su in range(dM):
        s, j = divmod(su, d0)
        rop_vecs.append((Q(0),) * (d0 * d0) + tuple(
            dmat.at(j, q) * kd[s][p] for p in range(d1) for q in range(d1)))
    rop = Matrix.from_columns(
        n, coords(kmat, rop_vecs, "vector is not a chain map"))
    return RelativeRBAlgebra(alg, mod, rop)


def _ref_map_from_columns(cols, dom, cod):
    entries = tuple(cols[j][i] for i in range(cod) for j in range(dom))
    return Matrix(cod, dom, entries)


def _ref_fiber_coords(incl, vec, what):
    """Coordinates of a vector inside the image of an embedding."""
    sol = reference_elimination(incl, tuple(vec))[1]
    if sol is None:
        raise StructuralError(what + " does not land in the fiber")
    return sol


def ref_extract_cocycle(e, sec):
    """The degree-2 cochain measuring the section's failure to split.

    alpha(a, a') = s(a) s(a') - s(a a')        (product defect)
    beta_1(m, a) = sbar(m) s(a) - sbar(m a)    (right action defect)
    beta_2(a, m) = s(a) sbar(m) - sbar(a m)    (left action defect)
    gamma(m)     = R-hat(sbar(m)) - s(R(m))    (operator defect)

    Each defect is checked to land in the embedded fiber and returned
    in fiber coordinates.  For an extension made by build_extension,
    read with its canonical section, this recovers the glued cocycle
    exactly.
    """
    sec.validate(e)
    base, tot = e.base, e.total
    dA, dM = base.algebra.dim, base.module.dim
    sa = [sec.s.apply(basis_vec(dA, i)) for i in range(dA)]
    sm = [sec.sbar.apply(basis_vec(dM, u)) for u in range(dM)]
    alpha_cols, beta1_cols, beta2_cols, gamma_cols = {}, {}, {}, {}
    for i in range(dA):
        for j in range(dA):
            defect = sub_vec(tot.algebra.mu(sa[i], sa[j]),
                             sec.s.apply(base.algebra.mu.on_basis(i, j)))
            alpha_cols[i * dA + j] = _ref_fiber_coords(
                e.alg_incl, defect, "product defect")
    for u in range(dM):
        for i in range(dA):
            defect = sub_vec(tot.module.right(sm[u], sa[i]),
                             sec.sbar.apply(base.module.right.on_basis(u, i)))
            beta1_cols[u * dA + i] = _ref_fiber_coords(
                e.mod_incl, defect, "right action defect")
            defect = sub_vec(tot.module.left(sa[i], sm[u]),
                             sec.sbar.apply(base.module.left.on_basis(i, u)))
            beta2_cols[i * dM + u] = _ref_fiber_coords(
                e.mod_incl, defect, "left action defect")
    for u in range(dM):
        defect = sub_vec(tot.rop.apply(sm[u]),
                         sec.s.apply(base.rop.apply(basis_vec(dM, u))))
        gamma_cols[u] = _ref_fiber_coords(e.alg_incl, defect,
                                          "operator defect")
    dB, dN = e.fiber.dim0, e.fiber.dim1
    return RRBCochain(
        2,
        _ref_map_from_columns(alpha_cols, dA * dA, dB),
        (_ref_map_from_columns(beta1_cols, dM * dA, dN),
         _ref_map_from_columns(beta2_cols, dA * dM, dN)),
        _ref_map_from_columns(gamma_cols, dM, dB))


def ref_induced_fiber_bimodule(e, sec):
    """Push the total structure onto the fiber through a section.

    Base actions   a.b = s(a)  i(b),   b.a = i(b)  s(a)
    Fiber actions  a.n = s(a)  i(n),   n.a = i(n)  s(a)
    Pairings       l(m, b) = sbar(m) i(b),   r(b, m) = i(b) sbar(m)

    Every value is checked to land back in the embedded fiber.  The
    result does not depend on the chosen section, because sections
    differ by fiber values and products of fiber values vanish.
    """
    sec.validate(e)
    tot = e.total
    dA, dM = e.base.algebra.dim, e.base.module.dim
    dB, dN = e.fiber.dim0, e.fiber.dim1
    sa = [sec.s.apply(basis_vec(dA, i)) for i in range(dA)]
    sm = [sec.sbar.apply(basis_vec(dM, u)) for u in range(dM)]
    ib = [e.alg_incl.apply(basis_vec(dB, w)) for w in range(dB)]
    im = [e.mod_incl.apply(basis_vec(dN, v)) for v in range(dN)]

    def in_b(vec):
        return _ref_fiber_coords(e.alg_incl, vec, "induced product")

    def in_n(vec):
        return _ref_fiber_coords(e.mod_incl, vec, "induced action")

    base = Bimodule(
        e.base.algebra, dB,
        ref_build(
            dA, dB, dB, lambda i, w: in_b(tot.algebra.mu(sa[i], ib[w]))),
        ref_build(
            dB, dA, dB, lambda w, i: in_b(tot.algebra.mu(ib[w], sa[i]))))
    fiber = Bimodule(
        e.base.algebra, dN,
        ref_build(
            dA, dN, dN, lambda i, v: in_n(tot.module.left(sa[i], im[v]))),
        ref_build(
            dN, dA, dN, lambda v, i: in_n(tot.module.right(im[v], sa[i]))))
    left_pair = ref_build(
        dM, dB, dN, lambda u, w: in_n(tot.module.right(sm[u], ib[w])))
    right_pair = ref_build(
        dB, dM, dN, lambda w, u: in_n(tot.module.left(ib[w], sm[u])))
    return RRBBimodule(e.base, base, fiber, e.fiber.d, left_pair, right_pair)


def ref_shear(e1, e2, sec1, sec2, corr, incl1, incl2, proj):
    # v |-> s2(p(v)) + i2( i1-coords(v - s1(p(v))) + corr(p(v)) )
    n = proj.cols
    cod = incl2.rows
    cols = []
    for j in range(n):
        v = basis_vec(n, j)
        a = proj.apply(v)
        y = _ref_fiber_coords(incl1, sub_vec(v, sec1.apply(a)),
                              "section complement")
        cols.append(add_vec(sec2.apply(a),
                            incl2.apply(add_vec(y, corr.apply(a)))))
    return _ref_map_from_columns(cols, n, cod)


def ref_rb_restrict(pair, k, beta, gamma=None):
    """Differential of the restricted complex of (A, R) with (M, R_M) on
    one cochain (beta[, gamma]), gamma present from degree 2 on.

    The pair is read as the relative structure A -> A with coefficients
    M -> M; the input embeds with every slot map equal to beta, the full
    differential is applied, and the image is checked to have all slot
    maps equal to its alpha before they are dropped.  Returns the image's
    (alpha, gamma).
    """
    alg = pair.algebra
    x = RelativeRBAlgebra(alg, Bimodule.adjoint(alg), pair.rop)
    coeff = RRBBimodule(x, pair.module, pair.module, pair.mop,
                        pair.module.left, pair.module.right)
    emb = RRBCochain(k, beta, (beta,) * k, gamma)
    img = rrb_differential(x, coeff, k, emb)
    for bs in img.beta:
        if bs != img.alpha:
            raise StructuralError(
                "restricted image has a slot map disagreeing with its "
                "tensor component")
    return img.alpha, img.gamma
