"""Cochain complexes for relative Rota-Baxter algebras with coefficients.

The degree-k cochain space of (A, M, R) with coefficients in a bimodule
(S: N -> B, l, r) has three blocks:

    alpha : A^(x)k                      -> B
    beta  : one map per slot s = 1..k, A^(x)(s-1) (x) M (x) A^(x)(k-s) -> N
    gamma : M^(x)(k-1)                  -> B   (absent in degree 1)

and the space is zero in degree 0.  The differential combines four pieces:
the Hochschild differential of A on B for the alpha block, a twisted
differential on the slot maps (whose boundary terms consume alpha through
the pairings), the Hochschild differential of the total algebra M_Tot
acting on B for the gamma block, and an operator term h feeding
(alpha, beta) into the gamma block through R and S.

The formulas are written once, in rrb_terms: one list per degree of
(sign, in-block, out-block, term), where a term is a product P X Q of a
cochain block X with structure constants, Q given as its Kronecker
factors (a tensor read as a matrix between identities, or R and I_M), or
a tensor applied to the columns of X and of a fixed matrix.  Each merge,
face and operator term is a term of its own, so no operator's matrix is
built, padded or summed, and a term with a zero factor (a zero tensor,
or the identity of a zero-dimensional space) is not built at all: each
list reads every structure tensor once, before it makes any term.
rrb_differential_matrix assembles the terms into the whole map, which
gives the cohomology dimensions, derivation bases and random cocycles.
The image of one cochain (rrb_differential, cocycle_report) is its
coordinate row times the transpose the sweep assembles: one row product,
where the map times its column would sum once per row of the map.  The
comparison map psi_matrix and the inclusion into the semidirect complex
are assembled from terms the same way.  A cochain's coordinates are one
row, linalg.stacked_row of its blocks, or its transpose, the column
linalg.stacked, and a cochain is cut back out of a column of any matrix
(RRBCochain.of_column, with linalg.unstacked), so images, kernel bases
and solutions become cochains with no rational built.

The same file carries the two sibling complexes that interact with this
one: the labelled dendriform complex and the restricted complex of a
Rota-Baxter bimodule (the bimodule S = R_M: M -> M over (A, A, R)),
together with the comparison maps between them.  The restricted
differential is the matrix P d E of the full one between an embedding E
and a projection P (rb_differential_matrix).  A
labelled k-cochain on dendriform data (D, E) has the coordinates of the
slot maps of a degree-k cochain on dendriform_to_rrb(D, E), so the
labelled differential is assembled from the slot-map terms of the same
list (_slot_terms), with alpha read as the sum of the labels.  It and the
comparison map psi_matrix from the Hochschild complex of M_Tot acting on B
are matrices, so the chain map identity is one exact matrix identity over
all cochains.

Coordinates everywhere are target-major matrix entries (index =
target * domain_size + flattened tuple), with the blocks concatenated in
the order alpha, beta_1, ..., beta_k, gamma (labelled cochains: label 1
to k).
"""

from __future__ import annotations

from math import prod

from .algebra import Report, ShapeError, StructuralError, hochschild_terms
from .linalg import (
    Matrix, OnColumns, Product, assemble_terms, between_identities,
    kernel_basis, kron, stacked_row, transposed_homology_dims, unstacked,
)
from .rrb_modules import (
    adjoint_bimodule, dendriform_to_rrb, mtot_action_bimodule,
    semidirect_rrb,
)

# ---------------------------------------------------------------------------
# cochains


class RRBCochain:
    """Degree-k cochain (alpha, beta_1..beta_k[, gamma]).

    alpha maps A^(x)k into the base, the slot map beta_s swaps the s-th A
    factor for M and lands in the fiber, and gamma (degree >= 2 only) maps
    M^(x)(k-1) into the base.
    """

    __slots__ = ("degree", "alpha", "beta", "gamma")

    def __init__(self, degree, alpha, beta, gamma=None):
        beta = tuple(beta)
        if degree < 1:
            raise ShapeError("cochain degree must be >= 1")
        if len(beta) != degree:
            raise ShapeError(
                f"degree {degree} needs {degree} slot maps, got {len(beta)}")
        if (gamma is None) != (degree == 1):
            raise ShapeError("gamma is present exactly when the degree is >= 2")
        for bs in beta:
            if (bs.rows, bs.cols) != (beta[0].rows, beta[0].cols):
                raise ShapeError("slot maps must share their shape")
        self.degree = degree
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma

    def validate(self, x, b):
        """Check all shapes against a structure pair; returns self."""
        dA, dM = x.algebra.dim, x.module.dim
        k = self.degree
        if self.alpha.cols != dA ** k or self.alpha.rows != b.base.dim:
            raise ShapeError("alpha must map A^(x)k into the base")
        slot = dA ** (k - 1) * dM
        for bs in self.beta:
            if bs.cols != slot or bs.rows != b.fiber.dim:
                raise ShapeError("slot maps must land in the fiber")
        if k >= 2 and (self.gamma.cols != dM ** (k - 1) or
                       self.gamma.rows != b.base.dim):
            raise ShapeError("gamma must map M^(x)(k-1) into the base")
        return self

    def blocks(self):
        """The maps alpha, beta_1..beta_k[, gamma], in coordinate order."""
        return [self.alpha, *self.beta] + \
            ([] if self.gamma is None else [self.gamma])

    @staticmethod
    def of_blocks(k, maps):
        """The degree-k cochain whose maps, in coordinate order, are maps."""
        return RRBCochain(k, maps[0], maps[1:k + 1],
                          None if k == 1 else maps[k + 1])

    def vector(self):
        return tuple(v for m in self.blocks() for v in m.entries)

    @staticmethod
    def of_column(x, b, k, m, j=0):
        """The degree-k cochain whose coordinates are column j of m."""
        shapes = _block_shapes(x, b, k)
        size = sum(rows * cols for rows, cols in shapes)
        if m.rows != size:
            raise ShapeError(f"column length {m.rows}, expected {size}")
        return RRBCochain.of_blocks(k, unstacked(m, j, shapes))


# ---------------------------------------------------------------------------
# the differential, block by block


def cochain_space_dims(x, b, k):
    """Sizes of the three coordinate blocks in degree k."""
    if k < 0:
        raise ShapeError(f"cochain degree must be >= 0, got {k}")
    if k == 0:
        return (0, 0, 0)
    sizes = [rows * cols for rows, cols in _block_shapes(x, b, k)]
    return (sizes[0], sum(sizes[1:k + 1]), sum(sizes[k + 1:]))


def _block_shapes(x, b, k):
    """The (rows, cols) of the matrices alpha, beta_1..beta_k[, gamma] of a
    degree-k cochain, k >= 1."""
    dA, dM = x.algebra.dim, x.module.dim
    dB, dN = b.base.dim, b.fiber.dim
    shapes = [(dB, dA ** k)] + [(dN, dA ** (k - 1) * dM)] * k
    return shapes if k == 1 else shapes + [(dB, dM ** (k - 1))]


def _slot_merges(x, k, t, mu, left, right):
    """The neighbour merges into output slot t of the degree-(k+1) slot
    maps, one (sign, input slot, term) per merge: merging factors i and
    i+1 is X -> X (I (x) p (x) I), given by its Kronecker factors,
    with p the right action when M sits at i, the left action when it sits
    at i+1 and the product of A otherwise, and sign (-1)^i.  mu, left and
    right are those matrices, None where zero, and a merge with a zero
    factor, one of them or the identity of a zero-dimensional space, is
    not built."""
    dA, dM = x.algebra.dim, x.module.dim
    dims = (dA,) * (t - 1) + (dM,) + (dA,) * (k + 1 - t)
    for i in range(1, k + 1):
        p = right if t == i else left if t == i + 1 else mu
        before, after = prod(dims[:i - 1]), prod(dims[i + 1:])
        if p is not None and before and after:
            yield ((-1) ** i, t if t <= i else t - 1,
                   Product(None, between_identities(before, p, after)))


def _slot_terms(x, b, k):
    """The terms of the degree-k differential whose out-block is a slot map
    1..k+1.  Slot map t of the image takes its leading argument from the
    left (the left pairing on alpha when t = 1, the left fiber action on
    beta_{t-1} otherwise), the neighbour merges of beta_{t-1} and beta_t,
    and its trailing argument from the right (the right pairing on alpha
    when t = k+1, the right fiber action on beta_t otherwise).  Each
    tensor is read once, and a zero one builds none of its terms."""
    dA, dM = x.algebra.dim, x.module.dim
    mu, left, right, lpair, rpair, fleft, fright = (
        None if c.is_zero() else c.matrix for c in (
            x.algebra.mu, x.module.left, x.module.right, b.left_pair,
            b.right_pair, b.fiber.left, b.fiber.right))
    last, terms = (-1) ** (k + 1), []
    for t in range(1, k + 2):
        s, p, n = (0, lpair, dM) if t == 1 else (t - 1, fleft, dA)
        if p is not None:
            terms.append((1, s, t, OnColumns(p, n)))
        terms.extend((sign, s, t, term) for sign, s, term
                     in _slot_merges(x, k, t, mu, left, right))
        s, p, n = (0, rpair, dM) if t == k + 1 else (t, fright, dA)
        if p is not None:
            terms.append((last, s, t, OnColumns(p, n, x_first=True)))
    return terms


def rrb_terms(x, b, k):
    """The degree-k differential, k >= 1, as (sign, in-block, out-block,
    term) terms (see linalg.assemble_terms).  The blocks are numbered in
    coordinate order: alpha 0, beta_s s, gamma k+1 in degree k.

    alpha' is the Hochschild differential of A on the base applied to
    alpha, the slot maps are _slot_terms, and gamma' is
    (-1)^k (alpha R^(x)k - sum_i S beta_i (R .. I_M .. R)), plus from
    degree 2 on the Hochschild differential of M_Tot on the base applied to
    gamma.  A term with a zero factor is not built: a zero R drops
    alpha R^(x)k, and from degree 2 on the S terms too, and a zero S or
    dim M = 0 drops the S terms.
    """
    dM, r, gamma = x.module.dim, x.rop, k + 2
    terms = [(s, 0, 0, t) for s, t in hochschild_terms(b.base, k)]
    terms.extend(_slot_terms(x, b, k))
    r_zero = r.is_zero()
    if not r_zero:
        terms.append(((-1) ** k, 0, gamma, Product(None, (r,) * k)))
    if dM and not b.sop.is_zero() and (k == 1 or not r_zero):
        # I_M as a Kronecker factor, none when it is 1 x 1
        im = () if dM == 1 else (Matrix.identity(dM),)
        terms.extend((-(-1) ** k, i, gamma,
                      Product(b.sop, (r,) * (i - 1) + im + (r,) * (k - i)))
                     for i in range(1, k + 1))
    if k >= 2:
        terms.extend((s, k + 1, gamma, t) for s, t in
                     hochschild_terms(mtot_action_bimodule(b), k - 1))
    return terms


def _image(x, b, c):
    """The coordinate row of the differential of c: c's coordinate row
    times the transpose of the differential in c's degree, one row product
    where the differential times c's column makes one sum per row."""
    return stacked_row(c.validate(x, b).blocks()) * \
        rrb_differential_matrix(x, b, c.degree, transposed=True)


def rrb_differential(x, b, k, c):
    """Apply the degree-k differential to a cochain."""
    if c.degree != k:
        raise ShapeError(f"cochain degree {c.degree} != {k}")
    return RRBCochain.of_column(x, b, k + 1, _image(x, b, c).transpose())


def rrb_differential_matrix(x, b, k, transposed=False):
    """Matrix of the full degree-k differential, k >= 1, or its transpose
    when transposed, assembled from rrb_terms."""
    if k < 1:
        raise ShapeError("the differential starts in degree 1")
    return assemble_terms(rrb_terms(x, b, k), _block_shapes(x, b, k),
                          _block_shapes(x, b, k + 1), transposed)


def cocycle_report(x, b, c, strict=False):
    """The cocycle condition on c, one law per block of its differential.

    The laws are differential_vanishes[alpha], [beta s] for each slot s,
    and [gamma] from degree 2 on.  With strict set, a failure raises
    StructuralError naming the nonzero blocks instead.  The image is c's
    coordinate row times the transpose of the differential.  A zero image
    passes with no block read out; only a nonzero one is turned into a
    column and split into the blocks of a cochain.
    """
    image = _image(x, b, c)
    rep = Report("cocycle")
    if image.is_zero():
        return rep
    k = c.degree + 1
    names = [("alpha", "alpha")]
    names.extend((f"beta {s}", f"beta[slot {s}]") for s in range(1, k + 1))
    names.append(("gamma", "gamma"))
    blocks = RRBCochain.of_column(x, b, k, image.transpose()).blocks()
    for (law, _), m in zip(names, blocks):
        rep.require_equal(f"differential_vanishes[{law}]", m,
                          Matrix(m.rows, m.cols))
    bad = [name for (_, name), m in zip(names, blocks) if not m.is_zero()]
    if strict and bad:
        raise StructuralError(
            "not a cocycle: the differential is nonzero in " + ", ".join(bad))
    return rep


def rrb_cohomology_dims(x, b, max_degree):
    """[dim H^1, ..., dim H^K]; the degree-0 space is zero, so the map into
    degree 1 is the zero map."""
    if max_degree < 1:
        raise ShapeError(f"RRB cohomology starts in degree 1, got {max_degree}")
    return transposed_homology_dims(
        rrb_differential_matrix(x, b, k, transposed=True)
        for k in range(1, max_degree + 1))


# ---------------------------------------------------------------------------
# degree-1 cocycles


def check_derivation(x, b, alpha, beta):
    """The four identities cutting out the degree-1 cocycles.

    alpha(a.a') = alpha(a).a' + a.alpha(a')            (values in the base)
    beta(a.m)   = r(alpha(a), m) + a.beta(m)           (values in the fiber)
    beta(m.a)   = beta(m).a + l(m, alpha(a))
    alpha(R m)  = S(beta(m))
    """
    alg, mod = x.algebra, x.module
    dA, dM = alg.dim, mod.dim
    a, bm = alpha, beta
    ia, im = Matrix.identity(dA), Matrix.identity(dM)
    rep = Report("derivation_pair")
    # at each basis vector of A: leibniz over A, then both actions over M
    rep.require_laws([
        ("leibniz", (dA, dA), a * alg.mu.matrix,
         b.base.right.on_columns(a, ia) + b.base.left.on_columns(ia, a),
         lambda i, j: (i, 0, j)),
        ("left_action", (dA, dM), bm * mod.left.matrix,
         b.right_pair.on_columns(a, im) + b.fiber.left.on_columns(ia, bm),
         lambda i, u: (i, 1, u)),
        ("right_action", (dM, dA), bm * mod.right.matrix,
         b.fiber.right.on_columns(bm, ia) + b.left_pair.on_columns(im, a),
         lambda u, i: (i, 1, u))])
    rep.require_laws([("intertwine", (dM,), a * x.rop,
                       b.sop * bm, None)])
    return rep


def derivation_basis(x, b):
    """Basis of the degree-1 cocycles as (alpha, beta) cochains."""
    basis = kernel_basis(rrb_differential_matrix(x, b, 1))
    return [RRBCochain.of_column(x, b, 1, basis, j)
            for j in range(basis.cols)]


# ---------------------------------------------------------------------------
# the restricted complex of a Rota-Baxter bimodule


def _embedding(x, b, k):
    """E_k: the restricted k-cochains (beta[, gamma]) inside the k-cochains
    on (x, b), as alpha = beta_1 = .. = beta_k = beta, gamma kept."""
    n, _, g = cochain_space_dims(x, b, k)
    return Matrix.from_blocks((k + 1) * n + g, n + g, (
        (1, kron(Matrix(k + 1, 1, [1] * (k + 1)), Matrix.identity(n)), 0, 0),
        (1, Matrix.identity(g), (k + 1) * n, n)))


def rb_differential_matrix(b, k):
    """Matrix of the degree-k differential of the restricted complex of a
    Rota-Baxter bimodule b, k >= 1: P_{k+1} d_k E_k.

    b is (M, R_M) over (A, R), read as the relative structure A -> A with
    coefficients M -> M (rrb_modules.rb_bimodule_from_r_matrix builds
    one), whose differential is d_k; it needs dim M = dim A and
    dim B = dim N.  A restricted k-cochain is beta: A^(x)k -> M, with
    gamma: A^(x)(k-1) -> M from degree 2 on; E_k embeds it (_embedding)
    and P_{k+1} keeps the alpha and gamma blocks of the image.  The
    complex is closed under the differential when
    E_{k+1} P_{k+1} d_k E_k == d_k E_k, on all cochains at once.  A
    failure would signal a bug, so it raises instead of returning.
    """
    x = b.over
    if x.module.dim != x.algebra.dim or b.base.dim != b.fiber.dim:
        raise ShapeError("the restricted complex needs dim M = dim A and "
                         "dim B = dim N")
    image = rrb_differential_matrix(x, b, k) * _embedding(x, b, k)
    n, _, g = cochain_space_dims(x, b, k + 1)
    keep = Matrix.from_blocks(n + g, image.rows, (
        (1, Matrix.identity(n), 0, 0),
        (1, Matrix.identity(g), n, image.rows - g)))
    restricted = keep * image
    if _embedding(x, b, k + 1) * restricted != image:
        raise StructuralError(
            "restricted image has a slot map disagreeing with its tensor "
            "component")
    return restricted


# ---------------------------------------------------------------------------
# the labelled dendriform complex


def dendriform_differential_matrix(d, e, k):
    """Matrix D_k of the labelled differential, k >= 1.

    A labelled k-cochain is one map D^(x)k -> E per label 1..k, with
    coordinates (label - 1) * dim_e * dim_d^k + target * dim_d^k + tuple.
    These are the slot maps of a degree-k cochain on dendriform_to_rrb(d, e),
    whose alpha is read as the sum of the labels: D_k is the slot-map part
    of the differential there, each alpha term fed by every label.
    """
    if k < 1:
        raise ShapeError("labelled cochains start in degree 1")
    x, b = dendriform_to_rrb(d, e)
    terms = [(s, j, t - 1, term) for s, i, t, term in _slot_terms(x, b, k)
             for j in (range(k) if i == 0 else (i - 1,))]
    return assemble_terms(terms, [(e.dim, d.dim ** k)] * k,
                          [(e.dim, d.dim ** (k + 1))] * (k + 1))


def psi_matrix(x, b, k):
    """Matrix of the comparison map from degree-k cochains on (M_Tot, base)
    to labelled degree-(k+1) cochains on (M, fiber), k >= 1.

    Label 1 pairs the leading argument against the value from the left
    with sign (-1)^(k+1); labels 2..k vanish; label k+1 pairs the trailing
    argument from the right.
    """
    if k < 1:
        raise ShapeError("the comparison map starts in degree 1")
    dM, dB, dN = x.module.dim, b.base.dim, b.fiber.dim
    terms = [((-1) ** (k + 1), 0, 0, OnColumns(b.left_pair.matrix, dM)),
             (1, 0, k, OnColumns(b.right_pair.matrix, dM, x_first=True))]
    return assemble_terms(terms, [(dB, dM ** k)],
                          [(dN, dM ** (k + 1))] * (k + 1))


# ---------------------------------------------------------------------------
# the ambient semidirect complex


def semidirect_complex(b):
    """The semidirect-sum structure with its own adjoint coefficients."""
    big = semidirect_rrb(b)
    return big, adjoint_bimodule(big)


def summand_inclusions(d1, d2):
    """The inclusions of the two summands into a direct sum of dimensions
    d1 and d2; their transposes are the projections onto them."""
    return (Matrix.from_blocks(d1 + d2, d1, [(1, Matrix.identity(d1), 0, 0)]),
            Matrix.from_blocks(d1 + d2, d2,
                               [(1, Matrix.identity(d2), d1, 0)]))


def semidirect_inclusion_matrix(x, b, k):
    """Coordinates of the degree-k cochains inside the ambient complex.

    alpha becomes the map seeing only A-arguments and valued in the B
    summand; each slot map keeps its position with M and N embedded as
    summands; gamma sees only M-arguments and is valued in B.  Each is
    X -> inc X proj for the inclusion inc of its value summand and the
    Kronecker product proj of the projections onto its argument summands,
    given as its factors, so its matrix is a Kronecker product of summand
    inclusions.  The blocks of the full differential commute with it.
    """
    if k < 1:
        raise ShapeError("the inclusion starts in degree 1")
    inc_a, inc_b = summand_inclusions(x.algebra.dim, b.base.dim)
    inc_m, inc_n = summand_inclusions(x.module.dim, b.fiber.dim)
    proj_a, proj_m = inc_a.transpose(), inc_m.transpose()
    terms = [(1, 0, 0, Product(inc_b, (proj_a,) * k))]
    terms.extend((1, s, s, Product(inc_n, (proj_a,) * (s - 1) + (proj_m,) +
                                   (proj_a,) * (k - s)))
                 for s in range(1, k + 1))
    if k >= 2:
        terms.append((1, k + 1, k + 1, Product(inc_b, (proj_m,) * (k - 1))))
    return assemble_terms(terms, _block_shapes(x, b, k),
                          _block_shapes(*semidirect_complex(b), k))
