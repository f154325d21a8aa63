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

rrb_differential applies the differential to one cochain as products of
its blocks with the structure constants (each tensor read as a matrix, and
padded with identities by linalg.kron), so checking one cocycle builds no
differential matrix.  rrb_differential_matrix assembles the whole map, entry
by entry, for what needs ranks and kernels: cohomology dimensions,
derivation bases and random cocycles.  The two index the same formulas in
two ways, and the tests tie them together.

The same file carries the two sibling complexes that interact with this
one: the labelled dendriform complex and the restricted complex of a
Rota-Baxter pair, together with the comparison maps between them.  The
labelled complex and its comparison map from the Hochschild complex of
M_Tot acting on B are matrices: the hat and unhat between labelled
cochains and the Hochschild complex of a doubled semidirect structure,
the labelled differential read through them, and psi_matrix.  So the
chain map identity is one exact matrix identity over all cochains.

Coordinates everywhere are target-major matrix entries (index =
target * domain_size + flattened tuple), with the blocks concatenated in
the order alpha, beta_1, ..., beta_k, gamma (labelled cochains: label 1
to k).
"""

from __future__ import annotations

from itertools import product as iter_product
from math import prod

from .algebra import (
    Bimodule, LinearMap, Report, ShapeError, StructuralError,
    hochschild_matrix,
)
from .linalg import (
    Matrix, Q, TensorIndex, homology_dims, kernel_basis, kron, paste,
    signed_sum,
)
from .rrb import RelativeRBAlgebra
from .rrb_modules import (
    RRBBimodule, adjoint_bimodule, dendriform_to_rrb, lift_bimodule,
    mtot_action_bimodule, semidirect_rrb,
)

ZERO = Q(0)
ONE = Q(1)


# ---------------------------------------------------------------------------
# cochain containers


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
            if (bs.domain_dim, bs.codomain_dim) != \
                    (beta[0].domain_dim, beta[0].codomain_dim):
                raise ShapeError("slot maps must share their shape")
        self.degree = degree
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma

    def validate(self, x, b):
        """Check all shapes against a structure pair; returns self."""
        dA, dM = x.algebra.dim, x.module.dim
        k = self.degree
        if self.alpha.domain_dim != dA ** k or \
                self.alpha.codomain_dim != b.base.dim:
            raise ShapeError("alpha must map A^(x)k into the base")
        slot = dA ** (k - 1) * dM
        for bs in self.beta:
            if bs.domain_dim != slot or bs.codomain_dim != b.fiber.dim:
                raise ShapeError("slot maps must land in the fiber")
        if k >= 2 and (self.gamma.domain_dim != dM ** (k - 1) or
                       self.gamma.codomain_dim != b.base.dim):
            raise ShapeError("gamma must map M^(x)(k-1) into the base")
        return self

    @staticmethod
    def zero(x, b, k):
        dA, dM = x.algebra.dim, x.module.dim
        dB, dN = b.base.dim, b.fiber.dim
        alpha = LinearMap.zero(dA ** k, dB)
        beta = (LinearMap.zero(dA ** (k - 1) * dM, dN),) * k
        gamma = None if k == 1 else LinearMap.zero(dM ** (k - 1), dB)
        return RRBCochain(k, alpha, beta, gamma)

    def vector(self):
        out = list(self.alpha.matrix.entries)
        for bs in self.beta:
            out.extend(bs.matrix.entries)
        if self.gamma is not None:
            out.extend(self.gamma.matrix.entries)
        return tuple(out)

    @staticmethod
    def from_vector(x, b, k, vec):
        dA, dM = x.algebra.dim, x.module.dim
        dB, dN = b.base.dim, b.fiber.dim
        da, slot = dA ** k, dA ** (k - 1) * dM
        vec = tuple(vec)
        size = dB * da + k * dN * slot + (0 if k == 1 else dB * dM ** (k - 1))
        if len(vec) != size:
            raise ShapeError(f"vector length {len(vec)}, expected {size}")
        pos = 0

        def take(rows, cols):
            nonlocal pos
            m = Matrix(rows, cols, vec[pos:pos + rows * cols])
            pos += rows * cols
            return LinearMap(cols, rows, m)

        alpha = take(dB, da)
        beta = tuple(take(dN, slot) for _ in range(k))
        gamma = None if k == 1 else take(dB, dM ** (k - 1))
        return RRBCochain(k, alpha, beta, gamma)

    def __eq__(self, other):
        return (isinstance(other, RRBCochain) and
                self.degree == other.degree and self.alpha == other.alpha and
                self.beta == other.beta and self.gamma == other.gamma)


class RBCochain:
    """Degree-k cochain of the restricted (non-relative) complex.

    Degree 1 is a single map A -> M; degree k >= 2 is a pair
    (beta: A^(x)k -> M, gamma: A^(x)(k-1) -> M).
    """

    __slots__ = ("degree", "beta", "gamma")

    def __init__(self, degree, beta, gamma=None):
        if degree < 1:
            raise ShapeError("cochain degree must be >= 1")
        if (gamma is None) != (degree == 1):
            raise ShapeError("gamma is present exactly when the degree is >= 2")
        self.degree = degree
        self.beta = beta
        self.gamma = gamma

    def __eq__(self, other):
        return (isinstance(other, RBCochain) and
                self.degree == other.degree and self.beta == other.beta and
                self.gamma == other.gamma)


# ---------------------------------------------------------------------------
# the differential, block by block


def cochain_space_dims(x, b, k):
    """Sizes of the three coordinate blocks in degree k."""
    if k < 0:
        raise ShapeError(f"cochain degree must be >= 0, got {k}")
    dA, dM = x.algebra.dim, x.module.dim
    dB, dN = b.base.dim, b.fiber.dim
    if k == 0:
        return (0, 0, 0)
    if k == 1:
        return (dA * dB, dM * dN, 0)
    return (dA ** k * dB, k * dA ** (k - 1) * dM * dN, dM ** (k - 1) * dB)


def _twisted_block(out, x, b, k, row_off, alpha_off, beta_off):
    """Rows of the fiber-valued output block.

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
    lp, rp = b.left_pair, b.right_pair
    ln, rn = b.fiber.left, b.fiber.right
    lm, rm, mu = mod.left, mod.right, alg.mu
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
                plane = lp.data[tup[0]]
                for vb in range(dB):
                    col = alpha_off + vb * da_in + t_in
                    for w, c in enumerate(plane[vb]):
                        if c:
                            out.add(rows[w], col, c)
            else:
                f_in = mix_in.indexer(t - 1).flatten(tup[1:])
                col_base = beta_off + dN * mix_in.offset(t - 1)
                plane = ln.data[tup[0]]
                for v in range(dN):
                    col = col_base + v * slot_in + f_in
                    for w, c in enumerate(plane[v]):
                        if c:
                            out.add(rows[w], col, c)
            # neighbour merges
            sign = ONE
            for i in range(1, k + 1):
                sign = -sign
                li, ri = tup[i - 1], tup[i]
                if t == i:
                    prods, s_in = rm.data[li][ri], i
                elif t == i + 1:
                    prods, s_in = lm.data[li][ri], i
                else:
                    prods = mu.data[li][ri]
                    s_in = t if t < i else t - 1
                idx = mix_in.indexer(s_in)
                col_base = beta_off + dN * mix_in.offset(s_in)
                head, tail = tup[:i - 1], tup[i + 1:]
                for p, c in enumerate(prods):
                    if not c:
                        continue
                    f_in = idx.flatten(head + (p,) + tail)
                    for w in range(dN):
                        out.add(rows[w], col_base + w * slot_in + f_in,
                                sign * c)
            # trailing term
            if t == k + 1:
                t_in = ti_a_in.flatten(tup[:k])
                for vb in range(dB):
                    col = alpha_off + vb * da_in + t_in
                    for w, c in enumerate(rp.data[vb][tup[k]]):
                        if c:
                            out.add(rows[w], col, last_sign * c)
            else:
                f_in = mix_in.indexer(t).flatten(tup[:k])
                col_base = beta_off + dN * mix_in.offset(t)
                for v in range(dN):
                    col = col_base + v * slot_in + f_in
                    for w, c in enumerate(rn.data[v][tup[k]]):
                        if c:
                            out.add(rows[w], col, last_sign * c)


def _weighted_tuples(choices):
    """Cartesian product of (index, weight) lists with multiplied weights."""
    for picks in iter_product(*choices):
        coeff = ONE
        idx = []
        for i, c in picks:
            idx.append(i)
            coeff = coeff * c
        yield tuple(idx), coeff


def _operator_block(out, x, b, k, row_off, alpha_off, beta_off):
    """Rows of the base-valued output block fed by R and S.

    (-1)^k { alpha(R m_1, ..., R m_k)
             - sum_i S . beta_i(R m_1, ..., m_i, ..., R m_k) }.
    """
    dA, dM = x.algebra.dim, x.module.dim
    dB, dN = b.base.dim, b.fiber.dim
    mix_in = MixedTensorSpace(k, dA, dM)
    ti_m = TensorIndex((dM,) * k)
    ti_a = TensorIndex((dA,) * k)
    da_in, slot_in = ti_a.size, mix_in.slot_dim
    rmat, smat = x.rop.matrix, b.sop.matrix
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
                out.add(rows[w], alpha_off + w * da_in + t_in, val)
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
                            out.add(rows[w], col, -sign * coeff * sv)


def rrb_differential_matrix(x, b, k):
    """Matrix of the full degree-k differential, k >= 1."""
    if k < 1:
        raise ShapeError("the differential starts in degree 1")
    a_in, bt_in, g_in = cochain_space_dims(x, b, k)
    a_out, bt_out, g_out = cochain_space_dims(x, b, k + 1)
    out = Matrix(a_out + bt_out + g_out, a_in + bt_in + g_in)
    paste(out, hochschild_matrix(b.base, k))
    _twisted_block(out, x, b, k, a_out, 0, a_in)
    _operator_block(out, x, b, k, a_out + bt_out, 0, a_in)
    if k >= 2:
        paste(out, hochschild_matrix(mtot_action_bimodule(b).actions, k - 1),
              a_out + bt_out, a_in + bt_in)
    return out


def _at(pre, p, post):
    """kron(I_pre, p, I_post): p acting on the factors between a block of
    dimension pre and one of dimension post."""
    if pre != 1:
        p = kron(Matrix.identity(pre), p)
    return p if post == 1 else kron(p, Matrix.identity(post))


def _powers(m, n):
    """The Kronecker powers m^(x)0 .. m^(x)n, the first the 1x1 identity."""
    out = [Matrix.identity(1)]
    for _ in range(n):
        out.append(kron(out[-1], m))
    return out


def _hochschild_image(mod, f, k):
    """The Hochschild differential of the bimodule mod on the degree-k
    cochain f (a matrix with dim A^k columns), k >= 1, as the block products
    a_1 . f(...), sum_i (-1)^i f(..., a_i a_{i+1}, ...) and
    (-1)^(k+1) f(...) . a_{k+1}."""
    dA = mod.over.dim
    ia, mu = Matrix.identity(dA), mod.over.mu.matrix
    faces = signed_sum(((-1) ** i, _at(dA ** (i - 1), mu, dA ** (k - i)))
                       for i in range(1, k + 1))
    return signed_sum([(1, mod.left.on_columns(ia, f)), (1, f * faces),
                       ((-1) ** (k + 1), mod.right.on_columns(f, ia))])


def _slot_merges(x, k, t):
    """The neighbour merges into output slot t of the degree-(k+1) slot
    maps, as {input slot: summed operator}: merging factors i and i+1 is
    the right action when M sits at i, the left action when it sits at
    i+1 and the product of A otherwise, with sign (-1)^i."""
    dA, dM = x.algebra.dim, x.module.dim
    dims = (dA,) * (t - 1) + (dM,) + (dA,) * (k + 1 - t)
    terms = {}
    for i in range(1, k + 1):
        p = (x.module.right if t == i else
             x.module.left if t == i + 1 else x.algebra.mu)
        op = _at(prod(dims[:i - 1]), p.matrix, prod(dims[i + 1:]))
        terms.setdefault(t if t <= i else t - 1, []).append(((-1) ** i, op))
    return {s: signed_sum(ops) for s, ops in terms.items()}


def rrb_differential(x, b, k, c):
    """Apply the degree-k differential to a cochain, block by block.

    Each output block is a sum of products of the cochain's blocks with the
    structure constants, in the order of the paper's formulas; the matrix
    of rrb_differential_matrix is never assembled.
    alpha' is the Hochschild differential of A on the base applied to
    alpha.  Slot map t of the image takes its leading argument from the
    left (the left pairing on alpha when t = 1, the left fiber action on
    beta_{t-1} otherwise), the neighbour merges of beta_{t-1} and beta_t,
    and its trailing argument from the right (the right pairing on alpha
    when t = k+1, the right fiber action on beta_t otherwise).  gamma' is
    (-1)^k (alpha R^(x)k - sum_i S beta_i (R .. I_M .. R)), plus from
    degree 2 on the Hochschild differential of M_Tot on the base applied to
    gamma.
    """
    if c.degree != k:
        raise ShapeError(f"cochain degree {c.degree} != {k}")
    c.validate(x, b)
    dA, dM = x.algebra.dim, x.module.dim
    ia, im = Matrix.identity(dA), Matrix.identity(dM)
    alpha = c.alpha.matrix
    beta = [None] + [bs.matrix for bs in c.beta] + [None]
    last = (-1) ** (k + 1)
    new_beta = []
    for t in range(1, k + 2):
        terms = [(1, b.left_pair.on_columns(im, alpha) if t == 1 else
                  b.fiber.left.on_columns(ia, beta[t - 1]))]
        terms.extend((1, beta[s] * op)
                     for s, op in _slot_merges(x, k, t).items())
        terms.append((last, b.right_pair.on_columns(alpha, im) if t == k + 1
                      else b.fiber.right.on_columns(beta[t], ia)))
        new_beta.append(signed_sum(terms))
    r = _powers(x.rop.matrix, k)
    through_s = signed_sum(
        (1, beta[i] * kron(kron(r[i - 1], im), r[k - i]))
        for i in range(1, k + 1))
    gamma = signed_sum([((-1) ** k, alpha * r[k]),
                        (-(-1) ** k, b.sop.matrix * through_s)])
    if k >= 2:
        gamma = gamma + _hochschild_image(
            mtot_action_bimodule(b).actions, c.gamma.matrix, k - 1)
    return RRBCochain(
        k + 1, LinearMap.from_matrix(_hochschild_image(b.base, alpha, k)),
        (LinearMap.from_matrix(m) for m in new_beta),
        LinearMap.from_matrix(gamma))


def cocycle_report(x, b, c, strict=False):
    """The cocycle condition on c, one law per block of its differential.

    The laws are differential_vanishes[alpha], [beta s] for each slot s,
    and [gamma] from degree 2 on.  With strict set, a failure raises
    StructuralError naming the nonzero blocks instead.
    """
    img = rrb_differential(x, b, c.degree, c)
    blocks = [("alpha", "alpha", img.alpha)]
    blocks.extend((f"beta {s}", f"beta[slot {s}]", m)
                  for s, m in enumerate(img.beta, 1))
    if img.gamma is not None:
        blocks.append(("gamma", "gamma", img.gamma))
    rep, bad = Report("cocycle"), []
    for law, name, m in blocks:
        vals = m.matrix.entries
        if any(vals):
            bad.append(name)
        rep.require(f"differential_vanishes[{law}]", (), vals,
                    (ZERO,) * len(vals))
    if strict and bad:
        raise StructuralError(
            "not a cocycle: the differential is nonzero in " + ", ".join(bad))
    return rep


def rrb_cohomology_dims(x, b, max_degree):
    """[dim H^1, ..., dim H^K]; the degree-0 space is zero, so the map into
    degree 1 is the zero map."""
    if max_degree < 1:
        raise ShapeError(f"RRB cohomology starts in degree 1, got {max_degree}")
    return homology_dims(rrb_differential_matrix(x, b, k)
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
    a, bm = alpha.matrix, beta.matrix
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
    rep.require_laws([("intertwine", (dM,), a * x.rop.matrix,
                       b.sop.matrix * bm, None)])
    return rep


def derivation_basis(x, b):
    """Basis of the degree-1 cocycles as (alpha, beta) cochains."""
    mat = rrb_differential_matrix(x, b, 1)
    return [RRBCochain.from_vector(x, b, 1, v) for v in kernel_basis(mat)]


# ---------------------------------------------------------------------------
# the restricted complex of a Rota-Baxter pair


def rb_restrict(pair, k, c):
    """Differential of the restricted complex of (A, R) with (M, R_M).

    The pair is read as the relative structure A -> A with coefficients
    M -> M; a degree-k input embeds with every slot map equal to its
    tensor component, the full differential is applied, and the image is
    checked to have all slot maps equal to the new tensor component before
    the duplicates are dropped.  A disagreement would mean the restricted
    complex is not closed under the differential, which signals a bug, so
    it raises instead of returning.
    """
    alg = pair.algebra
    x = RelativeRBAlgebra(alg, Bimodule.adjoint(alg), pair.rop)
    coeff = RRBBimodule(x, pair.module, pair.module, pair.mop,
                        pair.module.left, pair.module.right)
    if c.degree != k:
        raise ShapeError(f"cochain degree {c.degree} != {k}")
    if k == 1:
        emb = RRBCochain(1, c.beta, (c.beta,))
    else:
        emb = RRBCochain(k, c.beta, (c.beta,) * k, c.gamma)
    img = rrb_differential(x, coeff, k, emb)
    for bs in img.beta:
        if bs.matrix != img.alpha.matrix:
            raise StructuralError(
                "restricted image has a slot map disagreeing with its "
                "tensor component")
    return RBCochain(k + 1, img.alpha, img.gamma)


# ---------------------------------------------------------------------------
# the labelled dendriform complex


def dendriform_embedding(k, dim_d, dim_e):
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
    hat = Matrix(2 * dim_e * host, k * dim_e * size)
    unhat = Matrix(k * dim_e * size, 2 * dim_e * host)
    for t in range(size):
        first = ti_host.flatten(ti_d.unflatten(t))
        for i in range(k):
            second = (dim_e * host + first +
                      dim_d * (2 * dim_d) ** (k - 1 - i))
            for w in range(dim_e):
                col = (i * dim_e + w) * size + t
                hat.add(w * host + first, col, ONE)
                hat.add(second + w * host, col, ONE)
                unhat.add(col, second + w * host, ONE)
    return hat, unhat


def dendriform_differential_matrix(d, e, k):
    """Matrix D_k = U_{k+1} delta H_k of the labelled differential, k >= 1.

    delta is the Hochschild differential of the doubled host.  It must keep
    the embedded subspace, H_{k+1} D_k = delta H_k; a mismatch signals a
    bug, so it raises.
    """
    _, bim = dendriform_to_rrb(d, e)
    host, _ = lift_bimodule(bim)
    hat, _ = dendriform_embedding(k, d.dim, e.dim)
    hat_next, unhat_next = dendriform_embedding(k + 1, d.dim, e.dim)
    image = hochschild_matrix(host, k) * hat
    out = unhat_next * image
    if hat_next * out != image:
        raise StructuralError(
            "the doubled differential left the labelled embedding")
    return out


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
    ti_out, ti_in = TensorIndex((dM,) * (k + 1)), TensorIndex((dM,) * k)
    size, size_in = ti_out.size, ti_in.size
    last = k * dN * size                        # start of label k+1
    sign = ONE if k % 2 else -ONE               # (-1)^(k+1)
    out = Matrix((k + 1) * dN * size, dB * size_in)
    for flat in range(size):
        mt = ti_out.unflatten(flat)
        lead = ti_in.flatten(mt[1:])
        trail = ti_in.flatten(mt[:k])
        for vb in range(dB):
            for w, c in enumerate(b.left_pair.data[mt[0]][vb]):
                if c:
                    out.add(w * size + flat, vb * size_in + lead, sign * c)
            for w, c in enumerate(b.right_pair.data[vb][mt[k]]):
                if c:
                    out.add(last + w * size + flat, vb * size_in + trail, c)
    return out


# ---------------------------------------------------------------------------
# the ambient semidirect complex


def semidirect_complex(x, b):
    """The semidirect-sum structure with its own adjoint coefficients."""
    big = semidirect_rrb(b)
    return big, adjoint_bimodule(big)


def semidirect_inclusion_matrix(x, b, k):
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
    big, bigb = semidirect_complex(x, b)
    A_in, BT_in, G_in = cochain_space_dims(big, bigb, k)
    out = Matrix(A_in + BT_in + G_in, a_in + bt_in + g_in)
    ti_a, ti_big_a = TensorIndex((dA,) * k), TensorIndex((big_a,) * k)
    for flat in range(ti_a.size):
        big_flat = ti_big_a.flatten(ti_a.unflatten(flat))
        for w in range(dB):
            out.add((dA + w) * ti_big_a.size + big_flat,
                    w * ti_a.size + flat, ONE)
    mix = MixedTensorSpace(k, dA, dM)
    big_mix = MixedTensorSpace(k, big_a, big_m)
    for s in range(1, k + 1):
        idx, big_idx = mix.indexer(s), big_mix.indexer(s)
        col_base = a_in + dN * mix.offset(s)
        row_base = A_in + big_m * big_mix.offset(s)
        for flat in range(idx.size):
            big_flat = big_idx.flatten(idx.unflatten(flat))
            for w in range(dN):
                out.add(row_base + (dM + w) * big_idx.size + big_flat,
                        col_base + w * idx.size + flat, ONE)
    if k >= 2:
        ti_m = TensorIndex((dM,) * (k - 1))
        ti_big_m = TensorIndex((big_m,) * (k - 1))
        for flat in range(ti_m.size):
            big_flat = ti_big_m.flatten(ti_m.unflatten(flat))
            for w in range(dB):
                out.add(A_in + BT_in + (dA + w) * ti_big_m.size + big_flat,
                        a_in + bt_in + w * ti_m.size + flat, ONE)
    return out
