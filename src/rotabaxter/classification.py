"""Extensions of relative Rota-Baxter algebras and two-term homotopy data.

First half: an abelian extension glues a base structure (A, M, R) to a
two-term complex S: N -> B so that both the algebra row and the module
row are short exact and every product touching the embedded fiber
vanishes.  A section (a pair of right inverses of the projections)
induces a bimodule on the fiber and measures its own failure to split
the products by a degree-2 cochain; that cochain is a cocycle, its
class does not depend on the section, and cocycles differing by a
coboundary give isomorphic extensions.  build_extension and
extract_cocycle are the two constructive directions; build_extension
adds the cocycle's blocks to the semidirect product, so the zero cocycle
glues the semidirect product by construction.

Second half: two-term homotopy data, meaning a chain complex with a
binary product that is associative only up to a ternary corrector, a
matching two-term bimodule, and an operator triple whose defects are
controlled by a bilinear corrector.  When both differentials vanish
("skeletal") the degree-0 layers form an ordinary relative Rota-Baxter
algebra with a bimodule, and the three correctors assemble into a
degree-3 cocycle.  skeletal_to_triple and triple_to_skeletal convert in
both directions, tensor-exactly.
"""

from __future__ import annotations

from .algebra import (
    AssocAlgebra, Bimodule, Report, ShapeError, StructuralError,
    StructureConstants, Violation, block_constants, solve_or_raise,
)
from .cohomology import (
    RRBCochain, cocycle_report, rrb_differential, rrb_differential_matrix,
    summand_inclusions,
)
from .linalg import Matrix, kron, rank, solve_columns, stacked
from .rrb import RelativeRBAlgebra, RRBMorphism, check_morphism
from .rrb_modules import RRBBimodule, check_laws, semidirect_rrb


# ---------------------------------------------------------------------------
# abelian extensions


class AbelianExtension:
    """A total structure exhibiting a base and a two-term fiber complex.

    `sop` is the fiber complex S: N -> B, so its columns count the module
    fiber N and its rows the algebra fiber B.  The four maps embed the
    fiber into the total structure and project the total onto the base:

        alg_incl: B -> A-hat      alg_proj: A-hat -> A
        mod_incl: N -> M-hat      mod_proj: M-hat -> M

    The constructor only checks shapes; exactness of both rows, the
    morphism property of the four maps and the vanishing of products
    meeting the fiber are the job of check_abelian_extension.
    """

    __slots__ = ("base", "sop", "total", "alg_incl", "mod_incl",
                 "alg_proj", "mod_proj")

    def __init__(self, base, sop, total, alg_incl, mod_incl,
                 alg_proj, mod_proj):
        dA, dM = base.algebra.dim, base.module.dim
        dB, dN = sop.rows, sop.cols
        if total.algebra.dim != dA + dB or total.module.dim != dM + dN:
            raise ShapeError("total dimensions must be base plus fiber")
        if (alg_incl.cols, alg_incl.rows) != (dB, total.algebra.dim):
            raise ShapeError("algebra embedding must send the fiber into "
                             "the total")
        if (mod_incl.cols, mod_incl.rows) != (dN, total.module.dim):
            raise ShapeError("module embedding must send the fiber into "
                             "the total")
        if (alg_proj.cols, alg_proj.rows) != (total.algebra.dim, dA):
            raise ShapeError("algebra projection must send the total onto "
                             "the base")
        if (mod_proj.cols, mod_proj.rows) != (total.module.dim, dM):
            raise ShapeError("module projection must send the total onto "
                             "the base")
        self.base = base
        self.sop = sop
        self.total = total
        self.alg_incl = alg_incl
        self.mod_incl = mod_incl
        self.alg_proj = alg_proj
        self.mod_proj = mod_proj


class Section:
    """Right inverses (s, sbar) of the two projections of an extension."""

    __slots__ = ("s", "sbar")

    def __init__(self, s, sbar):
        self.s = s
        self.sbar = sbar

    def fit(self, base, total):
        """Raise ShapeError unless s and sbar map base into total."""
        if (self.s.cols, self.s.rows) != (base.algebra.dim, total.algebra.dim):
            raise ShapeError("s must map the base algebra into the total")
        if (self.sbar.cols, self.sbar.rows) != (base.module.dim,
                                                total.module.dim):
            raise ShapeError("sbar must map the base module into the total")

    def validate(self, e):
        """Shapes plus proj o s = id on both rows; returns self."""
        self.fit(e.base, e.total)
        dA, dM = e.base.algebra.dim, e.base.module.dim
        if e.alg_proj * self.s != Matrix.identity(dA):
            raise StructuralError("s is not a right inverse of the algebra "
                                  "projection")
        if e.mod_proj * self.sbar != Matrix.identity(dM):
            raise StructuralError("sbar is not a right inverse of the module "
                                  "projection")
        return self


def canonical_section(e):
    """The deterministic section with all free fiber coordinates zero.

    On an extension produced by build_extension (coordinates ordered
    base then fiber) this is a |-> (a, 0) and m |-> (m, 0).
    """
    # right inverses solved with all free coordinates zero, hence
    # deterministic
    s, sbar = (solve_or_raise(p, Matrix.identity(p.rows),
                              "projection is not surjective")
               for p in (e.alg_proj, e.mod_proj))
    return Section(s, sbar).validate(e)


def _fiber_rrb(sop):
    # the complex alone, with zero products and zero actions
    alg = AssocAlgebra.zero(sop.rows)
    return RelativeRBAlgebra(alg, Bimodule.zero_actions(alg, sop.cols), sop)


def _merge_prefixed(rep, sub, prefix):
    for v in sub.violations:
        rep.violations.append(Violation(prefix + ":" + v.law, v.args,
                                        v.lhs, v.rhs))


def check_abelian_extension(e):
    """Exact rows, structure maps are morphisms, the total is genuine.

    The embedding is checked as a morphism out of the fiber complex with
    its zero products, which is exactly the requirement that products
    and actions meeting the embedded fiber vanish inside the total.
    """
    rep = Report("abelian_extension")
    dA, dM = e.base.algebra.dim, e.base.module.dim
    dB, dN = e.sop.rows, e.sop.cols
    rep.require("alg_embedding_injective", (),
                (rank(e.alg_incl),), (dB,))
    rep.require("mod_embedding_injective", (),
                (rank(e.mod_incl),), (dN,))
    rep.require("alg_projection_surjective", (),
                (rank(e.alg_proj),), (dA,))
    rep.require("mod_projection_surjective", (),
                (rank(e.mod_proj),), (dM,))
    # with the rank and dimension facts above, proj o incl = 0 pins
    # image of the embedding = kernel of the projection on both rows
    rep.require_equal("alg_row_exact", e.alg_proj * e.alg_incl,
                      Matrix.zero(dA, dB))
    rep.require_equal("mod_row_exact", e.mod_proj * e.mod_incl,
                      Matrix.zero(dM, dN))
    _merge_prefixed(rep, check_morphism(
        RRBMorphism(_fiber_rrb(e.sop), e.total, e.alg_incl, e.mod_incl)),
        "fiber_embedding")
    _merge_prefixed(rep, check_morphism(
        RRBMorphism(e.total, e.base, e.alg_proj, e.mod_proj)),
        "base_projection")
    _merge_prefixed(rep, check_laws(e.total), "total")
    return rep


def build_extension(x, b, c):
    """Glue the base x to the fiber of b along a degree-2 cocycle.

    Products, actions and operator on A (+) B and M (+) N:

        (a, b)(a', b') = (a a', a.b' + b.a' + alpha(a, a'))
        (a, b).(m, n)  = (a.m,  a.n + r(b, m) + beta_2(a, m))
        (m, n).(a, b)  = (m.a,  l(m, b) + n.a + beta_1(m, a))
        R-hat(m, n)    = (R(m), S(n) + gamma(m))

    with beta_1, beta_2 the two slot maps of the cochain: the semidirect
    structure of b plus the cochain's four blocks, so the zero cocycle
    glues exactly the semidirect product.

    Only an extension that passes check_abelian_extension is returned.
    That check, which reads every law of the total once, decides: the
    glued total is a relative Rota-Baxter algebra exactly when x and b
    pass check_laws and c is a cocycle.  So this raises StructuralError
    unless all three pass, and callers may read the laws of x and b only
    when it raises (cli's extend does);
    test_build_decides_exactly_as_the_cocycle_condition pins this on
    one-scalar changes of x and b.  Only on a failure is the cocycle
    condition read, to say which is at fault: a non-cocycle raises naming
    its nonzero blocks, and otherwise the total's failing laws are
    reported.
    """
    if c.degree != 2:
        raise ShapeError("extensions are glued along degree-2 cochains")
    c.validate(x, b)
    dA, dM = x.algebra.dim, x.module.dim
    dB, dN = b.base.dim, b.fiber.dim
    alg_dims, mod_dims = (dA, dB), (dM, dN)
    alpha, (beta1, beta2), gamma = c.alpha, c.beta, c.gamma
    split = semidirect_rrb(b)
    big_alg = AssocAlgebra(
        dA + dB, split.algebra.mu + block_constants(
            alg_dims, alg_dims, alg_dims,
            {(0, 0, 1): StructureConstants(dA, dA, alpha)}),
        split.algebra.basis_names)
    big_mod = Bimodule(
        big_alg, dM + dN,
        split.module.left + block_constants(
            alg_dims, mod_dims, mod_dims,
            {(0, 0, 1): StructureConstants(dA, dM, beta2)}),
        split.module.right + block_constants(
            mod_dims, alg_dims, mod_dims,
            {(0, 0, 1): StructureConstants(dM, dA, beta1)}),
        split.module.basis_names)
    rop = Matrix.from_blocks(dA + dB, dM + dN,
                             ((1, split.rop, 0, 0), (1, gamma, dA, 0)))
    total = RelativeRBAlgebra(big_alg, big_mod, rop)
    inc_a, inc_b = summand_inclusions(dA, dB)
    inc_m, inc_n = summand_inclusions(dM, dN)
    e = AbelianExtension(x, b.sop, total,
                         inc_b, inc_n, inc_a.transpose(), inc_m.transpose())
    if not check_abelian_extension(e):
        cocycle_report(x, b, c, strict=True)
        raise StructuralError("glued total fails its axioms, so the "
                              "coefficient bimodule is not valid:\n"
                              + check_laws(total).describe())
    return e


def extract_cocycle(e, sec):
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
    s, sbar = sec.s, sec.sbar
    alpha = solve_or_raise(
        e.alg_incl,
        tot.algebra.mu.on_columns(s, s) - s * base.algebra.mu.matrix,
        "product defect does not land in the fiber")
    # both action defects are read before either raises, so that the
    # first reported is the first in the loop over (u, i), right first
    beta1, bad1 = solve_columns(e.mod_incl,
                                tot.module.right.on_columns(sbar, s)
                                - sbar * base.module.right.matrix)
    beta2, bad2 = solve_columns(e.mod_incl,
                                tot.module.left.on_columns(s, sbar)
                                - sbar * base.module.left.matrix)
    for u in range(dM):
        for i in range(dA):
            if u * dA + i in bad1:
                raise StructuralError(
                    "right action defect does not land in the fiber")
            if i * dM + u in bad2:
                raise StructuralError(
                    "left action defect does not land in the fiber")
    gamma = solve_or_raise(e.alg_incl, tot.rop * sbar - s * base.rop,
                           "operator defect does not land in the fiber")
    return RRBCochain(2, alpha, (beta1, beta2), gamma)


def induced_fiber_bimodule(e, sec):
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
    dB, dN = e.sop.rows, e.sop.cols
    s, sbar = sec.s, sec.sbar
    ib, i_n = e.alg_incl, e.mod_incl
    mu, left, right = tot.algebra.mu, tot.module.left, tot.module.right

    def induced(dl, dr, values, incl, what):
        return StructureConstants(dl, dr, solve_or_raise(
            incl, values, what + " does not land in the fiber"))

    base = Bimodule(
        e.base.algebra, dB,
        induced(dA, dB, mu.on_columns(s, ib), e.alg_incl, "induced product"),
        induced(dB, dA, mu.on_columns(ib, s), e.alg_incl, "induced product"))
    fiber = Bimodule(
        e.base.algebra, dN,
        induced(dA, dN, left.on_columns(s, i_n), e.mod_incl,
                "induced action"),
        induced(dN, dA, right.on_columns(i_n, s), e.mod_incl,
                "induced action"))
    left_pair = induced(dM, dB, right.on_columns(sbar, ib), e.mod_incl,
                        "induced action")
    right_pair = induced(dB, dM, left.on_columns(ib, sbar), e.mod_incl,
                         "induced action")
    return RRBBimodule(e.base, base, fiber, e.sop, left_pair, right_pair)


def cobounding_cochain(x, b, c1, c2):
    """A cochain whose differential is c1 - c2, or None if none exists.

    Decides whether two cocycles of equal degree are cohomologous; the
    witness returned has one degree less and all free coordinates zero.
    Both cochains are validated against (x, b) first, so one of another
    pair raises ShapeError.
    """
    if c1.degree != c2.degree or c1.degree < 2:
        raise ShapeError("cobounding needs two cochains of equal degree >= 2")
    diff = stacked(c1.validate(x, b).blocks()) - \
        stacked(c2.validate(x, b).blocks())
    sol, bad = solve_columns(rrb_differential_matrix(x, b, c1.degree - 1),
                             diff)
    if bad:
        return None
    return RRBCochain.of_column(x, b, c1.degree - 1, sol)


def _same_bimodule(b1, b2):
    return (b1.base.left == b2.base.left and
            b1.base.right == b2.base.right and
            b1.fiber.left == b2.fiber.left and
            b1.fiber.right == b2.fiber.right and
            b1.sop == b2.sop and
            b1.left_pair == b2.left_pair and
            b1.right_pair == b2.right_pair)


def _shear(sec1, sec2, corr, incl1, incl2, proj):
    # v |-> s2(p(v)) + i2( i1-coords(v - s1(p(v))) + corr(p(v)) )
    complement = solve_or_raise(
        incl1, Matrix.identity(proj.cols) - sec1 * proj,
        "section complement does not land in the fiber")
    return sec2 * proj + incl2 * (complement + corr * proj)


def extension_iso_from_cobounding(e1, e2, theta, vartheta):
    """The isomorphism (a, b) -> (a, b + theta(a)) between extensions.

    e1 and e2 must extend the same base by the same fiber, with
    extracted cocycles differing by the differential of the degree-1
    cochain (theta, vartheta).  In the canonical coordinates of each
    side the morphism is phi(a, b) = (a, b + theta(a)) paired with
    psi(m, n) = (m, n + vartheta(m)); it restricts to the identity on
    the fiber and covers the identity on the base.
    """
    x = e1.base
    dA, dM = x.algebra.dim, x.module.dim
    dB, dN = e1.sop.rows, e1.sop.cols
    if (theta.cols, theta.rows) != (dA, dB):
        raise ShapeError("theta must map the base algebra into the fiber")
    if (vartheta.cols, vartheta.rows) != (dM, dN):
        raise ShapeError("vartheta must map the base module into the fiber")
    sec1, sec2 = canonical_section(e1), canonical_section(e2)
    coeff = induced_fiber_bimodule(e1, sec1)
    if not _same_bimodule(coeff, induced_fiber_bimodule(e2, sec2)):
        raise StructuralError("the extensions induce different fiber "
                              "bimodules")
    c1 = extract_cocycle(e1, sec1)
    c2 = extract_cocycle(e2, sec2)
    bound = rrb_differential(x, coeff, 1, RRBCochain(1, theta, (vartheta,)))
    if stacked(bound.blocks()) != \
            stacked(c1.blocks()) - stacked(c2.blocks()):
        raise StructuralError("the cochain does not cobound the difference "
                              "of the extracted cocycles")
    phi = _shear(sec1.s, sec2.s, theta, e1.alg_incl, e2.alg_incl,
                 e1.alg_proj)
    psi = _shear(sec1.sbar, sec2.sbar, vartheta, e1.mod_incl, e2.mod_incl,
                 e1.mod_proj)
    mor = RRBMorphism(e1.total, e2.total, phi, psi)
    rep = check_morphism(mor)
    if not rep:
        raise StructuralError("glued map fails the morphism laws:\n" +
                              rep.describe())
    return mor


def check_extension_morphism(e1, e2, mor):
    """Morphism laws plus commutation with both extension rows.

    Beyond the four morphism identities, the map must restrict to the
    identity on the fiber (phi o i1 = i2 and likewise on modules) and
    cover the identity on the base (p2 o phi = p1 and likewise).  The
    morphism must run from e1's total to e2's.
    """
    if mor.source is not e1.total or mor.target is not e2.total:
        raise ShapeError("the morphism must run from the first extension's "
                         "total to the second's")
    rep = Report("extension_morphism")
    rep.merge(check_morphism(mor))
    rep.require_equal("fixes_fiber_algebra", mor.phi * e1.alg_incl,
                      e2.alg_incl)
    rep.require_equal("fixes_fiber_module", mor.psi * e1.mod_incl,
                      e2.mod_incl)
    rep.require_equal("covers_base_algebra", e2.alg_proj * mor.phi,
                      e1.alg_proj)
    rep.require_equal("covers_base_module", e2.mod_proj * mor.psi,
                      e1.mod_proj)
    return rep


# ---------------------------------------------------------------------------
# two-term homotopy data


class TwoTermAInfty:
    """Chain complex d: A1 -> A0 with a product and a ternary corrector.

    The product has the three blocks degree allows,

        mu00: A0 (x) A0 -> A0,  mu01: A0 (x) A1 -> A1,  mu10: A1 (x) A0 -> A1

    (a block on A1 (x) A1 would land in degree 2 and is absent), and the
    corrector mu3 maps A0 (x) A0 (x) A0 to A1, stored on the flattened
    cube with the first factor most significant.
    """

    __slots__ = ("dim0", "dim1", "d", "mu00", "mu01", "mu10", "mu3")

    def __init__(self, dim0, dim1, d, mu2, mu3):
        mu00, mu01, mu10 = mu2
        if (d.cols, d.rows) != (dim1, dim0):
            raise ShapeError("differential must map degree 1 to degree 0")
        if (mu00.dim_left, mu00.dim_right, mu00.dim_out) != \
                (dim0, dim0, dim0):
            raise ShapeError("degree (0,0) block must be A0 x A0 -> A0")
        if (mu01.dim_left, mu01.dim_right, mu01.dim_out) != \
                (dim0, dim1, dim1):
            raise ShapeError("degree (0,1) block must be A0 x A1 -> A1")
        if (mu10.dim_left, mu10.dim_right, mu10.dim_out) != \
                (dim1, dim0, dim1):
            raise ShapeError("degree (1,0) block must be A1 x A0 -> A1")
        if (mu3.cols, mu3.rows) != (dim0 ** 3, dim1):
            raise ShapeError("corrector must map the degree-0 cube into A1")
        self.dim0 = dim0
        self.dim1 = dim1
        self.d = d
        self.mu00 = mu00
        self.mu01 = mu01
        self.mu10 = mu10
        self.mu3 = mu3

    @property
    def skeletal(self):
        return self.d.is_zero()


class AInftyBimodule:
    """Two-term bimodule over a TwoTermAInfty.

    Action blocks, named by the degrees of the two inputs:

        left00: A0 (x) M0 -> M0     right00: M0 (x) A0 -> M0
        left01: A0 (x) M1 -> M1     right01: M0 (x) A1 -> M1
        left10: A1 (x) M0 -> M1     right10: M1 (x) A0 -> M1

    The corrector mu3m has one block per position of the degree-0 module
    factor among three inputs, each stored on the flattened triple
    product with the first factor most significant.
    """

    __slots__ = ("over", "dim0", "dim1", "dm", "left00", "left01", "left10",
                 "right00", "right01", "right10", "mu3m")

    def __init__(self, over, dim0, dim1, dm, left, right, mu3m):
        left00, left01, left10 = left
        right00, right01, right10 = right
        mu3m = tuple(mu3m)
        d0, d1 = over.dim0, over.dim1
        if (dm.cols, dm.rows) != (dim1, dim0):
            raise ShapeError("differential must map degree 1 to degree 0")
        blocks = ((left00, (d0, dim0, dim0), "left00"),
                  (left01, (d0, dim1, dim1), "left01"),
                  (left10, (d1, dim0, dim1), "left10"),
                  (right00, (dim0, d0, dim0), "right00"),
                  (right01, (dim0, d1, dim1), "right01"),
                  (right10, (dim1, d0, dim1), "right10"))
        for block, want, name in blocks:
            got = (block.dim_left, block.dim_right, block.dim_out)
            if got != want:
                raise ShapeError(f"{name} block must be "
                                 f"{want[0]} x {want[1]} -> {want[2]}")
        if len(mu3m) != 3:
            raise ShapeError("the corrector needs three slot blocks")
        for s, block in enumerate(mu3m, start=1):
            if (block.cols, block.rows) != (d0 * d0 * dim0, dim1):
                raise ShapeError(f"corrector slot {s} must map the mixed "
                                 "triple product into M1")
        self.over = over
        self.dim0 = dim0
        self.dim1 = dim1
        self.dm = dm
        self.left00 = left00
        self.left01 = left01
        self.left10 = left10
        self.right00 = right00
        self.right01 = right01
        self.right10 = right10
        self.mu3m = mu3m

    @staticmethod
    def adjoint(over):
        """The algebra as a bimodule over itself, layer by layer."""
        return AInftyBimodule(
            over, over.dim0, over.dim1, over.d,
            (over.mu00, over.mu01, over.mu10),
            (over.mu00, over.mu01, over.mu10),
            (over.mu3, over.mu3, over.mu3))

    @property
    def skeletal(self):
        return self.dm.is_zero()


class HomotopyRRBOperator:
    """Operator triple (r0, r1, r2) from a module pair to an algebra pair.

    r0 and r1 act degreewise from the module complex into the algebra
    complex; r2 is a bilinear corrector M0 (x) M0 -> A1 absorbing the
    operator defects.
    """

    __slots__ = ("r0", "r1", "r2")

    def __init__(self, r0, r1, r2):
        if (r2.dim_left, r2.dim_right) != (r0.cols, r0.cols):
            raise ShapeError("corrector must consume two degree-0 module "
                             "factors")
        if r2.dim_out != r1.rows:
            raise ShapeError("corrector must land in the degree-1 algebra "
                             "layer")
        self.r0 = r0
        self.r1 = r1
        self.r2 = r2


class _Graded:
    """Values tagged by layer: space "a" or "m", degree 0 or 1.

    mat holds one value per column: the values of an expression at every
    basis tuple of the variables it involves, flattened in their order.
    """

    __slots__ = ("space", "deg", "mat")

    def __init__(self, space, deg, mat):
        self.space = space
        self.deg = deg
        self.mat = mat

    def _check_layer(self, other):
        if (self.space, self.deg) != (other.space, other.deg):
            raise StructuralError(
                f"layer ({self.space}, {self.deg}) combined with "
                f"({other.space}, {other.deg})")

    def __add__(self, other):
        self._check_layer(other)
        return _Graded(self.space, self.deg, self.mat + other.mat)

    def __sub__(self, other):
        self._check_layer(other)
        return _Graded(self.space, self.deg, self.mat - other.mat)


class _TwoTermEnv:
    """Evaluates d, mu2, mu3 on layer-tagged values by block dispatch.

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
        return _Graded(x.space, 0, lin * x.mat)

    def mu2(self, x, y):
        block = self.blocks[(x.space, x.deg, y.space, y.deg)]
        space = "m" if "m" in (x.space, y.space) else "a"
        return _Graded(space, x.deg + y.deg, block.on_columns(x.mat, y.mat))

    def mu3(self, x, y, z):
        spaces = (x.space, y.space, z.space)
        flat = kron(kron(x.mat, y.mat), z.mat)
        if spaces == ("a", "a", "a"):
            return _Graded("a", 1, self.alg.mu3 * flat)
        return _Graded("m", 1, self.mod.mu3m[spaces.index("m")] * flat)

    def law(self, name, degs, spaces, lhs, rhs):
        """One law of _TWO_TERM_LAWS with its inputs in the given layers,
        in the form Report.require_laws takes: each input is the identity
        of its layer, so it ranges over that layer's basis."""
        elems = []
        for space, deg in zip(spaces, degs):
            cx = self.alg if space == "a" else self.mod
            elems.append(_Graded(space, deg,
                                 Matrix.identity(cx.dim1 if deg else cx.dim0)))
        return (name, tuple(e.mat.cols for e in elems),
                lhs(self, *elems).mat, rhs(self, *elems).mat, None)


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


def check_two_term_ainfty(a):
    """All defining identities on all basis tuples, degrees forced."""
    rep = Report("two_term_ainfty")
    env = _TwoTermEnv(a)
    for law, degs, lhs, rhs in _TWO_TERM_LAWS:
        rep.require_laws([env.law(law, degs, ("a",) * len(degs), lhs, rhs)])
    return rep


def require_fit(a, m, r=None):
    """Raise ShapeError unless m is over a's layers and, when r is given,
    its operator layers map m's layers into a's."""
    if (m.left00.dim_left, m.left10.dim_left) != (a.dim0, a.dim1):
        raise ShapeError("bimodule blocks do not fit the algebra dimensions")
    if r is not None and (
            (r.r0.cols, r.r0.rows) != (m.dim0, a.dim0) or
            (r.r1.cols, r.r1.rows) != (m.dim1, a.dim1)):
        raise ShapeError("operator layers must map the module complex into "
                         "the algebra complex")


def check_ainfty_bimodule(a, m):
    """Every defining identity with exactly one input in the module layer."""
    require_fit(a, m)
    rep = Report("ainfty_bimodule")
    env = _TwoTermEnv(a, m)
    for law, degs, lhs, rhs in _TWO_TERM_LAWS:
        for pos in range(len(degs)):
            spaces = tuple("m" if q == pos else "a"
                           for q in range(len(degs)))
            rep.require_laws([env.law(f"{law}/input {pos + 1}", degs,
                                      spaces, lhs, rhs)])
    return rep


def check_homotopy_rrb_operator(a, m, r):
    """The five operator conditions on all basis tuples.

    In the final condition the three mixed-corrector terms are composed
    with r1 so that every term lands in the degree-1 algebra layer.
    """
    require_fit(a, m, r)
    rep = Report("homotopy_rrb_operator")
    d0, d1 = m.dim0, m.dim1
    i0, i1 = Matrix.identity(d0), Matrix.identity(d1)
    r0, r1, r2 = r.r0, r.r1, r.r2.matrix
    da, dm = a.d, m.dm
    # the operator intertwines the two complexes
    rep.require_laws([("chain_map", (d1,), da * r1, r0 * dm, None)])
    # the degree-0 defect is the boundary of the corrector; circ is
    # R(u) . w + u . R(w) at every basis pair (u, w)
    circ = m.left00.on_columns(r0, i0) + m.right00.on_columns(i0, r0)
    rep.require_laws([("baxter_boundary", (d0, d0),
                       r0 * circ - a.mu00.on_columns(r0, r0), da * r2,
                       None)])
    # the degree-1 defects are corrector values on boundaries
    rep.require_laws([
        ("baxter_right", (d0, d1),
         r1 * (m.left01.on_columns(r0, i1) + m.right01.on_columns(i0, r1))
         - a.mu01.on_columns(r0, r1), r.r2.on_columns(i0, dm), None),
        ("baxter_left", (d1, d0),
         r1 * (m.left10.on_columns(r1, i0) + m.right10.on_columns(i1, r0))
         - a.mu10.on_columns(r1, r0), r.r2.on_columns(dm, i0),
         lambda v, u: (u, v))])
    # the two correctors are compatible, at basis triples (u, w, z)
    mixed = (m.mu3m[0] * kron(kron(i0, r0), r0) +
             m.mu3m[1] * kron(kron(r0, i0), r0) +
             m.mu3m[2] * kron(kron(r0, r0), i0))
    acc = (a.mu01.on_columns(r0, r2) - r1 * m.right01.on_columns(i0, r2)
           - r.r2.on_columns(circ, i0) + r.r2.on_columns(i0, circ)
           - a.mu10.on_columns(r2, r0) + r1 * m.left10.on_columns(r2, i0)
           + r1 * mixed)
    rep.require_laws([("baxter_corrector", (d0,) * 3, acc,
                       a.mu3 * kron(kron(r0, r0), r0), None)])
    return rep


# ---------------------------------------------------------------------------
# the skeletal correspondence


def skeletal_to_triple(a, m, r, verify=True):
    """Read a skeletal pair plus operator triple as a structure triple.

    The degree-0 layers form the relative Rota-Baxter algebra, the
    degree-1 layers its coefficient bimodule with the mixed action
    blocks as pairings, and the three correctors a degree-3 cochain:

        algebra (A0, mu00), module (M0, left00/right00), operator r0;
        base (A1, mu01/mu10), fiber (M1, left01/right10), complex map
        r1, pairings l = right01 and r = left10;
        cochain (mu3, mu3m, r2).

    Layers that do not fit raise ShapeError, before anything else.  With
    verify on, every law of the assembled triple (check_laws) must hold
    and c must be a cocycle; a failure signals inconsistent input and
    raises.  On skeletal data this is the verdict of the three skeletal
    checks, whose laws, with both differentials zero, are these read on
    the layers.
    """
    require_fit(a, m, r)
    if not (a.skeletal and m.skeletal):
        raise StructuralError("both differentials must vanish")
    alg = AssocAlgebra(a.dim0, a.mu00)
    module = Bimodule(alg, m.dim0, m.left00, m.right00)
    x = RelativeRBAlgebra(alg, module, r.r0)
    coeff = RRBBimodule(
        x,
        Bimodule(alg, a.dim1, a.mu01, a.mu10),
        Bimodule(alg, m.dim1, m.left01, m.right10),
        r.r1, m.right01, m.left10)
    c = RRBCochain(3, a.mu3, m.mu3m, r.r2.matrix)
    if verify:
        for bad in (check_laws(x), check_laws(coeff)):
            if not bad:
                raise StructuralError("skeletal data does not flatten to a "
                                      "valid triple:\n" + bad.describe())
        cocycle_report(x, coeff, c, strict=True)
    return x, coeff, c


def triple_to_skeletal(x, b, c, verify=True):
    """Spread a structure triple across two skeletal layers.

    Inverse of skeletal_to_triple on the nose: the base algebra and
    module sit in degree 0, the coefficient base and fiber in degree 1
    with the pairings as mixed action blocks, and the cochain becomes
    the three correctors.  With verify on, c must be a degree-3
    cocycle.
    """
    if c.degree != 3:
        raise ShapeError("skeletal data encodes a degree-3 cochain")
    c.validate(x, b)
    if verify:
        cocycle_report(x, b, c, strict=True)
    dM, dB = x.module.dim, b.base.dim
    a = TwoTermAInfty(
        x.algebra.dim, dB, Matrix.zero(x.algebra.dim, dB),
        (x.algebra.mu, b.base.left, b.base.right), c.alpha)
    m = AInftyBimodule(
        a, dM, b.fiber.dim, Matrix.zero(dM, b.fiber.dim),
        (x.module.left, b.fiber.left, b.right_pair),
        (x.module.right, b.left_pair, b.fiber.right),
        c.beta)
    return a, m, HomotopyRRBOperator(
        x.rop, b.sop, StructureConstants(dM, dM, c.gamma))
