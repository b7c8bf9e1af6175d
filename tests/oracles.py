"""Independent oracles and test-only helpers used across the test suite.

These deliberately avoid the closed-form product formulas: products are
recovered vertex by vertex from the balance equations alone
(solve_vertex_products), and brackets are recomputed from raw 3x3
matrices.  Expected values frozen into tests were produced by these
oracles or by direct hand substitution.  The commutator and adjoint
replays act on a module through apply, in exact Fraction and
GaussianRational arithmetic, independently of the integer-scaled kernels
of the package.  The coefficient relations are evaluated the same way, on
the Fraction and GaussianRational values of transition_coeffs and
products, independently of the integer form of verify.  The squared norms
are rebuilt from transition_coeffs (oracle_build_norms) rather than from
the canonical products, and the rank-one dual is restated as a branch
table per parity (oracle_sl2_classify) rather than read off the products.
sign_class states signs the way the acceptance criteria do.  The lattice
and gauge helpers (to_ktype, neighbors, gauge_quad), the row and
truncation queries on a module, the UnderdeterminedVertex error of the
vertex solver and the InconsistentGauge error of the norm oracle are used
only by the tests, and so is the symbolic algebra: AlgebraElement,
bracket, and the real-form basis as AlgebraElements (real_form_elements).
oracle_build is the construction of build one basis vector at a time,
with a fresh value object for every stored term, so the shared values of
build can be compared with it value for value.  oracle_module_json is the
module document as a dict, the layout module_to_json_str writes from text
fragments.  squared_norm (one basis vector's norm from a NormTable), the
rank-one coefficients sl2_coeffs, the complex conjugate of a scalar
(conjugate) and the two cone modules containing W(r, s) (embed_W) are
likewise reached only by tests.
"""

import enum
from fractions import Fraction
from itertools import combinations
import math
import random
from typing import NamedTuple, Optional

from su21dual import (
    BasisIndex,
    ConeCoord,
    ConeParams,
    EdgeProducts,
    Generator,
    KType,
    Region,
    VerificationReport,
    VertexParams,
    products,
    real_form_basis,
    transition_coeffs,
)
from su21dual.algebra import INDEPENDENT, generator_brackets
from su21dual.builder import _GENERATORS, _MOVES, TruncatedModule, checked_region
from su21dual.coefficients import ModuleParams
from su21dual.errors import InvalidBasisIndex, InvalidParameter, Su21Error
from su21dual.scalars import (
    GaussianRational,
    Scalar,
    imag_part,
    real_part,
    render_rational,
    scalar_to_json,
    simplify,
)
from su21dual.sl2 import Parity, Sl2Classification, Sl2Kind, Sl2Params
from su21dual.unitarity import NormTable


class AlgebraElement:
    """A finite linear combination of the independent generators.

    The canonical form never stores Z: it is folded into H_alpha + 2 H_beta
    on construction.  Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canonical: dict = {}
        for gen, coeff in (terms or {}).items():
            coeff = simplify(coeff)
            if coeff == 0:
                continue
            if gen is Generator.Z:
                for g, mult in ((Generator.H_ALPHA, 1), (Generator.H_BETA, 2)):
                    c = canonical.get(g, 0) + mult * coeff
                    if c == 0:
                        canonical.pop(g, None)
                    else:
                        canonical[g] = simplify(c)
                continue
            c = canonical.get(gen, 0) + coeff
            if c == 0:
                canonical.pop(gen, None)
            else:
                canonical[gen] = simplify(c)
        self.terms = canonical

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        merged = dict(self.terms)
        for g, c in other.terms.items():
            merged[g] = merged.get(g, 0) + c
        return AlgebraElement(merged)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({g: -c for g, c in self.terms.items()})

    def scaled(self, scalar: Scalar) -> "AlgebraElement":
        return AlgebraElement({g: c * scalar for g, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        parts = [f"{c}*{g.value}" for g, c in sorted(self.terms.items(), key=lambda t: t[0].value)]
        return "AlgebraElement(" + " + ".join(parts) + ")"


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket, extended bilinearly from the generator table."""
    acc: dict = {}
    for g1, c1 in x.terms.items():
        for g2, c2 in y.terms.items():
            c12 = c1 * c2
            for g, sc in generator_brackets()[(g1, g2)].items():
                acc[g] = acc.get(g, 0) + sc * c12
    return AlgebraElement(acc)


def real_form_elements() -> list[tuple[str, AlgebraElement]]:
    """The entries of real_form_basis as AlgebraElements, in table order."""
    return [
        (name, AlgebraElement({g: GaussianRational(re, im) for g, (re, im) in terms.items()}))
        for name, terms in real_form_basis.items()
    ]


class SignClass(enum.Enum):
    """Trichotomy-plus-nonreal of a scalar, as the acceptance tests state signs."""

    NEGATIVE_REAL = "negative_real"
    ZERO = "zero"
    POSITIVE_REAL = "positive_real"
    NONREAL = "nonreal"


def sign_class(x: Scalar) -> SignClass:
    """Classify a scalar as negative real, zero, positive real or nonreal."""
    if imag_part(x) != 0:
        return SignClass.NONREAL
    r = real_part(x)
    if r < 0:
        return SignClass.NEGATIVE_REAL
    if r > 0:
        return SignClass.POSITIVE_REAL
    return SignClass.ZERO


def conjugate(x: Scalar) -> Scalar:
    """The complex conjugate of a scalar; a Fraction is its own."""
    if isinstance(x, GaussianRational):
        return x.conjugate()
    return x


class Neighbors(NamedTuple):
    """The four K-types reachable by one algebra action; None when n-1 = 0."""

    up_right: KType
    up_left: KType
    down_right: Optional[KType]
    down_left: Optional[KType]


def neighbors(v: KType) -> Neighbors:
    down_right = KType(v.n - 1, v.m + 3) if v.n > 1 else None
    down_left = KType(v.n - 1, v.m - 3) if v.n > 1 else None
    return Neighbors(KType(v.n + 1, v.m + 3), KType(v.n + 1, v.m - 3), down_right, down_left)


def to_ktype(t: int, coord: ConeCoord) -> KType:
    """K-type at (p, q) in the cone whose vertex is V_{1, 2t}."""
    return KType(1 + coord.p + coord.q, 2 * t + 3 * coord.p - 3 * coord.q)


class GaugeQuad(NamedTuple):
    """The four gauge values entering the two products at a cone vertex.

    up_right and up_left sit at the vertex itself; down_left_return sits at
    the up-right neighbor and down_right_return at the up-left neighbor, so
    that up_right * down_left_return and up_left * down_right_return are
    exactly the canonical products.
    """

    up_right: Scalar
    up_left: Scalar
    down_right_return: Scalar
    down_left_return: Scalar


def gauge_quad(params, coord: ConeCoord) -> GaugeQuad:
    """The four gauge values whose pairwise products are the canonical
    edge products at one cone coordinate."""
    v0 = (
        params.vertex
        if isinstance(params, VertexParams)
        else KType(1, 2 * params.t)
    )
    n = v0.n + coord.p + coord.q
    m = v0.m + 3 * coord.p - 3 * coord.q
    here = transition_coeffs(params, KType(n, m))
    ne = transition_coeffs(params, KType(n + 1, m + 3))
    nw = transition_coeffs(params, KType(n + 1, m - 3))
    return GaugeQuad(here.up_right, here.up_left, nw.down_right, ne.down_left)


class UnderdeterminedVertex(Su21Error):
    """The vertex balance system at n = 1 is rank one and needs a seed value."""


def solve_vertex_products(
    n: int,
    m: int,
    below_right: Scalar = 0,
    below_left: Scalar = 0,
    up_right_seed: Optional[Scalar] = None,
) -> EdgeProducts:
    """Solve the two balance equations at a vertex for its upward products.

    below_right / below_left are the canonical products carried by the two
    downward edges (zero when the corresponding neighbor is not a K-type).
    For n > 1 the 2x2 system

        -(1/n) * up_right + up_left = (m - n + 1)/2 + below_right
        -up_right + (1/n) * up_left = (m + n - 1)/2 - below_left

    is nonsingular.  For n = 1 both equations coincide and a seed value for
    the up-right product must be supplied; this is exactly the one-parameter
    freedom of the cone family.
    """
    if n < 1:
        raise InvalidParameter(f"vertex dimension must be >= 1, got {n}")
    h1 = Fraction(m - n + 1, 2) + below_right
    h2 = Fraction(m + n - 1, 2) - below_left
    if n == 1:
        if up_right_seed is None:
            raise UnderdeterminedVertex(
                "the balance system at n = 1 has a one-parameter family of "
                "solutions; supply the up-right product"
            )
        return EdgeProducts(simplify(up_right_seed), simplify(up_right_seed + h1))
    det = 1 - Fraction(1, n * n)
    up_right = (h1 * Fraction(1, n) - h2) / det
    up_left = (h1 - h2 * Fraction(1, n)) / det
    return EdgeProducts(simplify(up_right), simplify(up_left))


def walk_cone_products(params: ConeParams, max_n: int) -> dict:
    """Products of V(c, 2t) on the full cone, from the balance system only.

    Level by level from the vertex: at each vertex the two downward inflow
    products are already known (or zero on the cone edges), so the 2x2
    balance system determines the upward pair; at the vertex itself the
    base up-right product c - t/2 seeds the recursion.
    """
    c, t = params.c, params.t
    table: dict[ConeCoord, EdgeProducts] = {}
    for depth in range(max_n):
        for p in range(depth + 1):
            q = depth - p
            n, m = 1 + depth, 2 * t + 3 * p - 3 * q
            below_right = table[ConeCoord(p, q - 1)].up_left if q >= 1 else 0
            below_left = table[ConeCoord(p - 1, q)].up_right if p >= 1 else 0
            if n == 1:
                seed = (c - Fraction(t, 2)) if not isinstance(c, GaussianRational) else c - Fraction(t, 2)
                pair = solve_vertex_products(n, m, up_right_seed=seed)
            else:
                pair = solve_vertex_products(n, m, below_right, below_left)
            table[ConeCoord(p, q)] = pair
    return table


def walk_vertex_products(params: VertexParams, max_n: int) -> dict:
    """Products of W(r, s) on its cone, from the balance system only.

    The vertex system is nonsingular for r > 1, so no seed is needed.
    """
    r, s = params.r, params.s
    table: dict[ConeCoord, EdgeProducts] = {}
    for depth in range(max_n - r + 1):
        for p in range(depth + 1):
            q = depth - p
            n, m = r + depth, s + 3 * p - 3 * q
            below_right = table[ConeCoord(p, q - 1)].up_left if q >= 1 else 0
            below_left = table[ConeCoord(p - 1, q)].up_right if p >= 1 else 0
            table[ConeCoord(p, q)] = solve_vertex_products(n, m, below_right, below_left)
    return table


def embed_W(r: int, s: int) -> tuple[ConeParams, ConeParams]:
    """The two cone modules containing W(r, s) as a constituent."""
    VertexParams(r, s)  # validate r > 1 and r + s odd
    c1 = Fraction((r - 1) * (-r + 1 + s) - 2, 4)
    c2 = Fraction((r - 1) * (-r + 1 - s) - 2, 4)
    two_t1 = -3 * r + 3 + s
    two_t2 = 3 * r - 3 + s
    return ConeParams(c1, two_t1 // 2), ConeParams(c2, two_t2 // 2)


def random_cone_params(rng: random.Random, complex_share: float = 0.3) -> ConeParams:
    """Small-numerator parameters for randomized exact checks."""
    def small_fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    t = rng.randint(-5, 5)
    if rng.random() < complex_share:
        c = GaussianRational(small_fraction(), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        return ConeParams(c, t)
    return ConeParams(small_fraction(), t)


def in_basis(mod, idx) -> bool:
    return idx in mod.basis


def action_row(mod, gen, idx):
    """The stored terms of gen applied to the basis vector idx."""
    if not in_basis(mod, idx):
        raise InvalidBasisIndex(f"{idx} is not a basis index of this module")
    return mod.rows[gen].get(idx, ())


def is_truncated_target(mod, idx) -> bool:
    return idx.n > mod.max_n


def truncation_contaminated(mod, vec) -> bool:
    return any(idx.n > mod.max_n for idx in vec)


def apply(mod, x, vec) -> dict:
    """Linear extension of the generator action of a truncated module to
    combinations.

    x may be a Generator or an AlgebraElement; Generator.Z is folded into
    H_alpha + 2 H_beta, so the stored Z row is never read here.  The result
    may contain indices one layer above max_n; those are flagged by
    is_truncated_target and cannot be acted on again.
    """
    if isinstance(x, Generator):
        x = AlgebraElement({x: 1})
    basis = set(mod.basis)
    acc: dict = {}
    for gen, gcoeff in x.terms.items():
        rows = mod.rows[gen]
        for idx, coeff in vec.items():
            if idx not in basis:
                raise InvalidBasisIndex(f"{idx} is not a basis index of this module")
            scale = gcoeff * coeff
            for tgt, val in rows.get(idx, ()):
                new = acc.get(tgt, 0) + scale * val
                if new == 0:
                    acc.pop(tgt, None)
                else:
                    acc[tgt] = new
    return acc


def _vec_str(vec) -> str:
    if not vec:
        return "0"
    parts = [f"{coeff}*v{tuple(idx)}" for idx, coeff in sorted(vec.items())]
    return " + ".join(parts)


def oracle_check_commutators(mod) -> VerificationReport:
    """Replay [x, y].v = x.(y.v) - y.(x.v) for all independent generator
    pairs and all interior basis vectors, plus the definitional row of Z."""
    report = VerificationReport()
    pairs = list(combinations(INDEPENDENT, 2))
    brackets = {
        (x, y): AlgebraElement(generator_brackets()[(x, y)]) for x, y in pairs
    }
    interior = [idx for idx in mod.basis if mod.interior(idx, depth=2)]
    report.skipped_boundary = len(mod.basis) - len(interior)
    for idx in interior:
        v = {idx: Fraction(1)}
        images = {gen: apply(mod, gen, v) for gen in INDEPENDENT}
        for x, y in pairs:
            lhs = apply(mod, x, images[y])
            for tgt, coeff in apply(mod, y, images[x]).items():
                new = lhs.get(tgt, 0) - coeff
                if new == 0:
                    lhs.pop(tgt, None)
                else:
                    lhs[tgt] = new
            for tgt, coeff in apply(mod, brackets[(x, y)], v).items():
                new = lhs.get(tgt, 0) - coeff
                if new == 0:
                    lhs.pop(tgt, None)
                else:
                    lhs[tgt] = new
            report.record(
                not lhs,
                f"commutator[{x.value},{y.value}]",
                (idx,),
                _vec_str(lhs) if lhs else None,
            )
    # Z is dependent: its stored row must equal H_alpha + 2 H_beta.
    z_elem = AlgebraElement({Generator.H_ALPHA: 1, Generator.H_BETA: 2})
    for idx in mod.basis:
        v = {idx: Fraction(1)}
        # The stored Z row itself: apply() would fold Z into H_alpha + 2 H_beta.
        diff = {}
        for tgt, coeff in action_row(mod, Generator.Z, idx):
            diff[tgt] = diff.get(tgt, 0) + coeff
        diff = {tgt: coeff for tgt, coeff in diff.items() if coeff != 0}
        for tgt, coeff in apply(mod, z_elem, v).items():
            new = diff.get(tgt, 0) - coeff
            if new == 0:
                diff.pop(tgt, None)
            else:
                diff[tgt] = new
        report.record(not diff, "center_grading", (idx,), _vec_str(diff) if diff else None)
    return report


def squared_norm(norms: NormTable, idx: BasisIndex) -> Fraction:
    """||v_{nm}^k||^2 = base / C(n-1, k-1): the lead-vector norm of the
    table scaled by the su(2) ratio, one basis vector at a time."""
    return norms.base[KType(idx.n, idx.m)] / math.comb(idx.n - 1, idx.k - 1)


def oracle_check_adjoint(mod, norms) -> VerificationReport:
    """Verify skew-symmetry <C.u, w> + <u, C.w> = 0 for every real-form
    basis element C over all interior pairs, exactly.

    The inner product is diagonal on the basis, so only pairs connected by
    C can fail; iterating over the action targets of interior vectors
    covers them all.
    """
    report = VerificationReport()
    interior = [idx for idx in mod.basis if mod.interior(idx, depth=1)]
    report.skipped_boundary = len(mod.basis) - len(interior)
    basis = set(mod.basis)
    nsq = {idx: squared_norm(norms, idx) for idx in mod.basis}
    for name, elem in real_form_elements():
        images = {u: apply(mod, elem, {u: Fraction(1)}) for u in mod.basis}
        for u in interior:
            for w in images[u]:
                if w not in basis:
                    raise InvalidBasisIndex(f"{w} is not a basis index of this module")
        reverse: dict[BasisIndex, set] = {}
        for src, image in images.items():
            for tgt in image:
                reverse.setdefault(tgt, set()).add(src)
        for u in interior:
            candidates = set(images[u]) | reverse.get(u, set()) | {u}
            for w in sorted(candidates):
                if w not in basis:
                    continue
                lhs = images[u].get(w, 0) * nsq[w]
                rhs = conjugate(images[w].get(u, 0)) * nsq[u]
                total = simplify(lhs + rhs)
                report.record(total == 0, f"adjoint_{name}", (u, w), total)
    return report


def oracle_check_coefficient_relations(
    params: ModuleParams,
    max_n: int,
    region: Optional[Region] = None,
) -> VerificationReport:
    """Evaluate the balance and path identities on the coefficient table."""
    region = checked_region(params, region)
    report = VerificationReport()
    ktypes = {(c.p, c.q): region.ktype_at(c) for c in region.coords(max_n)}
    tcs = {pq: transition_coeffs(params, kt) for pq, kt in ktypes.items()}
    prods = {pq: products(params, ConeCoord(*pq)) for pq in ktypes}

    for (p, q), kt in ktypes.items():
        n, m = kt.n, kt.m
        tc, prod = tcs[p, q], prods[p, q]
        ne_in = region.contains_coord(ConeCoord(p + 1, q))
        nw_in = region.contains_coord(ConeCoord(p, q + 1))

        # Boundary vanishing: a product whose far endpoint is not a K-type
        # of the support must be zero.
        if not ne_in:
            report.record(prod.up_right == 0, "boundary_zero_up_right", (kt,), prod.up_right)
        if not nw_in:
            report.record(prod.up_left == 0, "boundary_zero_up_left", (kt,), prod.up_left)
        # Downward boundary products vanish through the gauge itself.
        if q == 0:
            report.record(tc.down_right == 0, "boundary_zero_down_right", (kt,), tc.down_right)
        if p == 0:
            report.record(tc.down_left == 0, "boundary_zero_down_left", (kt,), tc.down_left)

        below_right = prods[p, q - 1].up_left if q >= 1 else 0
        below_left = prods[p - 1, q].up_right if p >= 1 else 0
        up_right = prod.up_right if ne_in else 0
        up_left = prod.up_left if nw_in else 0

        first = -up_right * Fraction(1, n) + up_left - below_right
        report.record(
            first == Fraction(m - n + 1, 2), "balance_first", (kt,), first
        )
        last = -up_right + up_left * Fraction(1, n) + below_left
        report.record(
            last == Fraction(m + n - 1, 2), "balance_last", (kt,), last
        )
        if n > 1:
            for k in range(1, n + 1):
                interior = (
                    -Fraction(k, n) * up_right
                    + Fraction(n + 1 - k, n) * up_left
                    - Fraction(n - k, n - 1) * below_right
                    + Fraction(k - 1, n - 1) * below_left
                )
                expected = Fraction(m - n - 1 + 2 * k, 2)
                report.record(
                    interior == expected, "balance_interior", (kt, k), interior - expected
                )
                blend = Fraction(n - k, n - 1) * first + Fraction(k - 1, n - 1) * last
                report.record(
                    interior == blend, "balance_blend", (kt, k), interior - blend
                )

        # Two-step path identities, checked where both paths stay in the
        # support and below the truncation.
        if n + 1 <= max_n and ne_in and nw_in:
            tc_ne, tc_nw = tcs[p + 1, q], tcs[p, q + 1]
            lhs = tc.up_left * tc_nw.up_right
            rhs = tc.up_right * tc_ne.up_left
            report.record(lhs == rhs, "two_step_up", (kt,), lhs - rhs)
            lhs = (n + 1) * tc.up_right * tc_ne.down_right
            rhs = n * tc.down_right * tcs[p, q - 1].up_right if q >= 1 else 0
            report.record(lhs == rhs, "two_step_right", (kt,), lhs - rhs)
            lhs = (n + 1) * tc.up_left * tc_nw.down_left
            rhs = n * tc.down_left * tcs[p - 1, q].up_left if p >= 1 else 0
            report.record(lhs == rhs, "two_step_left", (kt,), lhs - rhs)
        if p >= 1 and q >= 1:
            lhs = tc.down_left * tcs[p - 1, q].down_right
            rhs = tc.down_right * tcs[p, q - 1].down_left
            report.record(lhs == rhs, "two_step_down", (kt,), lhs - rhs)
    return report


def _is_integer(x: Fraction) -> bool:
    return x.denominator == 1


def sl2_coeffs(params: Sl2Params, k: int) -> tuple[Scalar, Scalar]:
    """Raising and lowering coefficients (a_k, b_k) at weight k."""
    if k % 2 != (0 if params.parity is Parity.EVEN else 1):
        raise InvalidParameter(
            f"weight {k} has the wrong parity for a {params.parity.value} module"
        )
    lam = params.lam
    return simplify((lam + k + 1) / 2), simplify((lam - k + 1) / 2)


def oracle_sl2_classify(params: Sl2Params) -> Sl2Classification:
    """The rank-one dual as a branch table per parity on the real and
    imaginary parts of lam, without reference to the products."""
    lam = simplify(params.lam)
    re_, im_ = real_part(lam), imag_part(lam)
    if params.parity is Parity.EVEN:
        if im_ != 0:
            if re_ == 0:
                return Sl2Classification(Sl2Kind.PRINCIPAL)
            return Sl2Classification(
                Sl2Kind.NONUNITARY, ("nonreal, not purely imaginary",)
            )
        if re_ == 0:
            return Sl2Classification(Sl2Kind.PRINCIPAL)
        if abs(re_) < 1:
            return Sl2Classification(Sl2Kind.COMPLEMENTARY)
        if _is_integer(re_) and re_.numerator % 2 == 1:
            if abs(re_) == 1:
                return Sl2Classification(
                    Sl2Kind.FINITE_DIM_POINT,
                    ("constituents: trivial module and two discrete parts",),
                )
            return Sl2Classification(
                Sl2Kind.REDUCIBLE_WITH_DISCRETE_PARTS,
                (
                    "constituents: two discrete parts and a finite module of "
                    f"dimension {abs(re_.numerator)}",
                ),
            )
        return Sl2Classification(Sl2Kind.NONUNITARY)
    # odd parity
    if im_ != 0:
        if re_ == 0:
            return Sl2Classification(Sl2Kind.PRINCIPAL)
        return Sl2Classification(Sl2Kind.NONUNITARY, ("nonreal, not purely imaginary",))
    if re_ == 0:
        return Sl2Classification(
            Sl2Kind.MOCK_DISCRETE_POINT, ("constituents: two mock discrete parts",)
        )
    if _is_integer(re_) and re_.numerator % 2 == 0:
        return Sl2Classification(
            Sl2Kind.REDUCIBLE_WITH_DISCRETE_PARTS,
            (
                "constituents: two discrete parts and a finite module of "
                f"dimension {abs(re_.numerator)}",
            ),
        )
    return Sl2Classification(Sl2Kind.NONUNITARY)


class InconsistentGauge(Su21Error):
    """Two norm-recursion paths disagree, so the coefficient table is corrupt."""


def oracle_build_norms(mod) -> NormTable:
    """Construct the invariant inner product on a unitary truncated module
    from the gauge coefficients: each step divides the conjugated downward
    coefficient at the upper end by the upward one below it, both read
    from transition_coeffs.

    Breadth-first from the vertex; each coordinate reachable along both an
    up-right and an up-left edge is computed twice and compared, raising
    InconsistentGauge on any mismatch.  Raises InvalidParameter when a
    recursion step divides by a zero upward coefficient or produces a
    nonpositive or nonreal value, which happens exactly when the module is
    not unitary on this support.
    """
    params, region = mod.params, mod.region
    values: dict[ConeCoord, Fraction] = {ConeCoord(0, 0): Fraction(1)}
    for coord in region.coords(mod.max_n):
        if coord in values:
            continue
        here = transition_coeffs(params, region.ktype_at(coord))
        steps = []
        if coord.p >= 1:
            steps.append(("up_right", ConeCoord(coord.p - 1, coord.q), here.down_left))
        if coord.q >= 1:
            steps.append(("up_left", ConeCoord(coord.p, coord.q - 1), here.down_right))
        candidates = []
        for edge, prev, down in steps:
            if prev not in values:
                continue
            there = transition_coeffs(params, region.ktype_at(prev))
            up = there.up_right if edge == "up_right" else conjugate(there.up_left)
            if up == 0:
                raise InvalidParameter(
                    f"{edge} coefficient at {region.ktype_at(prev)} is 0 inside "
                    "the region; the module is not unitary on this support"
                )
            ratio = simplify(-conjugate(down) / up)
            candidates.append((edge, simplify(ratio * values[prev])))
        if not candidates:
            raise InconsistentGauge(f"no path reaches {coord} inside the region")
        first = candidates[0][1]
        for _, other in candidates[1:]:
            if other != first:
                raise InconsistentGauge(
                    f"norm paths disagree at {region.ktype_at(coord)}: "
                    f"{first} vs {other}"
                )
        if imag_part(first) != 0 or real_part(first) <= 0:
            raise InvalidParameter(
                f"squared norm at {region.ktype_at(coord)} is {first}; "
                "the module is not unitary on this support"
            )
        values[coord] = real_part(first)
    base = {region.ktype_at(coord): value for coord, value in values.items()}
    return NormTable(region.vertex, base)


def _oracle_k_rows(n: int, m: int, k: int, tc):
    """Yield (generator, terms) pairs for the basis vector (n, m, k)."""
    here = BasisIndex(n, m, k)

    h_alpha = n + 1 - 2 * k
    if h_alpha:
        yield Generator.H_ALPHA, ((here, Fraction(h_alpha)),)
    h_beta = Fraction(m - n - 1 + 2 * k, 2)
    if h_beta:
        yield Generator.H_BETA, ((here, h_beta),)
    if m:
        yield Generator.Z, ((here, Fraction(m)),)

    if k > 1:
        yield Generator.X_ALPHA, ((BasisIndex(n, m, k - 1), Fraction(-(k - 1))),)
    if k < n:
        yield Generator.Y_ALPHA, ((BasisIndex(n, m, k + 1), Fraction(-(n - k))),)

    for gen, side, step, shift, up_sign, down_sign in _MOVES:
        up, down = tc[side], tc[side + 2]
        weight = down_sign * (n - k if shift else k - 1)
        terms = []
        if up != 0:
            terms.append((BasisIndex(n + 1, m + step, k + shift), up if up_sign > 0 else -up))
        if weight and down != 0:
            terms.append((
                BasisIndex(n - 1, m + step, k + shift - 1),
                Fraction(weight * down.numerator, (n - 1) * down.denominator),
            ))
        if terms:
            yield gen, tuple(terms)


def oracle_build(params: ModuleParams, max_n: int, region: Optional[Region] = None):
    """The truncated module of build, constructed basis vector by basis
    vector; the region must be one build accepts."""
    region = checked_region(params, region)
    basis = []
    rows: dict = {gen: {} for gen in _GENERATORS}
    for kt in region.members(max_n):
        tc = transition_coeffs(params, kt)
        for k in range(1, kt.n + 1):
            idx = BasisIndex(kt.n, kt.m, k)
            basis.append(idx)
            for gen, terms in _oracle_k_rows(kt.n, kt.m, k, tc):
                rows[gen][idx] = terms
    return TruncatedModule(params, max_n, region, tuple(basis), rows)


def oracle_module_json(mod: TruncatedModule, norms: Optional[NormTable] = None) -> dict:
    """The module document as a dict, built key by key and value by value;
    module_to_json_str must write it as compact JSON, byte for byte."""
    params = mod.params
    if isinstance(params, ConeParams):
        params_json = {"kind": "cone", "c": scalar_to_json(params.c), "t": params.t}
    else:
        params_json = {"kind": "vertex", "r": params.r, "s": params.s}
    action = {}
    for gen in _GENERATORS:
        action[gen.value] = [
            {"from": list(idx), "terms": [
                [list(tgt), render_rational(real_part(v)), render_rational(imag_part(v))]
                for tgt, v in mod.rows[gen][idx]
            ]}
            for idx in mod.basis if mod.rows[gen].get(idx)
        ]
    doc = {
        "params": params_json,
        "max_n": mod.max_n,
        "support": mod.region.to_json(),
        "basis": [{"n": b.n, "m": b.m, "k": b.k} for b in mod.basis],
        "action": action,
    }
    if norms is not None:
        doc["norms"] = norms.to_json()
    return doc
