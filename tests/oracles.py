"""Independent oracles and test-only helpers used across the test suite.

These deliberately avoid the closed-form product formulas: products are
recovered vertex by vertex from the balance equations alone
(solve_vertex_products), and brackets are recomputed from raw 3x3
matrices.  Expected values frozen into tests were produced by these
oracles or by direct hand substitution.  The commutator and adjoint
replays act on a module through apply, in exact Fraction and
GaussianRational arithmetic, independently of the integer-scaled kernels
of the package.  sign_class states signs the way the acceptance criteria
do.  The lattice and gauge helpers (to_ktype, neighbors, gauge_quad), the
row and truncation queries on a module and the UnderdeterminedVertex
error of the vertex solver are used only by the tests.
"""

import enum
from fractions import Fraction
from itertools import combinations
import random
from typing import NamedTuple, Optional

from su21dual import (
    AlgebraElement,
    BasisIndex,
    ConeCoord,
    ConeParams,
    EdgeProducts,
    Generator,
    KType,
    Region,
    VerificationReport,
    VertexParams,
    real_form_basis,
    transition_coeffs,
)
from su21dual.algebra import GENERATOR_BRACKETS, INDEPENDENT
from su21dual.errors import InvalidBasisIndex, InvalidParameter, Su21Error
from su21dual.scalars import GaussianRational, Scalar, conjugate, imag_part, real_part, simplify


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
        (x, y): AlgebraElement(GENERATOR_BRACKETS[(x, y)]) for x, y in pairs
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
    nsq = {idx: norms.squared_norm(idx) for idx in mod.basis}
    for name, elem in real_form_basis():
        images = {u: apply(mod, elem, {u: Fraction(1)}) for u in mod.basis}
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
