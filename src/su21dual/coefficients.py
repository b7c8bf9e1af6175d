"""Transition coefficients and canonical edge products.

The action of the non-compact part of the algebra moves a K-type to its
four lattice neighbors.  The four transition coefficients at a K-type are
a gauge choice: only the two products carried by the upward edges are
canonical, namely

    up-right product at v = (up-right coeff at v) * (down-left coeff at NE(v))
    up-left  product at v = (up-left  coeff at v) * (down-right coeff at NW(v)).

Two parameter families occur.  A cone module V(c, 2t) has lowest K-type
V_{1, 2t} and base up-right product c - t/2; its products at cone
coordinate (p, q) are

    up_right = (p+1)/(p+q+2) * (2c - (p+1)t - p(p+2))
    up_left  = (q+1)/(p+q+2) * (2c + (q+1)t - q(q+2)).

A vertex module W(r, s), r > 1, r + s odd, has lowest K-type V_{rs}; there
the balance system at the vertex is nonsingular and pins the products
completely.  Propagating its unique solution with the two-step ratio laws
gives, at coordinate (p, q) relative to the vertex (n = r + p + q),

    up_right = -(p+1)(p+r)(2p + s + r + 1) / (2(n+1))
    up_left  =  (q+1)(q+r)(s - r - 1 - 2q) / (2(n+1)).

Both closed forms are cross-checked in the test suite against an
independent vertex-by-vertex linear solve of the balance equations.

Each product is computed as integer numerators over one positive integer
denominator and built as a single Fraction (a single GaussianRational for
nonreal c).  For cone modules the denominator of c is cleared once,
c = (a + b i)/d, so the up-right product is

    ((p+1)(2a - d((p+1)t + p(p+2))) + (p+1) 2b i) / (d(p+q+2))

and the up-left product is its mirror (p <-> q, t <-> -t); vertex
modules are already integral over 2(n+1).

The canonical gauge realizing these products puts the positive rationals
on the downward coefficients:

    down_right at v = q_v / n_v,   down_left at v = p_v / n_v,

with (p_v, q_v) the coordinates of v itself; the upward coefficients are
then forced by the products.  For cone modules this gauge is polynomial:
up_right at v equals 2c - (p_v+1)t - p_v(p_v+2) and up_left equals
2c + (q_v+1)t - q_v(q_v+2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import InvalidParameter, UnderdeterminedVertex
from .lattice import ConeCoord, KType, Region, from_ktype
from .scalars import GaussianRational, Scalar, simplify


@dataclass(frozen=True)
class ConeParams:
    """Parameters of a cone module V(c, 2t); c may be any Gaussian rational."""

    c: Scalar
    t: int

    def __post_init__(self):
        object.__setattr__(self, "c", simplify(self.c))

    @property
    def two_t(self) -> int:
        return 2 * self.t

    @property
    def vertex(self) -> KType:
        return KType(1, 2 * self.t)


@dataclass(frozen=True)
class VertexParams:
    """Parameters of a vertex module W(r, s): lowest K-type V_{rs}, r > 1."""

    r: int
    s: int

    def __post_init__(self):
        if self.r <= 1:
            raise InvalidParameter(f"vertex module needs r > 1, got r={self.r}")
        if (self.r + self.s) % 2 == 0:
            raise InvalidParameter(f"r + s must be odd, got ({self.r}, {self.s})")

    @property
    def vertex(self) -> KType:
        return KType(self.r, self.s)


ModuleParams = Union[ConeParams, VertexParams]


class EdgeProducts(NamedTuple):
    """The two canonical products attached to the upward edges at a vertex."""

    up_right: Scalar
    up_left: Scalar


class TransitionCoeffs(NamedTuple):
    """The four gauge coefficients at one K-type, named by target direction."""

    up_right: Scalar
    up_left: Scalar
    down_right: Scalar
    down_left: Scalar


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


def _cleared(c: Scalar) -> tuple[int, int, int]:
    """Integers (a, b, d) with c = (a + b i)/d and d > 0."""
    if isinstance(c, GaussianRational):
        re, im = c.re, c.im
        d = math.lcm(re.denominator, im.denominator)
        return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d
    return c.numerator, 0, c.denominator


def _cone_up_numerator(a: int, d: int, t: int, k: int) -> int:
    """d times the real part of the cone polynomial 2c - (k+1)t - k(k+2).

    Up-right edges evaluate it at (t, p), up-left edges at (-t, q)."""
    return 2 * a - d * ((k + 1) * t + k * (k + 2))


def _over(re: int, im: int, den: int) -> Scalar:
    """The scalar (re + im i)/den: a Fraction when im is 0."""
    if im == 0:
        return Fraction(re, den)
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def cone_products(params: ConeParams, coord: ConeCoord) -> EdgeProducts:
    p, q, t = coord.p, coord.q, params.t
    a, b, d = _cleared(params.c)
    den = d * (p + q + 2)
    return EdgeProducts(
        _over((p + 1) * _cone_up_numerator(a, d, t, p), (p + 1) * 2 * b, den),
        _over((q + 1) * _cone_up_numerator(a, d, -t, q), (q + 1) * 2 * b, den),
    )


def vertex_products(params: VertexParams, coord: ConeCoord) -> EdgeProducts:
    r, s = params.r, params.s
    p, q = coord.p, coord.q
    den = 2 * (r + p + q + 1)
    return EdgeProducts(
        Fraction(-(p + 1) * (p + r) * (2 * p + s + r + 1), den),
        Fraction((q + 1) * (q + r) * (s - r - 1 - 2 * q), den),
    )


def products(params: ModuleParams, coord: ConeCoord) -> EdgeProducts:
    """Canonical edge products at a coordinate of the params' natural cone."""
    if isinstance(params, ConeParams):
        return cone_products(params, coord)
    return vertex_products(params, coord)


def w_vertex_products(r: int, s: int) -> EdgeProducts:
    """Products at the lowest K-type of W(r, s): the unique solution of the
    vertex balance system, in closed form -r(s+r+1)/(2(r+1)) and
    r(s-r-1)/(2(r+1))."""
    return vertex_products(VertexParams(r, s), ConeCoord(0, 0))


def natural_coord(params: ModuleParams, v: KType) -> Optional[ConeCoord]:
    """Coordinates of v in the full cone above the params' lowest K-type."""
    if isinstance(params, ConeParams):
        return from_ktype(params.t, v)
    return Region.vertex_cone(params.r, params.s).coord_of(v)


def transition_coeffs(params: ModuleParams, v: KType) -> TransitionCoeffs:
    """The canonical-gauge coefficients at the K-type v.

    The downward coefficients vanish exactly on the natural cone edges, so
    restricting the action to any constituent support never needs explicit
    boundary cases.
    """
    coord = natural_coord(params, v)
    if coord is None:
        raise InvalidParameter(f"{v} is not a K-type of this module family")
    p, q, n = coord.p, coord.q, v.n
    down_right = Fraction(q, n)
    down_left = Fraction(p, n)
    if isinstance(params, ConeParams):
        a, b, d = _cleared(params.c)
        up_right = _over(_cone_up_numerator(a, d, params.t, p), 2 * b, d)
        up_left = _over(_cone_up_numerator(a, d, -params.t, q), 2 * b, d)
    else:
        prod = vertex_products(params, coord)
        up_right = simplify(prod.up_right * Fraction(n + 1, p + 1))
        up_left = simplify(prod.up_left * Fraction(n + 1, q + 1))
    return TransitionCoeffs(up_right, up_left, down_right, down_left)


def gauge_quad(params: ModuleParams, coord: ConeCoord) -> GaugeQuad:
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
