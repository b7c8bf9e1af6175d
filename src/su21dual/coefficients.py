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

In both families each product is a positive factor times the value of a
sign polynomial in a single coordinate, of degree two for cones and one
for vertex modules; sign_polys writes these polynomials once, with
integer coefficients, and the products, the gauge below, the support walls
and the unitarity certificate all evaluate them.  Each product is built
from integer numerators over one positive denominator as a single
Fraction (a single GaussianRational for nonreal c): with c = (a + b i)/d
the up-right cone product is

    ((p+1) P(p) + (p+1) 2b i) / (d(p+q+2)),   P(p) = d Re(2c - (p+1)t - p(p+2)),

and vertex products are integral over 2(n+1).

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import InvalidParameter
from .lattice import ConeCoord, KType, coord_above
from .scalars import GaussianRational, Scalar, simplify


@dataclass(frozen=True)
class ConeParams:
    """Parameters of a cone module V(c, 2t); c may be any Gaussian rational."""

    c: Scalar
    t: int
    vertex: KType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "c", simplify(self.c))
        object.__setattr__(self, "vertex", KType(1, 2 * self.t))


@dataclass(frozen=True)
class VertexParams:
    """Parameters of a vertex module W(r, s): lowest K-type V_{rs}, r > 1."""

    r: int
    s: int
    vertex: KType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r <= 1:
            raise InvalidParameter(f"vertex module needs r > 1, got r={self.r}")
        if (self.r + self.s) % 2 == 0:
            raise InvalidParameter(f"r + s must be odd, got ({self.r}, {self.s})")
        object.__setattr__(self, "vertex", KType(self.r, self.s))


ModuleParams = Union[ConeParams, VertexParams]
Poly = tuple[int, int, int]


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


def _cleared(c: Scalar) -> tuple[int, int, int]:
    """Integers (a, b, d) with c = (a + b i)/d and d > 0."""
    if isinstance(c, GaussianRational):
        re, im = c.re, c.im
        d = math.lcm(re.denominator, im.denominator)
        return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d
    return c.numerator, 0, c.denominator


def sign_polys(params: ModuleParams) -> tuple[Poly, Poly]:
    """Integer coefficients (a2, a1, a0) of the up-right and up-left sign
    polynomials.

    The up-right product at (p, q) is a positive rational times the value
    of the up-right polynomial at p, plus for nonreal c an imaginary part;
    the up-left product likewise at q.  For a cone module c = (a + b i)/d
    is cleared once and the polynomials are d times the real parts of
    2c - (p+1)t - p(p+2) and 2c + (q+1)t - q(q+2); for a vertex module they
    are -(2p + s + r + 1) and s - r - 1 - 2q.  The leading coefficient is
    always negative.
    """
    if isinstance(params, ConeParams):
        a, _, d = _cleared(params.c)
        t = params.t
        return (-d, -d * (t + 2), 2 * a - d * t), (-d, d * (t - 2), 2 * a + d * t)
    r, s = params.r, params.s
    return (0, -2, -(s + r + 1)), (0, -2, s - r - 1)


def poly_at(poly: Poly, x: int) -> int:
    """The value a2 x^2 + a1 x + a0 of a sign polynomial."""
    a2, a1, a0 = poly
    return (a2 * x + a1) * x + a0


def _over(re: int, im: int, den: int) -> Scalar:
    """The scalar (re + im i)/den: a Fraction when im is 0."""
    if im == 0:
        return Fraction(re, den)
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def cone_products(params: ConeParams, coord: ConeCoord) -> EdgeProducts:
    p, q = coord.p, coord.q
    _, b, d = _cleared(params.c)
    right, left = sign_polys(params)
    den = d * (p + q + 2)
    return EdgeProducts(
        _over((p + 1) * poly_at(right, p), (p + 1) * 2 * b, den),
        _over((q + 1) * poly_at(left, q), (q + 1) * 2 * b, den),
    )


def vertex_products(params: VertexParams, coord: ConeCoord) -> EdgeProducts:
    p, q, r = coord.p, coord.q, params.r
    right, left = sign_polys(params)
    den = 2 * (r + p + q + 1)
    return EdgeProducts(
        Fraction((p + 1) * (p + r) * poly_at(right, p), den),
        Fraction((q + 1) * (q + r) * poly_at(left, q), den),
    )


def products(params: ModuleParams, coord: ConeCoord) -> EdgeProducts:
    """Canonical edge products at a coordinate of the params' natural cone."""
    if isinstance(params, ConeParams):
        return cone_products(params, coord)
    return vertex_products(params, coord)


def transition_coeffs(params: ModuleParams, v: KType) -> TransitionCoeffs:
    """The canonical-gauge coefficients at the K-type v.

    The downward coefficients vanish exactly on the natural cone edges, so
    restricting the action to any constituent support never needs explicit
    boundary cases.
    """
    coord = coord_above(params.vertex, v)
    if coord is None:
        raise InvalidParameter(f"{v} is not a K-type of this module family")
    p, q, n = coord.p, coord.q, v.n
    right, left = sign_polys(params)
    if isinstance(params, ConeParams):
        _, b, d = _cleared(params.c)
        up_right = _over(poly_at(right, p), 2 * b, d)
        up_left = _over(poly_at(left, q), 2 * b, d)
    else:
        r = params.r
        up_right = Fraction((p + r) * poly_at(right, p), 2)
        up_left = Fraction((q + r) * poly_at(left, q), 2)
    return TransitionCoeffs(up_right, up_left, Fraction(q, n), Fraction(p, n))
