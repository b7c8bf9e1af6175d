"""Transition coefficients and canonical edge products.

The action of the non-compact part of the algebra moves a K-type to its
four lattice neighbors.  The four transition coefficients at a K-type are
a gauge choice: only the two products carried by the upward edges are
canonical, namely

    up-right product at v = (up-right coeff at v) * (down-left coeff at NE(v))
    up-left  product at v = (up-left  coeff at v) * (down-right coeff at NW(v)).

The canonical gauge puts the positive rationals on the downward
coefficients, down_right = q/n and down_left = p/n at cone coordinate
(p, q) of a K-type with dimension n, and the upward coefficients are
stated once, in _ups, from the sign polynomials params.polys: integer
coefficients (a2, a1, a0), one coordinate each, negative leading
coefficient.  Two parameter families occur.  A cone module V(c, 2t) has
lowest K-type V_{1, 2t}, and its upward coefficients are

    up_right = 2c - (p+1)t - p(p+2),   up_left = 2c + (q+1)t - q(q+2).

A vertex module W(r, s), r > 1, r + s odd, has lowest K-type V_{rs}, and

    up_right = -(p+r)(2p + s + r + 1)/2,   up_left = (q+r)(s - r - 1 - 2q)/2.

Each family states its up-right polynomial once and reads the up-left one
at -t or -s, so V(c, ±2t) and W(r, ±s) swap their two polynomials, and
tests/test_mirror.py pins the whole modules as mirror images.

products and transition_coeffs both read _ups, so the products follow from
the gauge by definition; multiplying by (p+1)/(n+1) or (q+1)/(n+1) gives
the closed forms (n = r + p + q for W(r, s), n = 1 + p + q for cones)

    cone:   up_right = (p+1)/(p+q+2) * (2c - (p+1)t - p(p+2))
            up_left  = (q+1)/(p+q+2) * (2c + (q+1)t - q(q+2))
    vertex: up_right = -(p+1)(p+r)(2p + s + r + 1) / (2(n+1))
            up_left  =  (q+1)(q+r)(s - r - 1 - 2q) / (2(n+1)).

For a cone the base up-right product is c - t/2.  For W(r, s) the balance
system at the vertex is nonsingular and pins the products completely; the
test suite recovers both closed forms from an independent vertex-by-vertex
linear solve of the balance equations.  Each product is a positive factor
times the value of a sign polynomial, which the support walls and the
unitarity certificate also evaluate, and it is built from integer
numerators over one positive denominator as a single Fraction (a single
GaussianRational for nonreal c).  support_of places the walls of the
support at the smallest roots of the sign polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import InvalidParameter
from .lattice import ConeCoord, KType, Region, coord_above
from .scalars import GaussianRational, Scalar, imag_part, simplify


class _Params:
    """Value semantics shared by the two parameter families: equal, and
    hashed alike, exactly when of one family with equal _fields.  The
    vertex and the sign polynomials are stored, outside _fields, as
    products reads them at every coordinate: polys holds (a2, a1, a0) of
    the up-right and the up-left polynomial.  The up-right product at (p, q)
    is a positive rational times the first at p, plus for nonreal c an
    imaginary part, and the up-left product likewise the second at q."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"


def _cone_poly(a: int, d: int, u: int) -> Poly:
    """d Re(2c - (p+1)u - p(p+2)), c = (a + b i)/d: the up-right sign
    polynomial of V(c, 2u) and, at u = -t, the up-left one of V(c, 2t)."""
    return -d, -d * (u + 2), 2 * a - d * u


def _vertex_poly(r: int, u: int) -> Poly:
    """-(2p + u + r + 1): the up-right sign polynomial of W(r, u) and, at
    u = -s, the up-left one of W(r, s)."""
    return 0, -2, -(u + r + 1)


class ConeParams(_Params):
    """Parameters of a cone module V(c, 2t); c may be any Gaussian rational."""

    __slots__ = ("c", "t", "vertex", "cleared", "polys")
    _fields = ("c", "t")

    def __init__(self, c: Scalar, t: int):
        self.c = simplify(c)
        self.t = t
        self.vertex = KType(1, 2 * t)
        a, _, d = self.cleared = _cleared(self.c)
        self.polys = _cone_poly(a, d, t), _cone_poly(a, d, -t)


class VertexParams(_Params):
    """Parameters of a vertex module W(r, s): lowest K-type V_{rs}, r > 1."""

    __slots__ = ("r", "s", "vertex", "polys")
    _fields = ("r", "s")

    def __init__(self, r: int, s: int):
        if r <= 1:
            raise InvalidParameter(f"vertex module needs r > 1, got r={r}")
        if (r + s) % 2 == 0:
            raise InvalidParameter(f"r + s must be odd, got ({r}, {s})")
        self.r = r
        self.s = s
        self.vertex = KType(r, s)
        self.polys = _vertex_poly(r, s), _vertex_poly(r, -s)


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


def poly_at(poly: Poly, x: int) -> int:
    """The value a2 x^2 + a1 x + a0 of a sign polynomial."""
    a2, a1, a0 = poly
    return (a2 * x + a1) * x + a0


def _smallest_root(poly: Poly) -> Optional[int]:
    """Smallest integer x >= 0 with a2 x^2 + a1 x + a0 = 0, if any; a1 is
    nonzero whenever a2 is 0, and a2 is never positive, so the root with
    -a1 + root over 2 a2 is the smaller one."""
    a2, a1, a0 = poly
    if a2 == 0:
        x, rem = divmod(-a0, a1)
        return x if rem == 0 and x >= 0 else None
    disc = a1 * a1 - 4 * a2 * a0
    root = math.isqrt(max(disc, 0))
    if root * root != disc:
        return None
    for num in (-a1 + root, -a1 - root):
        x, rem = divmod(num, 2 * a2)
        if rem == 0 and x >= 0:
            return x
    return None


def support_of(params: ModuleParams) -> Region:
    """Support of the constituent containing the lowest K-type.

    The walls are the smallest nonnegative integer roots of the sign
    polynomials (params.polys): a vanishing up-right product at
    column p blocks every edge out of that column, and likewise for
    up-left products and rows.  Each polynomial depends on a single
    coordinate, so wall detection is exact and needs no truncation.  A
    nonreal c gives products with a nonzero imaginary part everywhere, so
    the support is the full cone.
    """
    if isinstance(params, ConeParams) and imag_part(params.c) != 0:
        return Region(params.vertex)
    p_max, q_max = map(_smallest_root, params.polys)
    return Region(params.vertex, p_max, q_max)


def checked_region(params: ModuleParams, region: Optional[Region]) -> Region:
    """The region a module is built or tested on: support_of(params) when
    region is None, else region itself, which must sit on the lowest
    K-type of params (InvalidParameter otherwise)."""
    if region is None:
        return support_of(params)
    if region.vertex != params.vertex:
        raise InvalidParameter(
            f"region vertex {region.vertex} is not the lowest K-type {params.vertex}"
        )
    return region


def _over(re: int, im: int, den: int) -> Scalar:
    """The scalar (re + im i)/den: a Fraction when im is 0."""
    if im == 0:
        return Fraction(re, den)
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _ups(params: ModuleParams, p: int, q: int) -> tuple[int, int, int, int]:
    """Integers (right, left, im, den) with den > 0: the up-right coefficient
    at (p, q) is (right + im i)/den and the up-left one (left + im i)/den.

    This is the one place the gauge is stated.  For a cone module, with
    c = (a + b i)/d, right and left are the sign polynomials at p and q,
    im = 2b and den = d; for W(r, s) they are (p+r) and (q+r) times the sign
    polynomials, im = 0 and den = 2.  The polynomials and (a, b, d) are
    read off the params, which store them.
    """
    (r2, r1, r0), (l2, l1, l0) = params.polys
    right, left = (r2 * p + r1) * p + r0, (l2 * q + l1) * q + l0
    if isinstance(params, ConeParams):
        _, b, d = params.cleared
        return right, left, 2 * b, d
    r = params.r
    return (p + r) * right, (q + r) * left, 0, 2


def products(params: ModuleParams, coord: ConeCoord) -> EdgeProducts:
    """Canonical edge products at a coordinate of the params' natural cone:
    each upward coefficient times the downward coefficient it meets at the
    K-type above, (p+1)/(n+1) or (q+1)/(n+1)."""
    p, q = coord.p, coord.q
    right, left, im, den = _ups(params, p, q)
    den *= params.vertex.n + p + q + 1
    return EdgeProducts(
        _over((p + 1) * right, (p + 1) * im, den),
        _over((q + 1) * left, (q + 1) * im, den),
    )


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
    right, left, im, den = _ups(params, p, q)
    return TransitionCoeffs(
        _over(right, im, den), _over(left, im, den), Fraction(q, n), Fraction(p, n)
    )
