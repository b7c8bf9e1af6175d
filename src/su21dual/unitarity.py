"""Invariant inner products and the unitarity decision.

A module is unitary exactly when every canonical product on an interior
edge of its support is a negative real number.  Zero products are what cut
the support out of the ambient cone, so they are permitted (and required)
on edges crossing the support boundary, but a zero strictly inside means
the support is reducible and a positive or nonreal value anywhere kills
unitarity.

The sign of each real product is that of a polynomial in a single cone
coordinate with negative leading coefficient (params.polys), so
certificate decides the verdict in closed form for the whole infinite
support, not only below the truncation bound: on each upward edge type
the polynomial's largest value over the interior edges must be negative
and it must vanish at the wall; V(c, ±2t) and W(r, ±s) swap the two
polynomials and so share a verdict.  classify reads this certificate.
is_unitary also replays the finite scan up to max_n and cross-checks it
against the certificate: at every region coordinate with
K-type dimension <= max_n, the exact values of coefficients.products on
both upward edges that stay inside the region (a wall is a comparison of
the coordinate with p_max or q_max, or with max_n on an open side) must be
bare Fractions, and the sign is read off the numerator: it must be below 0.

When the verdict is unitary, the inner product itself is constructed: the
squared norm of the lowest vector is 1, and a step up-right or up-left
scales it by a factor that depends on p alone or on q alone, times one
over the dimension reached, so the squared norm of the lead vector at
(p, q) is a product of two axis factors and n0!/n! in closed form.  The
within-K-type norms are fixed by the compact su(2) conventions,
||v^k||^2 = ||v^1||^2 / C(n-1, k-1).  adjoint.check_adjoint, not the
construction, certifies that the form is invariant: nothing here reads a
module's action, only its parameters, region and max_n.  The tests and the
benchmark run check_adjoint; no command of the CLI does.  document_norms,
the one rule for the norms of a module document, gives them exactly when
certificate passes: cli build writes them and builder's reader compares.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .coefficients import (ConeParams, ModuleParams, Poly, _over, _ups, checked_region, poly_at,
                           products)
from .errors import InvalidParameter
from .lattice import ConeCoord, KType, Region, check_max_n
from .scalars import GaussianRational, Scalar, imag_part, render_rational, render_scalar

if TYPE_CHECKING:
    from .builder import TruncatedModule


class ProductWitness(NamedTuple):
    ktype: KType
    coord: ConeCoord
    edge: str
    value: Scalar

    def to_json(self) -> dict:
        ktype, coord, edge, value = self
        return {"ktype": [ktype.n, ktype.m], "coord": [coord.p, coord.q], "edge": edge,
                "value": render_scalar(value)}


class UnitarityVerdict(NamedTuple):
    status: str  # "unitary" | "nonunitary" | "boundary_reducible"
    witness: Optional[ProductWitness] = None

    @property
    def is_unitary(self) -> bool:
        return self.status == "unitary"

    def to_json(self) -> dict:
        doc = {"status": self.status}
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        return doc


def _peak(poly: Poly, hi: Optional[int]) -> Optional[int]:
    """Argmax of a sign polynomial over the integers 0..hi (hi None: every
    x >= 0), the smallest one on a tie; None when the range is empty.

    A vertex polynomial is linear and decreasing, so its argmax is 0.  A
    cone polynomial has a2 = -d and a1 = -d(u+2), u = t for the up-right
    one and u = -t for the up-left one, a multiple of a2, so its apex
    -(u+2)/2 is an integer or half an integer: the floor of the apex,
    clamped into the range, is the argmax, the smaller one on a tie.
    """
    if hi is not None and hi < 0:
        return None
    a2, a1, _ = poly
    x = max(0, a1 // (-2 * a2)) if a2 else 0
    return x if hi is None else min(x, hi)


def certificate(params: ModuleParams, region: Region) -> Optional[UnitarityVerdict]:
    """The closed-form unitarity test on the whole, generally infinite,
    region: the failing verdict, or None when the region passes.

    A nonreal c fails at the vertex.  Otherwise, on each upward edge type
    the largest value of the sign polynomial (params.polys) over the
    interior edges must be negative; a zero there makes the support
    reducible.  At a wall the polynomial must vanish, otherwise the region
    is not the support of a constituent.
    """

    def fail(status: str, edge: str, x: int) -> UnitarityVerdict:
        coord = ConeCoord(x, 0) if edge == "up_right" else ConeCoord(0, x)
        value = getattr(products(params, coord), edge)
        return UnitarityVerdict(status, ProductWitness(region.ktype_at(coord), coord, edge, value))

    if isinstance(params, ConeParams) and imag_part(params.c) != 0:
        return fail("nonunitary", "up_right", 0)
    right, left = params.polys
    for edge, poly, wall in (("up_right", right, region.p_max), ("up_left", left, region.q_max)):
        # Interior edges run the bounded coordinate from 0 to wall-1.
        x = _peak(poly, None if wall is None else wall - 1)
        if x is not None and poly_at(poly, x) >= 0:
            return fail("nonunitary" if poly_at(poly, x) > 0 else "boundary_reducible", edge, x)
        if wall is not None and poly_at(poly, wall) != 0:
            return fail("nonunitary", edge, wall)
    return None


def is_unitary(
    params: ModuleParams,
    region: Optional[Region] = None,
    max_n: int = 30,
) -> UnitarityVerdict:
    """Decide unitarity of the module carried by a support region.

    The verdict covers the entire (generally infinite) support: certificate
    decides it in closed form, and its failing verdict carries the witness.
    Only after the certificate has passed, the finite replay up to max_n
    cross-checks it, and returns a witness below the truncation only if the
    two disagree.  Raises InvalidParameter unless
    1 <= max_n <= lattice.MAX_N_LIMIT.
    """
    check_max_n(max_n)
    region = checked_region(params, region)
    verdict = certificate(params, region)
    if verdict is not None:
        return verdict

    # Finite replay: every interior product below the truncation must agree
    # with the certificate.  products() returns real values as bare
    # Fractions, whose denominator is positive, so the sign is read off the
    # numerator; a GaussianRational (nonreal) always fails.  Every region
    # coordinate has p, q < max_n, so max_n stands for an open side.
    def fail(coord: ConeCoord, edge: str, value: Scalar) -> UnitarityVerdict:
        status = "boundary_reducible" if value == 0 else "nonunitary"
        return UnitarityVerdict(status, ProductWitness(region.ktype_at(coord), coord, edge, value))

    p_wall = max_n if region.p_max is None else region.p_max
    q_wall = max_n if region.q_max is None else region.q_max
    for coord in region.coords(max_n):
        right, left = products(params, coord)
        if coord.p < p_wall and (right.__class__ is GaussianRational or right.numerator >= 0):
            return fail(coord, "up_right", right)
        if coord.q < q_wall and (left.__class__ is GaussianRational or left.numerator >= 0):
            return fail(coord, "up_left", left)
    return UnitarityVerdict("unitary")


class NormTable(NamedTuple):
    """Squared norms of the lead vectors v_{nm}^1, anchored at the vertex."""

    anchor: KType
    base: dict[KType, Fraction]

    def to_json(self) -> dict:
        return {
            "anchor": [self.anchor.n, self.anchor.m],
            "base": [
                [[kt.n, kt.m], render_rational(value)]
                for kt, value in sorted(self.base.items())
            ],
        }


def build_norms(mod: TruncatedModule) -> NormTable:
    """Construct the invariant inner product on a unitary truncated module.

    Closed form, with the upward coefficients (R_x + im i)/D at p = x and
    (L_x + im i)/D at q = x from coefficients._ups: an up-right step into
    (p, q) scales the squared norm by -pD/(n(R_{p-1} + im i)) and an
    up-left step by -qD/(n(L_{q-1} - im i)), n the dimension at (p, q).
    Every path to (p, q) meets the dimensions n0+1, ..., n0+p+q once each,
    so ||v_pq||^2 = A_p B_q n0!/n! with the axis products
    A_p = prod_{x<=p} -xD/(R_{x-1} + im i) and
    B_q = prod_{x<=q} -xD/(L_{x-1} - im i).  Raises InvalidParameter when a
    factor meets a zero coefficient or a squared norm is nonpositive or
    nonreal.  That happens only on a module that is not unitary, but not on
    every one: the norms are checked only up to max_n, so V(c=1,2t=0) at
    max_n=1 gets a table.  document_norms asks certificate first.
    """
    params, region = mod.params, checked_region(mod.params, mod.region)
    # a[x] = A_x and b[x] = B_x as Gaussian integers over positive integers
    # (re, im, den) and fall[j] = n!/n0!, n = n0 + j, each extended when first
    # needed: Region.coords runs depth by depth, so a new x is met at (x, 0) or (0, x).
    a, b, fall = [(1, 0, 1)], [(1, 0, 1)], [1]
    base = {}
    for coord in region.coords(mod.max_n):
        p, q = coord.p, coord.q
        for edge, x, axis in (("up_right", p, a), ("up_left", q, b)):
            if x < len(axis):
                continue
            prev = ConeCoord(p - 1, q) if edge == "up_right" else ConeCoord(p, q - 1)
            right, left, im, den = _ups(params, prev.p, prev.q)
            # The up-left step meets the conjugate coefficient L - im i.
            y, im = (right, im) if edge == "up_right" else (left, -im)
            if y == 0 and im == 0:
                raise InvalidParameter(
                    f"{edge} coefficient at {region.ktype_at(prev)} is 0 inside "
                    "the region; the module is not unitary on this support"
                )
            (zr, zi, zd), cr, ci = axis[-1], -x * den * y, x * den * im
            zr, zi, zd = zr * cr - zi * ci, zr * ci + zi * cr, zd * (y * y + im * im)
            g = math.gcd(zr, zi, zd)
            axis.append((zr // g, zi // g, zd // g))
        kt = region.ktype_at(coord)
        if p + q == len(fall):
            fall.append(fall[-1] * kt.n)
        (ar, ai, ad), (br, bi, bd) = a[p], b[q]
        value = _over(ar * br - ai * bi, ar * bi + ai * br, ad * bd * fall[p + q])
        if isinstance(value, GaussianRational) or value <= 0:
            raise InvalidParameter(
                f"squared norm at {kt} is {value}; the module is not unitary on this support"
            )
        base[kt] = value
    return NormTable(region.vertex, base)


def document_norms(mod: TruncatedModule) -> Optional[NormTable]:
    """The norms of the module's document: build_norms(mod) when certificate
    calls the module unitary on its whole support, None otherwise."""
    return build_norms(mod) if certificate(mod.params, mod.region) is None else None
