"""Invariant inner products and the unitarity decision.

A module is unitary exactly when every canonical product on an interior
edge of its support is a negative real number.  Zero products are what cut
the support out of the ambient cone, so they are permitted (and required)
on edges crossing the support boundary, but a zero strictly inside means
the support is reducible and a positive or nonreal value anywhere kills
unitarity.

The sign of each real product is that of a polynomial in a single cone
coordinate with negative leading coefficient (coefficients.sign_polys),
so certificate decides the verdict in closed form for the whole infinite
support, not only below the truncation bound: on each upward edge type
the polynomial's largest value over the interior edges must be negative
and it must vanish at the wall.  classify reads this certificate.
is_unitary also replays the finite scan up to max_n and cross-checks it
against the certificate: at every region coordinate with
K-type dimension <= max_n, the exact values of coefficients.products on
both upward edges that stay inside the region (a wall is a comparison of
the coordinate with p_max or q_max) must be bare Fractions below 0.

When the verdict is unitary, the inner product itself is constructed: the
squared norm of the lowest vector is 1, squared norms of the other lead
vectors follow by breadth-first recursion over the two upward edge types,
one canonical product per step, and the within-K-type norms are fixed by
the compact su(2) conventions, ||v^k||^2 = ||v^1||^2 / C(n-1, k-1).  Every
plaquette is reached along two paths and both are compared on arrival,
which turns gauge consistency into a structural check.

check_adjoint verifies the skew condition on the same integer rows as the
commutator replay (builder.scaled_rows, scale D) with the squared norms
scaled by their own lcm N.  The real-form elements have Gaussian-unit
coefficients, so D.N.(<C.u, w> + <u, C.w>) is a Gaussian integer that
vanishes exactly when the unscaled sum does; failures are divided back by
D.N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import real_form_basis
from .builder import BasisIndex, TruncatedModule, checked_region, scaled_rows
from .coefficients import ConeParams, ModuleParams, Poly, _over, poly_at, products, sign_polys
from .errors import InconsistentGauge, InvalidParameter
from .lattice import ConeCoord, KType, Region, check_max_n
from .scalars import (
    GaussianRational,
    Scalar,
    conjugate,
    imag_part,
    real_part,
    simplify,
)
from .verify import VerificationReport, _combine


@dataclass(frozen=True)
class ProductWitness:
    ktype: KType
    coord: ConeCoord
    edge: str
    value: Scalar

    def to_json(self) -> dict:
        return {
            "ktype": [self.ktype.n, self.ktype.m],
            "coord": [self.coord.p, self.coord.q],
            "edge": self.edge,
            "value": str(self.value),
        }


@dataclass(frozen=True)
class UnitarityVerdict:
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


def su2_norms(n: int) -> list[Fraction]:
    """Squared norms inside one K-type, anchored at ||v^1||^2 = 1."""
    if n < 1:
        raise InvalidParameter(f"dimension must be >= 1, got {n}")
    return [Fraction(1, math.comb(n - 1, k - 1)) for k in range(1, n + 1)]


def _peak(poly: Poly, hi: Optional[int]) -> Optional[int]:
    """Argmax of a sign polynomial over the integers 0..hi (hi None: every
    x >= 0), the smallest one on a tie; None when the range is empty.

    The polynomial is concave or decreasing, so its maximum sits at the
    floor of the apex or one above it, clamped into the range.
    """
    if hi is not None and hi < 0:
        return None
    a2, a1, _ = poly
    x = max(0, a1 // (-2 * a2)) if a2 else 0
    if hi is not None:
        x = min(x, hi)
    if (hi is None or x < hi) and poly_at(poly, x + 1) > poly_at(poly, x):
        x += 1
    return x


def certificate(params: ModuleParams, region: Region) -> Optional[UnitarityVerdict]:
    """The closed-form unitarity test on the whole, generally infinite,
    region: the failing verdict, or None when the region passes.

    A nonreal c fails at the vertex.  Otherwise, on each upward edge type
    the largest value of the sign polynomial (coefficients.sign_polys) over
    the interior edges must be negative; a zero there makes the support
    reducible.  At a wall the polynomial must vanish, otherwise the region
    is not the support of a constituent.
    """

    def fail(status: str, edge: str, x: int) -> UnitarityVerdict:
        coord = ConeCoord(x, 0) if edge == "up_right" else ConeCoord(0, x)
        value = getattr(products(params, coord), edge)
        return UnitarityVerdict(status, ProductWitness(region.ktype_at(coord), coord, edge, value))

    if isinstance(params, ConeParams) and imag_part(params.c) != 0:
        return fail("nonunitary", "up_right", 0)
    right, left = sign_polys(params)
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
    decides it in closed form, and the finite replay up to max_n must agree
    and yields concrete witnesses below the truncation.  Raises
    InvalidParameter unless 1 <= max_n <= lattice.MAX_N_LIMIT.
    """
    check_max_n(max_n)
    region = checked_region(params, region)
    verdict = certificate(params, region)
    if verdict is not None:
        return verdict

    # Finite replay: every interior product below the truncation must agree
    # with the certificate.  products() returns real values as bare
    # Fractions, so one comparison tests the sign and a GaussianRational
    # (nonreal) always fails.
    p_max, q_max = region.p_max, region.q_max
    for coord in region.coords(max_n):
        prod = products(params, coord)
        for edge, value, inside in (
            ("up_right", prod.up_right, p_max is None or coord.p < p_max),
            ("up_left", prod.up_left, q_max is None or coord.q < q_max),
        ):
            if inside and (isinstance(value, GaussianRational) or value >= 0):
                status = "boundary_reducible" if value == 0 else "nonunitary"
                return UnitarityVerdict(status, ProductWitness(region.ktype_at(coord), coord, edge, value))
    return UnitarityVerdict("unitary")


@dataclass
class NormTable:
    """Squared norms of the lead vectors v_{nm}^1, anchored at the vertex."""

    anchor: KType
    base: dict[KType, Fraction]

    def squared_norm(self, idx: BasisIndex) -> Fraction:
        return self.base[idx.ktype] / math.comb(idx.n - 1, idx.k - 1)

    def to_json(self) -> dict:
        return {
            "anchor": [self.anchor.n, self.anchor.m],
            "base": [
                [[kt.n, kt.m], str(value)]
                for kt, value in sorted(self.base.items())
            ],
        }


def build_norms(mod: TruncatedModule) -> NormTable:
    """Construct the invariant inner product on a unitary truncated module.

    Breadth-first from the vertex, one canonical product per step: the
    squared norm scales by -down^2/product across an up-right edge and by
    -down^2/conj(product) across an up-left one, down = p/n or q/n being
    the downward coefficient at the upper end.  A coordinate reached along
    both edges is computed twice and compared, raising InconsistentGauge on
    a mismatch.  Raises InvalidParameter when a step crosses a zero product
    or gives a nonpositive or nonreal value, which happens exactly when the
    module is not unitary on this support.
    """
    params, region = mod.params, checked_region(mod.params, mod.region)
    values: dict[ConeCoord, Fraction] = {ConeCoord(0, 0): Fraction(1)}
    for coord in region.coords(mod.max_n):
        if coord in values:
            continue
        p, q, n = coord.p, coord.q, region.ktype_at(coord).n
        steps = []
        if p:
            steps.append(("up_right", ConeCoord(p - 1, q), Fraction(p, n)))
        if q:
            steps.append(("up_left", ConeCoord(p, q - 1), Fraction(q, n)))
        candidates = []
        for edge, prev, down in steps:
            if prev not in values:
                continue
            product = getattr(products(params, prev), edge)
            if product == 0:
                raise InvalidParameter(
                    f"{edge} coefficient at {region.ktype_at(prev)} is 0 inside "
                    "the region; the module is not unitary on this support"
                )
            if edge == "up_left":
                product = conjugate(product)
            candidates.append(simplify(-down * down / product * values[prev]))
        if not candidates:
            raise InconsistentGauge(f"no path reaches {coord} inside the region")
        first = candidates[0]
        for other in candidates[1:]:
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


def check_adjoint(mod: TruncatedModule, norms: NormTable):
    """Verify skew-symmetry <C.u, w> + <u, C.w> = 0 for every real-form
    basis element C over all interior pairs, exactly.

    The inner product is diagonal on the basis, so only pairs connected by
    C can fail; iterating over the action targets of interior vectors
    covers them all.
    """
    report = VerificationReport()
    interior = [idx for idx in mod.basis if mod.interior(idx, depth=1)]
    report.skipped_boundary = len(mod.basis) - len(interior)
    sr = scaled_rows(mod)
    nsq = [norms.squared_norm(idx) for idx in sr.labels[: sr.size]]
    n_scale = math.lcm(*{x.denominator for x in nsq})
    nsq = [x.numerator * (n_scale // x.denominator) for x in nsq]
    den = sr.scale * n_scale
    for name, elem in real_form_basis():
        relation = f"adjoint_{name}"
        # image[i][j]: coefficient of labels[j] in (D C) . labels[i]; the
        # coefficients of C are Gaussian units, so the entries stay integral.
        image: list[dict] = [{} for _ in range(sr.size)]
        for gen, c in elem.terms.items():
            cr, ci = int(real_part(c)), int(imag_part(c))
            for i, row in enumerate(sr.rows[gen]):
                _combine(image[i], row, cr, ci)
        linked: list[list] = [[i] for i in range(sr.size)]
        for i, entries in enumerate(image):
            for j, value in entries.items():
                if value != (0, 0) and j < sr.size:
                    linked[i].append(j)
                    linked[j].append(i)
        for u_idx in interior:
            u = sr.index[u_idx]
            for w in sorted(set(linked[u])):
                a, b = image[u].get(w, (0, 0))
                c, e = image[w].get(u, (0, 0))
                re, im = a * nsq[w] + c * nsq[u], b * nsq[w] - e * nsq[u]
                ok = not re and not im
                total = None if ok else _over(re, im, den)
                report.record(ok, relation, (u_idx, sr.labels[w]), total)
    return report
