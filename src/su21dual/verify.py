"""Brute-force certification of a truncated module.

Two layers of checks:

* check_commutators replays every commutation relation of the algebra on
  every interior basis vector of a built module and compares against the
  bracket table, exactly.  Any nonzero discrepancy is a hard failure; there
  is no tolerance because there are no rounding errors.  The replay runs
  in Python ints: builder.scaled_rows clears denominators once, with D the
  lcm of every real and imaginary denominator of the stored rows, and the
  check becomes (DX)(DY)v - (DY)(DX)v - D.(D[X,Y])v = 0 over Gaussian
  integer pairs.  The bracket table has integer coefficients, so every term
  stays integral, and scaling by the nonzero D^2 neither creates nor hides a
  discrepancy; a failure reports its residual divided back by D^2.

* check_coefficient_relations evaluates the balance equations, boundary
  vanishing and the four two-step path identities directly on the
  coefficient tables, without building a module.  The relation names encode
  what each identity asserts:

    balance_first / balance_last    the two vertex balance equations
    balance_interior                the k-interpolated balance equation
    balance_blend                   interior = convex blend of first/last
    boundary_zero_*                 products vanish across support walls
    two_step_up/down/right/left     the two paths to a distance-2 K-type
                                    carry identical coefficient data
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .algebra import INDEPENDENT, GENERATOR_BRACKETS, Generator
from .builder import TruncatedModule, scaled_rows, support_of
from .coefficients import ModuleParams, products, transition_coeffs
from .errors import InvalidBasisIndex
from .lattice import ConeCoord, Region
from .scalars import GaussianRational, Scalar


@dataclass
class Failure:
    relation: str
    where: tuple
    discrepancy: object

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "where": [list(w) if isinstance(w, tuple) else str(w) for w in self.where],
            "discrepancy": str(self.discrepancy),
        }


@dataclass
class VerificationReport:
    checked: int = 0
    failures: list[Failure] = field(default_factory=list)
    skipped_boundary: int = 0

    @property
    def verified(self) -> bool:
        return not self.failures

    def record(self, ok: bool, relation: str, where: tuple, discrepancy=None):
        self.checked += 1
        if not ok:
            self.failures.append(Failure(relation, where, discrepancy))

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(
            self.checked + other.checked,
            self.failures + other.failures,
            self.skipped_boundary + other.skipped_boundary,
        )

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "verified": self.verified,
            "skipped_boundary": self.skipped_boundary,
            "failures": [f.to_json() for f in self.failures],
        }


def _discrepancy(acc: dict, labels, den: int) -> Optional[str]:
    """The nonzero entries of an integer vector divided by den, as text;
    None when every entry vanishes."""
    nonzero = sorted((labels[j], v) for j, v in acc.items() if v != (0, 0))
    if not nonzero:
        return None
    return " + ".join(
        f"{GaussianRational(Fraction(re, den), Fraction(im, den))}*v{tuple(label)}"
        for label, (re, im) in nonzero
    )


def _add(acc: dict, j: int, re: int, im: int):
    old = acc.get(j)
    acc[j] = (re, im) if old is None else (old[0] + re, old[1] + im)


def check_commutators(mod: TruncatedModule) -> VerificationReport:
    """Replay [x, y].v = x.(y.v) - y.(x.v) for all independent generator
    pairs and all interior basis vectors, plus the definitional row of Z."""
    report = VerificationReport()
    sr = scaled_rows(mod)
    d, rows, labels = sr.scale, sr.rows, sr.labels
    pairs = [
        (rows[x], rows[y], f"commutator[{x.value},{y.value}]",
         [(rows[g], c * d) for g, c in GENERATOR_BRACKETS[(x, y)].items()])
        for x, y in combinations(INDEPENDENT, 2)
    ]
    interior = [idx for idx in mod.basis if mod.interior(idx, depth=2)]
    report.skipped_boundary = len(mod.basis) - len(interior)
    for idx in interior:
        u = sr.index[idx]
        for gen in INDEPENDENT:
            for j, _, _ in rows[gen][u]:
                if j >= sr.size:
                    raise InvalidBasisIndex(f"{labels[j]} is not a basis index of this module")
        for rx, ry, relation, bracket_rows in pairs:
            acc: dict = {}
            for outer, inner, s in ((rx, ry, 1), (ry, rx, -1)):
                for j, a, b in inner[u]:
                    for k, c, e in outer[j]:
                        _add(acc, k, s * (a * c - b * e), s * (a * e + b * c))
            for rg, c in bracket_rows:
                for k, a, b in rg[u]:
                    _add(acc, k, -c * a, -c * b)
            disc = _discrepancy(acc, labels, d * d)
            report.record(disc is None, relation, (idx,), disc)
    # Z is dependent: its stored row must equal H_alpha + 2 H_beta.
    z_terms = ((Generator.Z, 1), (Generator.H_ALPHA, -1), (Generator.H_BETA, -2))
    for idx in mod.basis:
        acc = {}
        for gen, c in z_terms:
            for k, a, b in rows[gen][sr.index[idx]]:
                _add(acc, k, c * a, c * b)
        disc = _discrepancy(acc, labels, d)
        report.record(disc is None, "center_grading", (idx,), disc)
    return report


def _edge_product(params, region: Region, coord: ConeCoord, direction: str) -> Scalar:
    """Canonical product on an edge, zero when it crosses the support wall."""
    if direction == "up_right":
        inside = region.contains_coord(ConeCoord(coord.p + 1, coord.q))
        value = products(params, coord).up_right
    else:
        inside = region.contains_coord(ConeCoord(coord.p, coord.q + 1))
        value = products(params, coord).up_left
    return value if inside else 0


def check_coefficient_relations(
    params: ModuleParams,
    max_n: int,
    region: Optional[Region] = None,
) -> VerificationReport:
    """Evaluate the balance and path identities on the coefficient table."""
    if region is None:
        region = support_of(params)
    report = VerificationReport()
    by_coord = {}
    for coord in region.coords(max_n):
        by_coord[coord] = region.ktype_at(coord)

    for coord, kt in by_coord.items():
        n, m = kt.n, kt.m
        tc = transition_coeffs(params, kt)
        prod = products(params, coord)

        # Boundary vanishing: a product whose far endpoint is not a K-type
        # of the support must be zero.
        for direction, value in (("up_right", prod.up_right), ("up_left", prod.up_left)):
            step = (coord.p + 1, coord.q) if direction == "up_right" else (coord.p, coord.q + 1)
            if not region.contains_coord(ConeCoord(*step)):
                report.record(
                    value == 0,
                    f"boundary_zero_{direction}",
                    (kt,),
                    value,
                )
        # Downward boundary products vanish through the gauge itself.
        for direction, value in (("down_right", tc.down_right), ("down_left", tc.down_left)):
            delta = (coord.p, coord.q - 1) if direction == "down_right" else (coord.p - 1, coord.q)
            if delta[0] < 0 or delta[1] < 0 or not region.contains_coord(ConeCoord(*delta)):
                report.record(value == 0, f"boundary_zero_{direction}", (kt,), value)

        below_right = (
            products(params, ConeCoord(coord.p, coord.q - 1)).up_left if coord.q >= 1 else 0
        )
        below_left = (
            products(params, ConeCoord(coord.p - 1, coord.q)).up_right if coord.p >= 1 else 0
        )
        up_right = _edge_product(params, region, coord, "up_right")
        up_left = _edge_product(params, region, coord, "up_left")

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
        ne = ConeCoord(coord.p + 1, coord.q)
        nw = ConeCoord(coord.p, coord.q + 1)
        if n + 1 <= max_n and region.contains_coord(ne) and region.contains_coord(nw):
            tc_ne = transition_coeffs(params, region.ktype_at(ne))
            tc_nw = transition_coeffs(params, region.ktype_at(nw))
            lhs = tc.up_left * tc_nw.up_right
            rhs = tc.up_right * tc_ne.up_left
            report.record(lhs == rhs, "two_step_up", (kt,), lhs - rhs)
            lhs = (n + 1) * tc.up_right * tc_ne.down_right
            if coord.q >= 1:
                se_up_right = transition_coeffs(
                    params, region.ktype_at(ConeCoord(coord.p, coord.q - 1))
                ).up_right
                rhs = n * tc.down_right * se_up_right
                report.record(lhs == rhs, "two_step_right", (kt,), lhs - rhs)
            else:
                report.record(lhs == 0, "two_step_right", (kt,), lhs)
            lhs = (n + 1) * tc.up_left * tc_nw.down_left
            if coord.p >= 1:
                sw_up_left = transition_coeffs(
                    params, region.ktype_at(ConeCoord(coord.p - 1, coord.q))
                ).up_left
                rhs = n * tc.down_left * sw_up_left
                report.record(lhs == rhs, "two_step_left", (kt,), lhs - rhs)
            else:
                report.record(lhs == 0, "two_step_left", (kt,), lhs)
        if coord.p >= 1 and coord.q >= 1:
            se = ConeCoord(coord.p, coord.q - 1)
            sw = ConeCoord(coord.p - 1, coord.q)
            tc_se = transition_coeffs(params, region.ktype_at(se))
            tc_sw = transition_coeffs(params, region.ktype_at(sw))
            lhs = tc.down_left * tc_sw.down_right
            rhs = tc.down_right * tc_se.down_left
            report.record(lhs == rhs, "two_step_down", (kt,), lhs - rhs)
    return report
