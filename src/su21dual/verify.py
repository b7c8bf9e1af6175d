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
  coefficient tables, without building a module: one transition_coeffs
  and one products call per coordinate fill two tables that every
  identity reads.  The relation names encode what each identity asserts:

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
from .builder import TruncatedModule, checked_region, scaled_rows
from .coefficients import ModuleParams, products, transition_coeffs
from .errors import InvalidBasisIndex
from .lattice import ConeCoord, Region
from .scalars import GaussianRational


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


def check_coefficient_relations(
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
