"""Brute-force certification of a truncated module.

Two layers of checks:

* check_commutators replays every commutation relation of the algebra on
  every interior basis vector of a built module and compares against the
  bracket table, exactly.  Any nonzero discrepancy is a hard failure; there
  is no tolerance because there are no rounding errors.  The replay runs
  in Python ints: builder.scaled_rows clears the denominators of each
  distinct value object of the module once, with D the lcm of every real
  and imaginary denominator of the stored rows, and the check becomes
  (DX)(DY)v - (DY)(DX)v - D.(D[X,Y])v = 0 over Gaussian integer pairs.
  The bracket table has integer coefficients, so every term stays
  integral, and scaling by the nonzero D^2 neither creates nor hides a
  discrepancy; a failure reports its residual divided back by D^2.  The
  composed rows are summed in place, one loop per row, into one dict per
  vector and relation.

* check_coefficient_relations evaluates the balance equations, boundary
  vanishing and the four two-step path identities directly on the
  coefficient table, without building a module, also in Python ints.  One
  coefficients._ups call per coordinate gives the upward coefficients as
  (right + im i)/D and (left + im i)/D over one denominator D, the same at
  every coordinate (d for a cone with c = (a + b i)/d, 2 for W(r, s)); the
  downward ones are q/n and p/n.  The products are then
  (p+1)(right + im i)/(D(n+1)) and (q+1)(left + im i)/(D(n+1)), and each
  identity is multiplied through by its known denominator and compared as
  a pair of Gaussian integers: Dn(n+1) for balance_first/last,
  2Dn(n+1)(n-1) for balance_interior, Dn(n+1)(n-1) for balance_blend, D^2
  for two_step_up, D for two_step_right/left, n(n-1) for two_step_down and
  D(n+1) or n for boundary vanishing.  Only a failed check builds its discrepancy, the
  value of the original rational identity (coefficients._over), typed as
  the Fraction and GaussianRational arithmetic of the Fraction oracle in
  the tests types it.  The relation names encode what each identity
  asserts:

    balance_first / balance_last    the two vertex balance equations
    balance_interior                the k-interpolated balance equation
    balance_blend                   interior = convex blend of first/last
    boundary_zero_*                 products vanish across support walls
    two_step_up/down/right/left     the two paths to a distance-2 K-type
                                    carry identical coefficient data

Three of them hold for every table _ups could give, so the gauge, not the
table, makes them true: two_step_down and boundary_zero_down_* read only
the downward coefficients q/n and p/n, and balance_blend holds because
balance_interior is linear in k and equals balance_first at k = 1 and
balance_last at k = n.  They still count in `checked`, which therefore
overstates how many checks a wrong table could fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from . import coefficients
from .algebra import INDEPENDENT, GENERATOR_BRACKETS, Generator
from .builder import TruncatedModule, checked_region, scaled_rows
from .coefficients import ModuleParams, _over
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
    None when every entry vanishes, found before any list is sorted."""
    if list(acc.values()).count((0, 0)) == len(acc):
        return None
    nonzero = sorted((labels[j], v) for j, v in acc.items() if v != (0, 0))
    return " + ".join(
        f"{_over(re, im, den)}*v{tuple(label)}"
        for label, (re, im) in nonzero
    )


def _combine(acc: dict, row, re: int, im: int):
    """acc += (re + im i) * row, for a row of entries (j, a, b) = a + b i at j."""
    for j, a, b in row:
        x, y = re * a - im * b, re * b + im * a
        old = acc.get(j)
        acc[j] = (x, y) if old is None else (old[0] + x, old[1] + y)


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
            # acc = (Dx)(Dy)v - (Dy)(Dx)v - D(D[x, y])v, summed in place.
            acc: dict = {}
            get = acc.get
            for outer, inner, s in ((rx, ry, 1), (ry, rx, -1)):
                for j, a, b in inner[u]:
                    re, im = s * a, s * b
                    for t, c, e in outer[j]:
                        x, y = re * c - im * e, re * e + im * c
                        old = get(t)
                        acc[t] = (x, y) if old is None else (old[0] + x, old[1] + y)
            for rg, c in bracket_rows:
                for t, a, b in rg[u]:
                    old = get(t)
                    acc[t] = (-c * a, -c * b) if old is None else (old[0] - c * a, old[1] - c * b)
            disc = _discrepancy(acc, labels, d * d)
            report.record(disc is None, relation, (idx,), disc)
    # Z is dependent: its stored row must equal H_alpha + 2 H_beta.
    z_terms = ((Generator.Z, 1), (Generator.H_ALPHA, -1), (Generator.H_BETA, -2))
    for idx in mod.basis:
        acc = {}
        for gen, c in z_terms:
            _combine(acc, rows[gen][sr.index[idx]], c, 0)
        disc = _discrepancy(acc, labels, d)
        report.record(disc is None, "center_grading", (idx,), disc)
    return report


def _disc(re: int, im: int, den: int, *parts: int) -> Scalar:
    """The discrepancy (re + im i)/den of a failed check, typed as Fraction
    arithmetic on the coefficients types it: a GaussianRational whenever one
    of the combined terms is nonreal, i.e. one of their imaginary numerators
    (parts) is nonzero, even if the imaginary parts cancel."""
    value = _over(re, im, den)
    return GaussianRational(value) if any(parts) and im == 0 else value


def _vanishes(report: VerificationReport, relation: str, where: tuple,
              re: int, im: int, den: int, *parts: int):
    """Record the check (re + im i)/den == 0, with that value (_disc) as
    the discrepancy when it fails."""
    ok = re == 0 and im == 0
    report.record(ok, relation, where, None if ok else _disc(re, im, den, *parts))


def check_coefficient_relations(
    params: ModuleParams,
    max_n: int,
    region: Optional[Region] = None,
) -> VerificationReport:
    """Evaluate the balance and path identities on the coefficient table."""
    region = checked_region(params, region)
    report = VerificationReport()
    coords = list(region.coords(max_n))
    # The coefficient table over the one denominator D that _ups gives at
    # every coordinate (d for a cone, 2 for W(r, s)): at (p, q) the upward
    # coefficients are (right + im i)/D and (left + im i)/D and the downward
    # ones down_right/n and down_left/n, with down_right = q, down_left = p.
    table = {}
    for c in coords:
        right, left, im, den = coefficients._ups(params, c.p, c.q)
        table[c.p, c.q] = (right, left, im, c.q, c.p)
    zero = (0, 0, 0, 0, 0)

    for coord in coords:
        p, q = coord.p, coord.q
        kt = region.ktype_at(coord)
        n, m = kt.n, kt.m
        right, left, im, dr, dl = table[p, q]
        ne_in = region.contains_coord(ConeCoord(p + 1, q))
        nw_in = region.contains_coord(ConeCoord(p, q + 1))
        # Products as Gaussian integers, as in coefficients.products:
        # up_right = (a + a_im i)/(D(n+1)) and up_left = (b + b_im i)/(D(n+1))
        # at (p, q); below_right = (c + c_im i)/(Dn), the up-left product at
        # (p, q-1), and below_left = (e + e_im i)/(Dn), the up-right product
        # at (p-1, q), each met by a downward coefficient at (p, q).  A
        # product across a support wall or below the cone is 0.
        up_right = ((p + 1) * right, (p + 1) * im)
        up_left = ((q + 1) * left, (q + 1) * im)
        a, a_im = up_right if ne_in else (0, 0)
        b, b_im = up_left if nw_in else (0, 0)
        right_b, left_b, im_b, _, dl_b = table[p, q - 1] if q >= 1 else zero
        c, c_im = dr * left_b, dr * im_b
        right_l, left_l, im_l, dr_l, _ = table[p - 1, q] if p >= 1 else zero
        e, e_im = dl * right_l, dl * im_l

        # Boundary vanishing: a product whose far endpoint is not a K-type
        # of the support must be zero.
        if not ne_in:
            _vanishes(report, "boundary_zero_up_right", (kt,), *up_right, den * (n + 1))
        if not nw_in:
            _vanishes(report, "boundary_zero_up_left", (kt,), *up_left, den * (n + 1))
        # Downward boundary products vanish through the gauge itself.
        if q == 0:
            _vanishes(report, "boundary_zero_down_right", (kt,), dr, 0, n)
        if p == 0:
            _vanishes(report, "boundary_zero_down_left", (kt,), dl, 0, n)

        # The balance equations times M = Dn(n+1): first = F/M, last = L/M.
        big = den * n * (n + 1)
        f_re, f_im = -a + n * b - (n + 1) * c, -a_im + n * b_im - (n + 1) * c_im
        ok = 2 * f_re == (m - n + 1) * big and f_im == 0
        report.record(ok, "balance_first", (kt,),
                      None if ok else _disc(f_re, f_im, big, a_im, b_im, c_im))
        l_re, l_im = -n * a + b + (n + 1) * e, -n * a_im + b_im + (n + 1) * e_im
        ok = 2 * l_re == (m + n - 1) * big and l_im == 0
        report.record(ok, "balance_last", (kt,),
                      None if ok else _disc(l_re, l_im, big, a_im, b_im, e_im))
        if n > 1:
            # interior = I/(M(n-1)) and blend = ((n-k)F + (k-1)L)/(M(n-1)).
            parts = (a_im, b_im, c_im, e_im)
            for k in range(1, n + 1):
                i_re = ((n - 1) * ((n + 1 - k) * b - k * a)
                        + (n + 1) * ((k - 1) * e - (n - k) * c))
                i_im = ((n - 1) * ((n + 1 - k) * b_im - k * a_im)
                        + (n + 1) * ((k - 1) * e_im - (n - k) * c_im))
                d_re = 2 * i_re - (m - n - 1 + 2 * k) * big * (n - 1)
                _vanishes(report, "balance_interior", (kt, k),
                          d_re, 2 * i_im, 2 * big * (n - 1), *parts)
                d_re = i_re - (n - k) * f_re - (k - 1) * l_re
                d_im = i_im - (n - k) * f_im - (k - 1) * l_im
                _vanishes(report, "balance_blend", (kt, k), d_re, d_im, big * (n - 1), *parts)

        # Two-step path identities, checked where both paths stay in the
        # support and below the truncation.  In the sideways ones the factor
        # n+1 cancels the denominator of the downward coefficient at the
        # K-type above and the factor n that of the one here, so both sides
        # are Gaussian integers over D.
        if n + 1 <= max_n and ne_in and nw_in:
            right_nw, _, im_nw, _, dl_nw = table[p, q + 1]
            _, left_ne, im_ne, dr_ne, _ = table[p + 1, q]
            d_re = (left * right_nw - im * im_nw) - (right * left_ne - im * im_ne)
            d_im = (left * im_nw + im * right_nw) - (right * im_ne + im * left_ne)
            _vanishes(report, "two_step_up", (kt,), d_re, d_im, den * den, im, im_nw, im_ne)
            d_re, d_im = dr_ne * right - dr * right_b, dr_ne * im - dr * im_b
            _vanishes(report, "two_step_right", (kt,), d_re, d_im, den, im, c_im)
            d_re, d_im = dl_nw * left - dl * left_l, dl_nw * im - dl * im_l
            _vanishes(report, "two_step_left", (kt,), d_re, d_im, den, im, e_im)
        if p >= 1 and q >= 1:
            # Both sides over n(n-1).
            _vanishes(report, "two_step_down", (kt,), dl * dr_l - dr * dl_b, 0, n * (n - 1))
    return report
