"""Brute-force certification of a truncated module.

Two layers of checks:

* check_commutators replays every commutation relation of the algebra on
  every interior basis vector of a built module and compares against the
  bracket table, exactly, with no tolerance.  It runs in Python ints on
  builder.action_form at interior depth 2, the integer core it shares with
  unitarity.check_adjoint: the action cleared by D, the lcm of every real
  and imaginary denominator of the rows.  The check becomes
  (DX)(DY)v - (DY)(DX)v - D.(D[X,Y])v = 0 over Gaussian integer pairs; the
  bracket table has integer coefficients, so every term stays integral,
  and a failure reports its residual divided back by D^2.  Each term is
  one list over all interior vectors: the field of Y at offset d1 times
  that of X at offset d2, read at v + d1 (the field's shift list), lands
  at v + d1 + d2.  The bracket term and the row of Z are
  ActionForm.image lists.

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
from operator import mul
from typing import Optional

from . import coefficients
from .algebra import INDEPENDENT, Generator, generator_brackets
from .builder import BasisIndex, TruncatedModule, action_form, checked_region
from .coefficients import ModuleParams, _over
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


def _discrepancies(sums: dict, labels, den: int) -> dict:
    """The positions u at which a replay fails, with their discrepancies as
    text: sums maps each label offset to lists (re, im), im None being 0,
    of den times the coefficient of labels[u] + offset, which must be 0."""
    if not any(any(re) or im and any(im) for re, im in sums.values()):
        return {}
    terms: dict = {}
    for (dn, dm, dk), (re, im) in sums.items():
        for u, (x, y) in enumerate(zip(re, im or [0] * len(re))):
            if x or y:
                n, m, k = labels[u]
                terms.setdefault(u, []).append((BasisIndex(n + dn, m + dm, k + dk), x, y))
    return {u: " + ".join(f"{_over(x, y, den)}*v{tuple(label)}" for label, x, y in sorted(entries))
            for u, entries in terms.items()}


def check_commutators(mod: TruncatedModule) -> VerificationReport:
    """Replay [x, y].v = x.(y.v) - y.(x.v) for all independent generator
    pairs and all interior basis vectors, plus the definitional row of Z."""
    d, labels, count, fields, shifts = form = action_form(mod, depth=2)
    report = VerificationReport(skipped_boundary=len(mod.basis) - count)
    # The first steps: each field cut to the interior, with either sign.
    steps = {sign: {gen: [(d1, shifts[d1][:count],
                           *(z and [sign * w for w in z[:count]] for z in field))
                          for d1, field in fields[gen].items()] for gen in INDEPENDENT}
             for sign in (1, -1)}
    pairs = list(combinations(INDEPENDENT, 2))
    failures = []
    for pair, (x, y) in enumerate(pairs):
        # acc[offset]: the parts of (Dx)(Dy)v - (Dy)(Dx)v - D(D[x, y])v at
        # v + offset, for every interior v, starting from the bracket term.
        bracket = {g: (-c * d, 0) for g, c in generator_brackets()[(x, y)].items()}
        acc = {delta: ([re], [im] if im else [])
               for delta, (re, im) in form.image(bracket, count).items()}
        for outer, inner, sign in ((x, y, 1), (y, x, -1)):
            for d1, shift, a, b in steps[sign][inner]:
                for d2, (c, e) in fields[outer].items():
                    re, im = acc.setdefault((d1[0] + d2[0], d1[1] + d2[1], d1[2] + d2[2]), ([], []))
                    c, e = list(map(c.__getitem__, shift)), e and list(map(e.__getitem__, shift))
                    # (a + b i)(c + e i), an imaginary list that is None being 0
                    re.append(list(map(mul, a, c)))
                    im += [list(map(mul, z, w)) for z, w in ((b, c), (a, e)) if z and w]
                    if b and e:
                        re.append([-p * q for p, q in zip(b, e)])
        sums = {delta: (list(map(sum, zip(*re))), im and list(map(sum, zip(*im))))
                for delta, (re, im) in acc.items()}
        relation = f"commutator[{x.value},{y.value}]"
        failures += [(u, pair, relation, text)
                     for u, text in _discrepancies(sums, labels, d * d).items()]
    report.checked += count * len(pairs)
    report.failures += [Failure(r, (labels[u],), text) for u, _, r, text in sorted(failures)]
    # Z is dependent: its stored row must equal H_alpha + 2 H_beta.
    grading = {Generator.Z: (1, 0), Generator.H_ALPHA: (-1, 0), Generator.H_BETA: (-2, 0)}
    grading = _discrepancies(form.image(grading, len(labels)), labels, d)
    for u, idx in enumerate(labels):
        report.record(u not in grading, "center_grading", (idx,), grading.get(u))
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
