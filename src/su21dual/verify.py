"""Brute-force certification of a truncated module, in Python ints.

* check_commutators and adjoint.check_adjoint replay a built module from
  its fields, the action over D, the lcm of the reduced denominators of
  its entries, on its interior at depth 2 and 1; _action_form gives the
  shift list and the itemgetter of each label offset over the interior.
  _replay checks all 28 pairs at every interior vector, exactly, as
  (DX)(DY)v - (DY)(DX)v - D.(D[X,Y])v = 0 over Gaussian integer pairs, a
  failure reporting its residual over D^2: the field of Y at offset d1
  times that of X at d2, gathered at v + d1, lands at v + d1 + d2, and the
  bracket term takes |c| copies of D times a field for its integer
  coefficient c.  The row of Z is checked as a _combine of fields.

  tests/test_family_certificate.py proves that build's table satisfies
  every relation, for every parameter of both families, outside a few
  cells next to the lowest K-type.  So the one premise of
  check_commutators is a module equal in scale, basis and fields to
  build(params, max_n, region): above vertex.n + REPLAYED_DEPTH it replays
  only build(params, vertex.n + REPLAYED_DEPTH, region), whose interior,
  the K-types with p + q <= 2, holds those cells, and reports the counts
  of the whole module with that replay's failures.  Any other module is
  replayed in full.

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
  D(n+1) or n for boundary vanishing.  Only a failed check builds its
  discrepancy, the value of the original rational identity
  (coefficients._over).  balance_interior's numerator I is (n-k)F + (k-1)L,
  F and L balance_first's and balance_last's, and its target their blend,
  so its checks and balance_blend's are evaluated only where one of those
  fails.  The relation names encode what each identity asserts:

    balance_first / balance_last    the two vertex balance equations
    balance_interior                the k-interpolated balance equation
    balance_blend                   interior = convex blend of first/last
    boundary_zero_*                 products vanish across support walls
    two_step_up/down/right/left     the two paths to a distance-2 K-type
                                    carry identical coefficient data

Three of them hold for every table _ups could give, so the gauge, not the
table, makes them true: two_step_down and boundary_zero_down_* read only
the downward coefficients q/n and p/n, and balance_blend is I minus its
own blend.  balance_blend and balance_interior are evaluated only where
balance_first or balance_last fails, and check_commutators evaluates only
the replayed layers of a built module, yet all of these count in
`checked`, which so overstates how many checks a wrong table or module
could fail.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial, reduce
from itertools import combinations, compress, repeat
from operator import add, itemgetter, mul, sub
from typing import NamedTuple, Optional

from . import coefficients
from .algebra import INDEPENDENT, Generator, generator_brackets
from .builder import BasisIndex, TruncatedModule, _check_truncation, build
from .coefficients import ModuleParams, _over, checked_region
from .errors import InvalidBasisIndex, Su21Error
from .lattice import ConeCoord, Region


PAIRS = list(combinations(INDEPENDENT, 2))


class Failure(NamedTuple):
    relation: str
    where: tuple
    discrepancy: object

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "where": [list(w) if isinstance(w, BasisIndex) else str(w) for w in self.where],
            "discrepancy": str(self.discrepancy),
        }


class VerificationReport:
    def __init__(self, checked: int = 0, failures: Optional[list[Failure]] = None,
                 skipped_boundary: int = 0):
        self.checked = checked
        self.failures = [] if failures is None else failures
        self.skipped_boundary = skipped_boundary

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


# The dimensions above its lowest K-type to which check_commutators replays a
# module build makes (module docstring).
REPLAYED_DEPTH = 4


def _interior_count(mod: TruncatedModule, depth: int) -> int:
    """The count of the interior vectors of the given depth, the first in
    the sorted basis."""
    return bisect_left(mod.basis, True, key=lambda idx: not mod.interior(idx, depth))


def _action_form(mod: TruncatedModule, depth: int, offsets: set) -> tuple[int, dict, dict]:
    """The count of the interior vectors of the given depth and for each of
    offsets the shift list, mapping each interior position u to the
    position of basis[u] + delta, or to len(basis), the zero, when that is
    not a basis index, and the gather reading a list there as a tuple.
    Raises InvalidBasisIndex when a nonzero step of an independent
    generator from an interior vector leaves the basis."""
    labels, size = mod.basis, len(mod.basis)
    count = _interior_count(mod, depth)
    # The basis is laid out in K-type blocks sorted by (n, m), each holding
    # k = 1..n from its start, so a shift maps a block to a range in its
    # target block, padded with the zero at the a first and e last k, where
    # k + dk leaves 1..n + dn (a + e <= 1).  The interior is a prefix of whole blocks.
    starts = {(n, m): u for u, (n, m, k) in enumerate(labels) if k == 1}
    interior = [(n, m, u) for (n, m), u in starts.items() if u < count]
    firsts, lasts = [u for _, _, u in interior], [u + n - 1 for n, _, u in interior]
    pads = {(dn, dm, dk): [*firsts * (dk < 0), *lasts * (dk > dn), *[
        x for n, m, u in interior if (n + dn, m + dm) not in starts for x in range(u, u + n)]]
        for dn, dm, dk in {delta for gen in INDEPENDENT for delta in mod.fields[gen]}}
    bad = [(u, delta) for gen in INDEPENDENT for delta, field in mod.fields[gen].items()
           for z in field if z for u in compress(pads[delta], map(z.__getitem__, pads[delta]))]
    if bad:
        u, (dn, dm, dk) = min(bad)
        n, m, k = labels[u]
        raise InvalidBasisIndex(
            f"{BasisIndex(n + dn, m + dm, k + dk)} is not a basis index of this module")
    shifts = {}
    for dn, dm, dk in offsets:
        a, e = max(0, -dk), max(0, dk - dn)
        head, tail, shift = [size] * a, [size] * e, []
        for n, m, u in interior:
            w = starts.get((n + dn, m + dm))
            shift += [size] * n if w is None else [*head, *range(w + a + dk, w + n - e + dk), *tail]
        shifts[dn, dm, dk] = shift
    # itemgetter returns a bare item for one position and raises for none.
    gathers = {delta: itemgetter(*s) if len(s) > 1 else lambda z, s=s: tuple(map(z.__getitem__, s))
               for delta, s in shifts.items()}
    return count, shifts, gathers


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


def _total(plus: list, minus: list, count: int) -> Optional[list]:
    """sum(plus) - sum(minus), entry by entry, for lists of iterables over
    count positions; None, standing for 0, when both are empty."""
    if plus or minus:
        total = reduce(partial(map, add), plus or [repeat(0, count)])
        return list(reduce(partial(map, sub), minus, total))


def _combine(terms, count: int) -> list:
    """sum c z over the items (c, z, s) of terms, c = (cr, ci) a Gaussian
    integer and z = (x, y) lists standing for x + y i, a list None being 0,
    the product conjugated when s is -1: lists [re, im], None for 0."""
    sums: list = [[], [], [], []]
    for (cr, ci), (x, y), s in terms:
        # (cr + ci i)(x + y i) = (cr x - ci y) + (ci x + cr y) i, as |c| copies of z.
        for part, c, z in ((0, cr, x), (0, -ci, y), (2, s * ci, x), (2, s * cr, y)):
            if c and z:
                sums[part + (c < 0)] += [z] * abs(c)
    return [_total(sums[0], sums[1], count), _total(sums[2], sums[3], count)]


def _replay(mod: TruncatedModule) -> VerificationReport:
    """Replay [x, y].v = x.(y.v) - y.(x.v) for all pairs and all interior
    basis vectors, plus the definitional row of Z."""
    d, labels, fields = mod.scale, mod.basis, mod.fields
    offsets = {(0, 0, 0)} | {delta for gen in INDEPENDENT for delta in fields[gen]}
    brackets = generator_brackets()
    count, _, gathers = _action_form(mod, 2, offsets)
    # The fields at the interior for the first step, and times D for the bracket.
    cut = {gen: {delta: (re[:count], im and im[:count]) for delta, (re, im) in fields[gen].items()}
           for gen in INDEPENDENT}
    scaled = {gen: {delta: [z and [d * x for x in z] for z in field] for delta, field in at.items()}
              for gen, at in cut.items()}
    failures = []
    for pair, (x, y) in enumerate(PAIRS):
        # sides[offset]: the terms of (Dx)(Dy)v - (Dy)(Dx)v - D(D[x, y])v at v +
        # offset, added and subtracted real parts, then imaginary parts.
        sides: dict = {}
        for g, c in brackets[x, y].items():
            for delta, (re, im) in scaled[g].items():
                side = sides.setdefault(delta, [[], [], [], []])
                side[c > 0] += [re] * abs(c)
                side[2 + (c > 0)] += [im] * abs(c) if im else []
        for outer, inner, s in ((x, y, 0), (y, x, 1)):
            for d1, (a, b) in cut[inner].items():
                gather = gathers[d1]
                for d2, (c, e) in fields[outer].items():
                    c, e = gather(c), e and gather(e)
                    side = sides.setdefault(tuple(map(add, d1, d2)), [[], [], [], []])
                    # (a + b i)(c + e i), an imaginary list that is None being 0
                    side[s].append(map(mul, a, c))
                    side[1 - s] += [map(mul, b, e)] if b and e else []
                    side[2 + s] += [map(mul, z, w) for z, w in ((b, c), (a, e)) if z and w]
        sums = {delta: (_total(rp, rm, count), _total(ip, im, count))
                for delta, (rp, rm, ip, im) in sides.items()}
        failures += [(u, pair, f"commutator[{x},{y}]", text)
                     for u, text in _discrepancies(sums, labels, d * d).items()]
    failures = [Failure(r, (labels[u],), text) for u, _, r, text in sorted(failures)]
    # Z is dependent: its stored row must equal H_alpha + 2 H_beta.
    grading = {Generator.Z: (1, 0), Generator.H_ALPHA: (-1, 0), Generator.H_BETA: (-2, 0)}
    grading = _discrepancies({delta: _combine([(c, fields[gen][delta], 1) for gen, c in grading.items()
                                               if delta in fields[gen]], len(labels))
                              for delta in set().union(*map(fields.get, grading))}, labels, d)
    failures += [Failure("center_grading", (labels[u],), grading[u]) for u in sorted(grading)]
    return VerificationReport(count * len(PAIRS) + len(labels), failures, len(labels) - count)


def _built(mod: TruncatedModule) -> bool:
    """True when mod is, in scale, basis and fields, the module build makes
    of its params, max_n and region."""
    try:
        built = build(mod.params, mod.max_n, mod.region)
    except Su21Error:
        return False
    return built.scale == mod.scale and built.basis == mod.basis and built.fields == mod.fields


def check_commutators(mod: TruncatedModule) -> VerificationReport:
    """The commutator report of mod: for a module build makes above
    vertex.n + REPLAYED_DEPTH, the replay of its lowest layers with the
    counts of the whole module, and otherwise _replay of mod (module
    docstring)."""
    low = mod.region.vertex.n + REPLAYED_DEPTH
    if mod.max_n <= low or not _built(mod):
        return _replay(mod)
    count, size = _interior_count(mod, 2), len(mod.basis)
    failures = _replay(build(mod.params, low, mod.region)).failures
    return VerificationReport(count * len(PAIRS) + size, failures, size - count)


def _vanishes(report: VerificationReport, relation: str, where: tuple, re: int, im: int, den: int):
    """Record the check (re + im i)/den == 0, with that value as the
    discrepancy when it fails."""
    ok = re == 0 and im == 0
    report.record(ok, relation, where, None if ok else _over(re, im, den))


def check_coefficient_relations(
    params: ModuleParams,
    max_n: int,
    region: Optional[Region] = None,
) -> VerificationReport:
    """Evaluate the balance and path identities on the coefficient table.
    Raises what build raises for the region and max_n."""
    region = checked_region(params, region)
    _check_truncation(region, max_n)
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
        # product across a support wall is 0.  At q = 0 (p = 0) every read of
        # the row below (to the left) meets dr = 0 (dl = 0) or sits under
        # p, q >= 1, so the row at (p, q) stands in for the missing one.
        up_right = ((p + 1) * right, (p + 1) * im)
        up_left = ((q + 1) * left, (q + 1) * im)
        a, a_im = up_right if ne_in else (0, 0)
        b, b_im = up_left if nw_in else (0, 0)
        right_b, left_b, im_b, _, dl_b = table[p, q - 1] if q else table[p, q]
        c, c_im = dr * left_b, dr * im_b
        right_l, left_l, im_l, dr_l, _ = table[p - 1, q] if p else table[p, q]
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
        first = 2 * f_re == (m - n + 1) * big and f_im == 0
        report.record(first, "balance_first", (kt,), None if first else _over(f_re, f_im, big))
        l_re, l_im = -n * a + b + (n + 1) * e, -n * a_im + b_im + (n + 1) * e_im
        last = 2 * l_re == (m + n - 1) * big and l_im == 0
        report.record(last, "balance_last", (kt,), None if last else _over(l_re, l_im, big))
        if n > 1 and first and last:
            report.checked += 2 * n  # the k-family holds: see the module docstring
        elif n > 1:
            # interior = I/(M(n-1)) and blend = ((n-k)F + (k-1)L)/(M(n-1)).
            for k in range(1, n + 1):
                i_re = ((n - 1) * ((n + 1 - k) * b - k * a)
                        + (n + 1) * ((k - 1) * e - (n - k) * c))
                i_im = ((n - 1) * ((n + 1 - k) * b_im - k * a_im)
                        + (n + 1) * ((k - 1) * e_im - (n - k) * c_im))
                d_re = 2 * i_re - (m - n - 1 + 2 * k) * big * (n - 1)
                _vanishes(report, "balance_interior", (kt, k), d_re, 2 * i_im, 2 * big * (n - 1))
                d_re = i_re - (n - k) * f_re - (k - 1) * l_re
                d_im = i_im - (n - k) * f_im - (k - 1) * l_im
                _vanishes(report, "balance_blend", (kt, k), d_re, d_im, big * (n - 1))

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
            _vanishes(report, "two_step_up", (kt,), d_re, d_im, den * den)
            d_re, d_im = dr_ne * right - dr * right_b, dr_ne * im - dr * im_b
            _vanishes(report, "two_step_right", (kt,), d_re, d_im, den)
            d_re, d_im = dl_nw * left - dl * left_l, dl_nw * im - dl * im_l
            _vanishes(report, "two_step_left", (kt,), d_re, d_im, den)
        if p >= 1 and q >= 1:
            # Both sides over n(n-1).
            _vanishes(report, "two_step_down", (kt,), dl * dr_l - dr * dl_b, 0, n * (n - 1))
    return report
