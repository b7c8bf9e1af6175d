"""The irreducible unitary families and their parameter thresholds.

Cone modules V(c, 2t) are unitary exactly for real c below a threshold
c(t); at the threshold and at finitely many special values c(l, t) the
module is reducible and the constituent of the lowest K-type is a strip
U(l, 2t) (degenerating to the point U(0) at t = 0 and the rays U(2), U(-2)
at t = 1, -1).  Vertex modules W(r, s) are unitary inside the wedge
s + r + 1 > 0 > s - r - 1; on the two wedge walls the constituent is a ray
Z(s).  These families exhaust the unitary dual.

Every record is derived from the sign polynomials params.polys:
support_of gives the support, unitarity.certificate the verdict on it, and
the label is read off the shape of the support (full cone V(c, 2t), point
U(0), strip U(2), U(-2) or U(l, 2t) with l its one wall, wedge W(r, s),
ray Z(s)).  A mirror pair V(c, ±2t) or W(r, ±s) gets one verdict, mirrored
supports and labels of opposite sign.  The threshold values are derived
from the same polynomials, not tabulated: c(l, t) puts at l the root of
the wall-side polynomial, the up-right one of V(c, -2|t|), and c(t) is
the same formula at the widest wall,

    c(l, t) = (l(l+2) - |t|(l+1)) / 2        l in {0, ..., floor(|t|/2) - 1}
    c(t)    = c(max(floor(|t|/2), 1) - 1, t).

So for |t| >= 2 the constituent at c = c(t) is the widest strip; records
carry a note whenever that coincidence is used.  classify makes every
record: enumerate_dual lists U(0), U(2), U(-2) and each U(l, 2t) as the
point c(l, t), and relabels two records, the interval V(c<c(t),2t) from
its representative c(t) - 1 and Z(2), Z(-2) from U(2), U(-2).  parse_label
reads those labels back through the same values, and the test suite checks
them against the paper's parity tables and against classify.  The two cone
modules containing W(r, s) are a test oracle (tests/oracles.embed_W).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .coefficients import ConeParams, ModuleParams, VertexParams, _cone_poly, poly_at, support_of
from .errors import InvalidParameter
from .lattice import Region
from .scalars import _parse_int, imag_part, parse_scalar, render_scalar
from .unitarity import ProductWitness, certificate


def _c_at_wall(l: int, t: int) -> Fraction:
    """The c at which the wall-side sign polynomial of V(c, 2t) has its root
    at l: that polynomial is the up-right one of V(c, -2|t|), a positive
    multiple of 2c plus the one of V(0, -2|t|), _cone_poly at c = 0/1."""
    return Fraction(-poly_at(_cone_poly(0, 1, -abs(t)), l), 2)


def c_threshold(t: int) -> Fraction:
    """Upper unitarity threshold for the cone family at parameter t."""
    return _c_at_wall(max(abs(t) // 2, 1) - 1, t)


def c_special(l: int, t: int) -> Fraction:
    """The l-th special value below which the strip U(l, 2t) appears."""
    if abs(t) < 2:
        raise InvalidParameter(f"special values need |t| >= 2, got t={t}")
    k = abs(t) // 2
    if not 0 <= l < k:
        raise InvalidParameter(f"l must lie in 0..{k - 1} for t={t}, got l={l}")
    return _c_at_wall(l, t)


class ClassificationRecord(NamedTuple):
    label: str
    support: Region
    unitary: bool
    params: Optional[ModuleParams] = None
    notes: tuple[str, ...] = ()
    witness: Optional[ProductWitness] = None

    def to_json(self) -> dict:
        doc = {
            "label": self.label,
            "support": self.support.to_json(),
            "unitary": self.unitary,
            "notes": list(self.notes),
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        return doc


def classify(point: ModuleParams) -> ClassificationRecord:
    """Assign the family of the constituent containing the lowest K-type.

    The support comes from support_of and the verdict from the closed-form
    certificate on it; the label is read off the shape of the support.
    The threshold values enter only the note text.
    """
    support = support_of(point)
    verdict = certificate(point, support)
    unitary, kind = verdict is None, support.kind
    witness = None if unitary else verdict.witness
    if isinstance(point, VertexParams):
        r, s = point.r, point.s
        label = f"W({r},{s})"
        if not unitary:
            note = "outside the unitary wedge"
        elif kind == "vertex_cone":
            note = f"wedge: s+r+1={s + r + 1} > 0 and s-r-1={s - r - 1} < 0"
        else:
            wall = "s+r+1" if kind == "ray_neg" else "s-r-1"
            label, note = f"Z({s})", f"wall {wall}=0: ray constituent of the lowest K-type"
    else:
        c, t, threshold = point.c, point.t, c_threshold(point.t)
        label, ct = f"V(c={render_scalar(c)},2t={2 * t})", render_scalar(threshold)
        if imag_part(c) != 0:
            note, witness = "nonreal parameter: products are nonreal", None
        elif not unitary:
            note = f"c above threshold c({t})={ct}"
        elif kind == "full_cone":
            note = f"c below threshold c({t})={ct}"
        elif kind == "point":
            label, note = "U(0)", "threshold c(0)=0: one-dimensional constituent"
        elif abs(t) == 1:
            label, note = f"U({2 * t})", f"threshold c({t})={ct}: ray constituent"
        else:
            l = support.p_max if support.q_max is None else support.q_max
            label = f"U(l={l},2t={2 * t})"
            if c == threshold:
                note = f"threshold c({t})={ct} coincides with the special value c(l={l},t={t})"
            else:
                note = f"special value c(l={l},t={t})={render_scalar(c)}"
    return ClassificationRecord(
        label, support, unitary, params=point, notes=(note,), witness=witness
    )


# The largest t_max and r_max that enumerate_dual accepts: twice the
# largest bound any test or benchmark uses (60).  The work grows with the
# square of the bounds, so a larger value is a mistake to report, not a
# listing to wait for.
ENUMERATE_LIMIT = 120


def enumerate_dual(t_max: int, r_max: int) -> list[ClassificationRecord]:
    """Members of the unitary dual within the given parameter bounds.

    Every record is a classify record.  Continuous cone families enter as
    one interval per t: the record of the representative c(t) - 1, labelled
    V(c<c(t),2t).  All discrete families are listed member by member.  Z(2)
    and Z(-2) are the records of U(2) and U(-2) under their own labels.
    Raises InvalidParameter unless 0 <= t_max, r_max <= ENUMERATE_LIMIT.
    """
    if t_max < 0 or r_max < 0:
        raise InvalidParameter("bounds must be nonnegative")
    for name, bound in (("t_max", t_max), ("r_max", r_max)):
        if bound > ENUMERATE_LIMIT:
            raise InvalidParameter(f"{name} must be <= {ENUMERATE_LIMIT}, got {bound}")
    ts = range(-t_max, t_max + 1)
    records = []
    for t in ts:
        ct = c_threshold(t)
        records.append(classify(ConeParams(ct - 1, t))._replace(
            label=f"V(c<{render_scalar(ct)},2t={2 * t})",
            notes=(f"continuous family: any c in (-inf,{render_scalar(ct)}); representative c attached",),
        ))
    # The strips U(l, 2t): U(0), U(2) and U(-2) first, then |t| >= 2 by t.
    for t in [0, 1, -1][:2 * t_max + 1] + [t for t in ts if abs(t) >= 2]:
        for l in range(max(abs(t) // 2, 1)):
            records.append(classify(ConeParams(_c_at_wall(l, t), t)))
    for r in range(2, r_max + 1):
        for s in range(-r + 1, r):
            if (r + s) % 2 == 1:
                records.append(classify(VertexParams(r, s)))
    for s_abs in range(2, r_max + 2):
        for s in (s_abs, -s_abs):
            if s_abs == 2:
                records.append(classify(ConeParams(c_threshold(s // 2), s // 2))._replace(
                    label=f"Z({s})",
                    notes=(f"degenerate ray: coincides with U({s}) (vertex dimension 1)",),
                ))
            else:
                records.append(classify(VertexParams(s_abs - 1, s)))
    labels = [rec.label for rec in records]
    if len(labels) != len(set(labels)):
        raise InvalidParameter("enumeration produced duplicate labels")
    return records


_V_POINT_RE = re.compile(r"V\(c=([^,]+),2t=(-?\d+)\)")
_V_RANGE_RE = re.compile(r"V\(c<([^,]+),2t=(-?\d+)\)")
_U_RE = re.compile(r"U\(l=(\d+),2t=(-?\d+)\)")
_U_SMALL_RE = re.compile(r"U\((0|2|-2)\)")
_W_RE = re.compile(r"W\((-?\d+),(-?\d+)\)")
_Z_RE = re.compile(r"Z\((-?\d+)\)")


def normalize_label(label: str) -> str:
    """A family label as parse_label reads it: stripped, with "−" read as "-"."""
    return label.strip().replace("−", "-")


def parse_label(label: str) -> ModuleParams:
    """Parameters of the module a family label denotes.

    Interval labels V(c<...) must name the threshold c(t) and map to the
    attached representative parameter; the degenerate rays Z(2) and Z(-2)
    map to their cone parameters.
    """
    label = normalize_label(label)
    if m := _V_POINT_RE.fullmatch(label):
        two_t = _parse_int(m.group(2))
        return ConeParams(parse_scalar(m.group(1)), _half(two_t))
    if m := _V_RANGE_RE.fullmatch(label):
        t = _half(_parse_int(m.group(2)))
        ct = c_threshold(t)
        if m.group(1) != render_scalar(ct):
            raise InvalidParameter(
                f"the interval below c({t}) is V(c<{render_scalar(ct)},2t={2 * t})"
            )
        return ConeParams(ct - 1, t)
    if m := _U_SMALL_RE.fullmatch(label):
        t = _parse_int(m.group(1)) // 2
        return ConeParams(c_threshold(t), t)
    if m := _U_RE.fullmatch(label):
        l, two_t = _parse_int(m.group(1)), _parse_int(m.group(2))
        t = _half(two_t)
        return ConeParams(c_special(l, t), t)
    if m := _W_RE.fullmatch(label):
        return VertexParams(_parse_int(m.group(1)), _parse_int(m.group(2)))
    if m := _Z_RE.fullmatch(label):
        s = _parse_int(m.group(1))
        if abs(s) < 2:
            raise InvalidParameter(f"no Z family at s={s}")
        if abs(s) == 2:
            return ConeParams(c_threshold(s // 2), s // 2)
        return VertexParams(abs(s) - 1, s)
    raise InvalidParameter(f"unrecognized family label: {label!r}")


def _half(two_t: int) -> int:
    if two_t % 2 != 0:
        raise InvalidParameter(f"2t must be even, got {two_t}")
    return two_t // 2
