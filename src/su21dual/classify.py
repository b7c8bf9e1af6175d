"""The irreducible unitary families and their parameter thresholds.

Cone modules V(c, 2t) are unitary exactly for real c below a threshold
c(t); at the threshold and at finitely many special values c(l, t) the
module is reducible and the constituent of the lowest K-type is a strip
U(l, 2t) (degenerating to the point U(0) at t = 0 and the rays U(2), U(-2)
at t = 1, -1).  Vertex modules W(r, s) are unitary inside the wedge
s + r + 1 > 0 > s - r - 1; on the two wedge walls the constituent is a ray
Z(s).  These families exhaust the unitary dual.

Every record is derived from the sign polynomials of
coefficients.sign_polys: support_of gives the support,
unitarity.certificate the verdict on it, and the label is read off the
shape of the support (full cone V(c, 2t), point U(0), strip U(2), U(-2)
or U(l, 2t) with l its wall, wedge W(r, s), ray Z(s)).  The threshold
values are derived from the same polynomials, not tabulated: c(l, t) puts
the root of the wall-side polynomial (up-left for t > 0, up-right for
t < 0) at l, and c(t) is the same formula at the widest wall,

    c(l, t) = (l(l+2) - |t|(l+1)) / 2        l in {0, ..., floor(|t|/2) - 1}
    c(t)    = c(max(floor(|t|/2), 1) - 1, t).

So for |t| >= 2 the constituent at c = c(t) is the widest strip; records
carry a note whenever that coincidence is used.  The values serve only
enumerate_dual, parse_label and the note text, and the test suite checks
them against the paper's parity tables and against classify.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .builder import support_of
from .coefficients import ConeParams, ModuleParams, VertexParams
from .errors import InvalidParameter
from .lattice import Region
from .scalars import imag_part, parse_scalar, render_scalar
from .unitarity import ProductWitness, certificate


def _c_at_wall(l: int, t: int) -> Fraction:
    """The c at which the wall-side sign polynomial of V(c, 2t) has its root
    at l: 2c + (l+1)|t| - l(l+2) = 0."""
    return Fraction(l * (l + 2) - abs(t) * (l + 1), 2)


def c_threshold(t: int) -> Fraction:
    """Upper unitarity threshold for the cone family at parameter t."""
    return _c_at_wall(max(abs(t) // 2, 1) - 1, t)


def c_special(l: int, t: int) -> Fraction:
    """The l-th special value below which the strip U(l, 2t) appears."""
    if abs(t) < 2:
        raise InvalidParameter(f"special values need |t| >= 2, got t={t}")
    k = abs(t) // 2
    if not 0 <= l <= k - 1:
        raise InvalidParameter(f"l must lie in 0..{k - 1} for t={t}, got l={l}")
    return _c_at_wall(l, t)


@dataclass(frozen=True)
class ClassificationRecord:
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


def _strip_region(t: int, l: int) -> Region:
    return Region.strip_q(t, l) if t > 0 else Region.strip_p(t, l)


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
            l = support.q_max if t > 0 else support.p_max
            label = f"U(l={l},2t={2 * t})"
            if c == threshold:
                note = f"threshold c({t})={ct} coincides with the special value c(l={l},t={t})"
            else:
                note = f"special value c(l={l},t={t})={render_scalar(c)}"
    return ClassificationRecord(
        label=label,
        support=support,
        unitary=unitary,
        params=point,
        notes=(note,),
        witness=witness,
    )


def embed_W(r: int, s: int) -> tuple[ConeParams, ConeParams]:
    """The two cone modules containing W(r, s) as a constituent."""
    VertexParams(r, s)  # validate r > 1 and r + s odd
    c1 = Fraction((r - 1) * (-r + 1 + s) - 2, 4)
    c2 = Fraction((r - 1) * (-r + 1 - s) - 2, 4)
    two_t1 = -3 * r + 3 + s
    two_t2 = 3 * r - 3 + s
    return ConeParams(c1, two_t1 // 2), ConeParams(c2, two_t2 // 2)


# The largest t_max and r_max that enumerate_dual accepts: twice the
# largest bound any test or benchmark uses (60).  The work grows with the
# square of the bounds, so a larger value is a mistake to report, not a
# listing to wait for.
ENUMERATE_LIMIT = 120


def enumerate_dual(t_max: int, r_max: int) -> list[ClassificationRecord]:
    """Members of the unitary dual within the given parameter bounds.

    Continuous cone families enter as one interval descriptor per t, with a
    representative parameter attached; all discrete families are listed
    member by member.  Z(2) and Z(-2) coincide with U(2) and U(-2) as
    supports but are kept as separate labels.  Raises InvalidParameter
    unless 0 <= t_max, r_max <= ENUMERATE_LIMIT.
    """
    if t_max < 0 or r_max < 0:
        raise InvalidParameter("bounds must be nonnegative")
    for name, bound in (("t_max", t_max), ("r_max", r_max)):
        if bound > ENUMERATE_LIMIT:
            raise InvalidParameter(f"{name} must be <= {ENUMERATE_LIMIT}, got {bound}")
    records: list[ClassificationRecord] = []
    for t in range(-t_max, t_max + 1):
        ct = c_threshold(t)
        records.append(
            ClassificationRecord(
                label=f"V(c<{render_scalar(ct)},2t={2 * t})",
                support=Region.full_cone(t),
                unitary=True,
                params=ConeParams(ct - 1, t),
                notes=(
                    f"continuous family: any c in (-inf,{render_scalar(ct)}); "
                    "representative c attached",
                ),
            )
        )
    records.append(classify(ConeParams(Fraction(0), 0)))
    if t_max >= 1:
        records.append(classify(ConeParams(Fraction(-1, 2), 1)))
        records.append(classify(ConeParams(Fraction(-1, 2), -1)))
    for t in [t for t in range(-t_max, t_max + 1) if abs(t) >= 2]:
        for l in range(abs(t) // 2):
            records.append(classify(ConeParams(c_special(l, t), t)))
    for r in range(2, r_max + 1):
        for s in range(-r + 1, r):
            if (r + s) % 2 == 1:
                records.append(classify(VertexParams(r, s)))
    for s_abs in range(2, r_max + 2):
        for s in (s_abs, -s_abs):
            if s_abs == 2:
                t = 1 if s > 0 else -1
                records.append(
                    ClassificationRecord(
                        label=f"Z({s})",
                        support=_strip_region(t, 0),
                        unitary=True,
                        params=ConeParams(Fraction(-1, 2), t),
                        notes=(
                            f"degenerate ray: coincides with U({s}) "
                            "(vertex dimension 1)",
                        ),
                    )
                )
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
        two_t = int(m.group(2))
        return ConeParams(parse_scalar(m.group(1)), _half(two_t))
    if m := _V_RANGE_RE.fullmatch(label):
        t = _half(int(m.group(2)))
        ct = c_threshold(t)
        if m.group(1) != render_scalar(ct):
            raise InvalidParameter(
                f"the interval below c({t}) is V(c<{render_scalar(ct)},2t={2 * t})"
            )
        return ConeParams(ct - 1, t)
    if m := _U_SMALL_RE.fullmatch(label):
        val = int(m.group(1))
        if val == 0:
            return ConeParams(Fraction(0), 0)
        return ConeParams(Fraction(-1, 2), val // 2)
    if m := _U_RE.fullmatch(label):
        l, two_t = int(m.group(1)), int(m.group(2))
        t = _half(two_t)
        return ConeParams(c_special(l, t), t)
    if m := _W_RE.fullmatch(label):
        return VertexParams(int(m.group(1)), int(m.group(2)))
    if m := _Z_RE.fullmatch(label):
        s = int(m.group(1))
        if abs(s) < 2:
            raise InvalidParameter(f"no Z family at s={s}")
        if abs(s) == 2:
            return ConeParams(Fraction(-1, 2), s // 2)
        return VertexParams(abs(s) - 1, s)
    raise InvalidParameter(f"unrecognized family label: {label!r}")


def _half(two_t: int) -> int:
    if two_t % 2 != 0:
        raise InvalidParameter(f"2t must be even, got {two_t}")
    return two_t // 2
