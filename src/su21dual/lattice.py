"""K-type bookkeeping: labels, cone coordinates and support regions.

A K-type V_{nm} is an irreducible K-module of dimension n on which the
center element Z acts by the integer m; n + m is always odd.  The K-types
of one of our modules sit on a shifted cone: starting from a lowest K-type
(the vertex), p steps in the up-right direction (n+1, m+3) and q steps in
the up-left direction (n+1, m-3) reach V_{n0+p+q, m0+3p-3q}.

A support region is such a cone with optional walls bounding p and/or q.
Every constituent support that occurs (full cones, strips, rays, boxes and
single points) is an instance of this one shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidParameter, Su21Error


@dataclass(frozen=True, order=True)
class KType:
    """Label of an irreducible K-module: dimension n, center eigenvalue m."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameter(f"K-type dimension must be >= 1, got {self.n}")
        if (self.n + self.m) % 2 == 0:
            raise InvalidParameter(f"n + m must be odd, got ({self.n}, {self.m})")

    def __repr__(self):
        return f"KType({self.n}, {self.m})"


@dataclass(frozen=True, order=True)
class ConeCoord:
    """Steps from a cone vertex: p up-right moves, q up-left moves."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise InvalidParameter(f"cone coordinates must be nonnegative, got {self}")


def coord_above(vertex: KType, v: KType) -> Optional[ConeCoord]:
    """Cone coordinates of v above vertex; None when v is not on that cone."""
    diff = v.m - vertex.m
    if diff % 3 != 0:
        return None
    d, e = v.n - vertex.n, diff // 3
    if (d + e) % 2 != 0:
        return None
    p, q = (d + e) // 2, (d - e) // 2
    if p < 0 or q < 0:
        return None
    return ConeCoord(p, q)


_UNBOUNDED = None

# The largest truncation that build, is_unitary and a module document
# accept: twice the largest max_n any test or benchmark uses (50).  A full
# cone truncated here already has about 340,000 basis vectors, so a larger
# value is a mistake to report, not a computation to wait for.
MAX_N_LIMIT = 100


def check_max_n(max_n: int) -> int:
    """max_n itself when 1 <= max_n <= MAX_N_LIMIT; InvalidParameter
    otherwise."""
    if max_n < 1:
        raise InvalidParameter(f"max_n must be >= 1, got {max_n}")
    if max_n > MAX_N_LIMIT:
        raise InvalidParameter(f"max_n must be <= {MAX_N_LIMIT}, got {max_n}")
    return max_n


def doc_int(value, name: str) -> int:
    """value itself when it is an int (a bool is not); otherwise a one-line
    Su21Error naming the field of the module document."""
    if type(value) is not int:
        raise Su21Error(f"malformed module document: {name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Region:
    """A support region: a vertex K-type with optional p and q walls.

    p_max / q_max are inclusive upper bounds; None means unbounded.
    """

    vertex: KType
    p_max: Optional[int] = _UNBOUNDED
    q_max: Optional[int] = _UNBOUNDED

    def __post_init__(self):
        for bound in (self.p_max, self.q_max):
            if bound is not None and bound < 0:
                raise InvalidParameter(f"region bound must be nonnegative, got {bound}")

    # -- constructors for the named shapes --------------------------------

    @classmethod
    def full_cone(cls, t: int) -> "Region":
        return cls(KType(1, 2 * t))

    @classmethod
    def strip_q(cls, t: int, l: int) -> "Region":
        return cls(KType(1, 2 * t), q_max=l)

    @classmethod
    def strip_p(cls, t: int, l: int) -> "Region":
        return cls(KType(1, 2 * t), p_max=l)

    @classmethod
    def vertex_cone(cls, r: int, s: int) -> "Region":
        if r <= 1:
            raise InvalidParameter(f"vertex cone needs r > 1, got {r}")
        return cls(KType(r, s))

    @classmethod
    def ray_pos(cls, s: int) -> "Region":
        if s < 2:
            raise InvalidParameter(f"positive ray needs s >= 2, got {s}")
        return cls(KType(s - 1, s), q_max=0)

    @classmethod
    def ray_neg(cls, s: int) -> "Region":
        if s > -2:
            raise InvalidParameter(f"negative ray needs s <= -2, got {s}")
        return cls(KType(-s - 1, s), p_max=0)

    @classmethod
    def point(cls, m: int) -> "Region":
        return cls(KType(1, m), p_max=0, q_max=0)

    # -- shape vocabulary --------------------------------------------------

    @property
    def kind(self) -> str:
        """The named shape whose constructor rebuilds this region, or a
        raw shape (box, vertex_strip_p, vertex_strip_q) when none does."""
        n0, m0 = self.vertex.n, self.vertex.m
        p_free = self.p_max is None
        q_free = self.q_max is None
        if self.p_max == 0 and self.q_max == 0 and n0 == 1:
            return "point"
        if p_free and q_free:
            return "full_cone" if n0 == 1 else "vertex_cone"
        if not p_free and not q_free:
            return "box"
        if n0 == 1:
            return "strip_q" if p_free else "strip_p"
        if q_free:
            return "ray_neg" if self.p_max == 0 and n0 == -m0 - 1 else "vertex_strip_p"
        return "ray_pos" if self.q_max == 0 and n0 == m0 - 1 else "vertex_strip_q"

    # -- geometry ----------------------------------------------------------

    def ktype_at(self, coord: ConeCoord) -> KType:
        return KType(
            self.vertex.n + coord.p + coord.q,
            self.vertex.m + 3 * coord.p - 3 * coord.q,
        )

    def coord_of(self, v: KType) -> Optional[ConeCoord]:
        """Region coordinates of v, or None when v lies outside the region."""
        coord = coord_above(self.vertex, v)
        return coord if coord is not None and self.contains_coord(coord) else None

    def contains(self, v: KType) -> bool:
        return self.coord_of(v) is not None

    def contains_coord(self, coord: ConeCoord) -> bool:
        if self.p_max is not None and coord.p > self.p_max:
            return False
        if self.q_max is not None and coord.q > self.q_max:
            return False
        return True

    def coords(self, max_n: int):
        """All region coordinates whose K-type has dimension <= max_n."""
        for depth in range(0, max_n - self.vertex.n + 1):
            p_hi = depth if self.p_max is None else min(depth, self.p_max)
            for p in range(p_hi + 1):
                q = depth - p
                if self.q_max is not None and q > self.q_max:
                    continue
                yield ConeCoord(p, q)

    def members(self, max_n: int) -> list[KType]:
        """All region K-types with n <= max_n, sorted by (n, m);
        InvalidParameter unless check_max_n accepts max_n."""
        return sorted(self.ktype_at(c) for c in self.coords(check_max_n(max_n)))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        v, kind = self.vertex, self.kind
        values = {
            "t": v.m // 2,
            "l": self.p_max if self.q_max is None else self.q_max,
            "r": v.n,
            "s": v.m,
            "m": v.m,
            "vertex": [v.n, v.m],
            "p_max": self.p_max,
            "q_max": self.q_max,
        }
        return {"kind": kind, "params": {name: values[name] for name in _SHAPE_FIELDS[kind]}}

    @classmethod
    def from_json(cls, obj: dict) -> "Region":
        """The region of a support document, which must be the document
        to_json writes for it (InvalidParameter otherwise), with an int,
        not a bool or float equal to one, for every number (Su21Error)."""
        kind, params = obj["kind"], obj["params"]
        if type(kind) is not str or kind not in _SHAPE_FIELDS:
            raise InvalidParameter(f"unknown support kind {kind!r}")
        args = [params[name] for name in _SHAPE_FIELDS[kind]]
        for name, value in zip(_SHAPE_FIELDS[kind], args):
            for x in value if name == "vertex" else (value,):
                if x is not None:
                    doc_int(x, f"support.params.{name}")
        if _SHAPE_FIELDS[kind] is _RAW_SHAPE:
            (n, m), p_max, q_max = args
            region = cls(KType(n, m), p_max=p_max, q_max=q_max)
        else:
            region = getattr(cls, kind)(*args)
        if region.to_json() != obj:
            raise InvalidParameter(f"support is not in canonical form, which is {region.to_json()}")
        return region


# The JSON params of each support kind, in order.  A kind with its own
# constructor above is read back through it; the others store the raw shape.
_RAW_SHAPE = ("vertex", "p_max", "q_max")
_SHAPE_FIELDS = {
    "full_cone": ("t",),
    "strip_q": ("t", "l"),
    "strip_p": ("t", "l"),
    "vertex_cone": ("r", "s"),
    "ray_pos": ("s",),
    "ray_neg": ("s",),
    "point": ("m",),
    "box": _RAW_SHAPE,
    "vertex_strip_p": _RAW_SHAPE,
    "vertex_strip_q": _RAW_SHAPE,
}
