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

from typing import NamedTuple, Optional

from .errors import InvalidParameter, Su21Error


# Each value type below is a NamedTuple of its fields under a subclass whose
# __new__ checks them: equality, hashing and ordering run as on tuples.
class _KTypeFields(NamedTuple):
    n: int
    m: int


class KType(_KTypeFields):
    """Label of an irreducible K-module: dimension n, center eigenvalue m."""

    __slots__ = ()

    def __new__(cls, n: int, m: int):
        if n < 1:
            raise InvalidParameter(f"K-type dimension must be >= 1, got {n}")
        if (n + m) % 2 == 0:
            raise InvalidParameter(f"n + m must be odd, got ({n}, {m})")
        return tuple.__new__(cls, (n, m))

    def __repr__(self):
        return f"KType({self.n}, {self.m})"


class _ConeCoordFields(NamedTuple):
    p: int
    q: int


class ConeCoord(_ConeCoordFields):
    """Steps from a cone vertex: p up-right moves, q up-left moves."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p < 0 or q < 0:
            raise InvalidParameter(
                f"cone coordinates must be nonnegative, got ConeCoord(p={p!r}, q={q!r})"
            )
        return tuple.__new__(cls, (p, q))


def coord_above(vertex: KType, v: KType) -> Optional[ConeCoord]:
    """Cone coordinates of v above vertex; None when v is not on that cone."""
    diff = v.m - vertex.m
    if diff % 3 != 0:
        return None
    # n + m is odd for both K-types, so d + 3e is even, and so is d + e.
    d, e = v.n - vertex.n, diff // 3
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


class _RegionFields(NamedTuple):
    vertex: KType
    p_max: Optional[int] = _UNBOUNDED
    q_max: Optional[int] = _UNBOUNDED


class Region(_RegionFields):
    """A support region: a vertex K-type with optional p and q walls.

    p_max / q_max are inclusive upper bounds; None means unbounded.
    """

    __slots__ = ()

    def __new__(cls, vertex: KType, p_max: Optional[int] = _UNBOUNDED,
                q_max: Optional[int] = _UNBOUNDED):
        for bound in (p_max, q_max):
            if bound is not None and bound < 0:
                raise InvalidParameter(f"region bound must be nonnegative, got {bound}")
        return tuple.__new__(cls, (vertex, p_max, q_max))

    # -- shape vocabulary --------------------------------------------------

    @property
    def kind(self) -> str:
        """The name of this region's shape in the paper's vocabulary, or a
        raw shape (box, vertex_strip_p, vertex_strip_q) for the rest."""
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


# The JSON params of each support kind, in order.  A raw kind stores the
# vertex and both walls.
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
