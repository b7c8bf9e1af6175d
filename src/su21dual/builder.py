"""Materialization of truncated modules.

A truncated module holds a basis v_{nm}^k, 1 <= k <= n, for every K-type
of a support region with n <= max_n, together with the sparse action of all
nine generators.  Within a K-type the su(2)-triple acts by the fixed
conventions

    H_alpha . v^k = (n + 1 - 2k) v^k
    X_alpha . v^k = -(k - 1) v^{k-1}
    Y_alpha . v^k = -(n - k) v^{k+1}

with v^0 = v^{n+1} = 0, and Z acts by m.  The four remaining generators
move between K-types with the transition coefficients of the canonical
gauge, written once as a table of moves (_MOVES): an upward term and a
downward term weighted by (k-1)/(n-1) when the move keeps k and by
(n-k)/(n-1) when it raises k.  A weight vanishes exactly where the target
index would leave the 1..n range, and at n = 1 both do, so a zero weight
drops the term and there is no other case.  A region passed to build,
is_unitary or check_coefficient_relations must sit on the lowest K-type
of the parameters (checked_region).

Action targets one dimension above max_n are stored exactly and flagged as
truncated; relation checks only ever run on interior vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .algebra import Generator
from .coefficients import (
    ConeParams,
    ModuleParams,
    Poly,
    VertexParams,
    sign_polys,
    transition_coeffs,
)
from .errors import EmptyTruncation, InvalidParameter, Su21Error
from .lattice import KType, Region, check_max_n
from .scalars import (
    GaussianRational,
    Scalar,
    imag_part,
    parse_rational,
    render_rational,
    scalar_from_json,
    scalar_to_json,
)


class BasisIndex(NamedTuple):
    n: int
    m: int
    k: int

    @property
    def ktype(self) -> KType:
        return KType(self.n, self.m)


def _smallest_root(poly: Poly) -> Optional[int]:
    """Smallest integer x >= 0 with a2 x^2 + a1 x + a0 = 0, if any; a1 is
    nonzero whenever a2 is 0."""
    a2, a1, a0 = poly
    if a2 == 0:
        x, rem = divmod(-a0, a1)
        return x if rem == 0 and x >= 0 else None
    disc = a1 * a1 - 4 * a2 * a0
    root = math.isqrt(max(disc, 0))
    if root * root != disc:
        return None
    hits = []
    for num in (-a1 - root, -a1 + root):
        x, rem = divmod(num, 2 * a2)
        if rem == 0 and x >= 0:
            hits.append(x)
    return min(hits, default=None)


def support_of(params: ModuleParams) -> Region:
    """Support of the constituent containing the lowest K-type.

    The walls are the smallest nonnegative integer roots of the sign
    polynomials (coefficients.sign_polys): a vanishing up-right product at
    column p blocks every edge out of that column, and likewise for
    up-left products and rows.  Each polynomial depends on a single
    coordinate, so wall detection is exact and needs no truncation.  A
    nonreal c gives products with a nonzero imaginary part everywhere, so
    the support is the full cone.
    """
    if isinstance(params, ConeParams) and imag_part(params.c) != 0:
        return Region.full_cone(params.t)
    right, left = sign_polys(params)
    return Region(params.vertex, p_max=_smallest_root(right), q_max=_smallest_root(left))


def checked_region(params: ModuleParams, region: Optional[Region]) -> Region:
    """The region a module is built or tested on: support_of(params) when
    region is None, else region itself, which must sit on the lowest
    K-type of params (InvalidParameter otherwise)."""
    if region is None:
        return support_of(params)
    if region.vertex != params.vertex:
        raise InvalidParameter(
            f"region vertex {region.vertex} is not the lowest K-type {params.vertex}"
        )
    return region


_GENERATORS = tuple(Generator)


def _int(value, name: str) -> int:
    """value itself when it is an int (a bool is not); otherwise a one-line
    Su21Error naming the field of the module document."""
    if type(value) is not int:
        raise Su21Error(f"malformed module document: {name} must be an integer, got {value!r}")
    return value


def _index(value, name: str) -> BasisIndex:
    """An action row index [n, m, k], each entry checked by _int."""
    n, m, k = value
    return BasisIndex(_int(n, name), _int(m, name), _int(k, name))


def _parts(v: Scalar):
    return (v.re, v.im) if isinstance(v, GaussianRational) else (v, 0)


@dataclass
class TruncatedModule:
    """A finite slice of a module: basis indices plus sparse generator action."""

    params: ModuleParams
    max_n: int
    region: Region
    basis: tuple[BasisIndex, ...]
    rows: dict[Generator, dict[BasisIndex, tuple[tuple[BasisIndex, Scalar], ...]]]

    # -- queries -----------------------------------------------------------

    def interior(self, idx: BasisIndex, depth: int = 2) -> bool:
        """True when `depth` successive actions from idx stay below max_n."""
        return idx.n + depth <= self.max_n

    # -- serialization -----------------------------------------------------

    def to_json(self, norms=None) -> dict:
        if isinstance(self.params, ConeParams):
            params_json = {"kind": "cone", "c": scalar_to_json(self.params.c), "t": self.params.t}
        else:
            params_json = {"kind": "vertex", "r": self.params.r, "s": self.params.s}
        action = {}
        for gen in _GENERATORS:
            entries = []
            for idx in self.basis:
                row = self.rows[gen].get(idx)
                if not row:
                    continue
                terms = [
                    [list(tgt), render_rational(re), render_rational(im)]
                    for tgt, v in row for re, im in (_parts(v),)
                ]
                entries.append({"from": list(idx), "terms": terms})
            action[gen.value] = entries
        doc = {
            "params": params_json,
            "max_n": self.max_n,
            "support": self.region.to_json(),
            "basis": [{"n": b.n, "m": b.m, "k": b.k} for b in self.basis],
            "action": action,
        }
        if norms is not None:
            doc["norms"] = norms.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "TruncatedModule":
        pj = doc["params"]
        if pj["kind"] == "cone":
            params: ModuleParams = ConeParams(scalar_from_json(pj["c"]), _int(pj["t"], "params.t"))
        elif pj["kind"] == "vertex":
            params = VertexParams(_int(pj["r"], "params.r"), _int(pj["s"], "params.s"))
        else:
            raise Su21Error(f"malformed module document: unknown params.kind {pj['kind']!r}")
        region = Region.from_json(doc["support"])
        # Region.from_json accepts any value its arithmetic does (true for 1).
        for key, value in doc["support"]["params"].items():
            for x in value if key == "vertex" else (value,):
                if x is not None:
                    _int(x, f"support.params.{key}")
        basis = tuple(
            BasisIndex(*(_int(b[key], f"basis.{key}") for key in "nmk")) for b in doc["basis"]
        )
        rows: dict = {gen: {} for gen in _GENERATORS}
        for gen_name, entries in doc["action"].items():
            gen = Generator(gen_name)
            for entry in entries:
                src = _index(entry["from"], "action row index")
                terms = []
                for tgt, re_s, im_s in entry["terms"]:
                    re_, im_ = parse_rational(re_s), parse_rational(im_s)
                    val: Scalar = re_ if im_ == 0 else GaussianRational(re_, im_)
                    terms.append((_index(tgt, "action row index"), val))
                rows[gen][src] = tuple(terms)
        return cls(params, check_max_n(_int(doc["max_n"], "max_n")), region, basis, rows)


# The noncompact moves: generator, index of the upward coefficient in
# TransitionCoeffs (the downward one is two after it), m step, k shift of the
# upward target (the downward one lands one k lower), and the two signs.
_MOVES = (
    (Generator.X_ALPHABETA, 0, 3, 0, 1, 1),
    (Generator.X_BETA, 0, 3, 1, -1, 1),
    (Generator.Y_ALPHABETA, 1, -3, 1, 1, 1),
    (Generator.Y_BETA, 1, -3, 0, 1, -1),
)


def _k_rows(n: int, m: int, k: int, tc):
    """Yield (generator, terms) pairs for the basis vector (n, m, k)."""
    here = BasisIndex(n, m, k)

    h_alpha = n + 1 - 2 * k
    if h_alpha:
        yield Generator.H_ALPHA, ((here, Fraction(h_alpha)),)
    h_beta = Fraction(m - n - 1 + 2 * k, 2)
    if h_beta:
        yield Generator.H_BETA, ((here, h_beta),)
    if m:
        yield Generator.Z, ((here, Fraction(m)),)

    if k > 1:
        yield Generator.X_ALPHA, ((BasisIndex(n, m, k - 1), Fraction(-(k - 1))),)
    if k < n:
        yield Generator.Y_ALPHA, ((BasisIndex(n, m, k + 1), Fraction(-(n - k))),)

    for gen, side, step, shift, up_sign, down_sign in _MOVES:
        up, down = tc[side], tc[side + 2]
        weight = down_sign * (n - k if shift else k - 1)
        terms = []
        if up != 0:
            terms.append((BasisIndex(n + 1, m + step, k + shift), up if up_sign > 0 else -up))
        if weight and down != 0:
            terms.append((
                BasisIndex(n - 1, m + step, k + shift - 1),
                Fraction(weight * down.numerator, (n - 1) * down.denominator),
            ))
        if terms:
            yield gen, tuple(terms)


def build(params: ModuleParams, max_n: int, region: Optional[Region] = None) -> TruncatedModule:
    """Build the truncated module on a support region (default: the
    constituent of the lowest K-type).

    Raises EmptyTruncation when max_n is below the vertex dimension, and
    InvalidParameter when max_n is above lattice.MAX_N_LIMIT or the region
    does not sit on the lowest K-type or is not closed under the action.
    """
    region = checked_region(params, region)
    if max_n < region.vertex.n:
        raise EmptyTruncation(
            f"max_n={max_n} is below the lowest K-type dimension {region.vertex.n}"
        )

    ktypes = region.members(max_n)
    basis = []
    rows: dict = {gen: {} for gen in _GENERATORS}
    for kt in ktypes:
        n, m = kt.n, kt.m
        tc = transition_coeffs(params, kt)
        for direction, step, coeff in (("up_right", 3, tc.up_right), ("up_left", -3, tc.up_left)):
            if coeff != 0 and not region.contains(KType(n + 1, m + step)):
                raise InvalidParameter(
                    f"region is not closed under the action: nonzero {direction} "
                    f"coefficient at {kt} leaves the region"
                )
        for k in range(1, n + 1):
            idx = BasisIndex(n, m, k)
            basis.append(idx)
            for gen, terms in _k_rows(n, m, k, tc):
                rows[gen][idx] = terms
    return TruncatedModule(params, max_n, region, tuple(basis), rows)


class ScaledRows(NamedTuple):
    """The action with denominators cleared: rows[gen][i] lists the
    (j, a, b) with gen . labels[i] = sum (a + b i) / scale * labels[j].

    Positions below `size` are the basis in sorted order; row targets
    outside the basis get the positions after it.
    """

    scale: int
    size: int
    labels: list[BasisIndex]
    index: dict[BasisIndex, int]
    rows: dict[Generator, list[tuple[tuple[int, int, int], ...]]]


def scaled_rows(mod: TruncatedModule) -> ScaledRows:
    """Integer form of every generator row, scaled by D, the lcm of all
    real and imaginary denominators; zero entries are dropped."""
    index = {b: i for i, b in enumerate(sorted(set(mod.basis)))}
    size = len(index)
    stored = {gen: [mod.rows[gen].get(b, ()) for b in index] for gen in _GENERATORS}
    scale = math.lcm(*{
        x.denominator for rs in stored.values() for row in rs for _, v in row for x in _parts(v)
    })
    rows = {}
    for gen, rs in stored.items():
        rows[gen] = [
            tuple(
                (index.setdefault(t, len(index)), re.numerator * (scale // re.denominator),
                 im.numerator * (scale // im.denominator))
                for t, v in row for re, im in (_parts(v),) if re or im
            )
            for row in rs
        ]
    return ScaledRows(scale, size, list(index), index, rows)


def module_to_json_str(mod: TruncatedModule, norms=None) -> str:
    """The module document as compact JSON on one line."""
    return json.dumps(mod.to_json(norms=norms), separators=(",", ":"))


def module_from_json_str(text: str) -> TruncatedModule:
    """Parse a module document; one that is not valid JSON or does not
    follow the schema raises Su21Error with a one-line message."""
    return _parse_document(text)[0]


def _parse_document(text: str) -> tuple[TruncatedModule, dict]:
    """The module of a document and the parsed document itself, whose
    optional norms the module does not hold."""
    try:
        doc = json.loads(text)
        return TruncatedModule.from_json(doc), doc
    except KeyError as exc:
        raise Su21Error(f"malformed module document: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise Su21Error(f"malformed module document: {exc}") from exc
