"""Materialization of truncated modules.

A truncated module holds a basis v_{nm}^k, 1 <= k <= n, for every K-type
of a support region with n <= max_n, together with the sparse action of all
nine generators.  build states the action once, as the table of _action:
13 rows for the K-type (n, m) at cone coordinate (p, q), each a tuple
(generator, dn, dm, dk, a, b, c, d) whose entry at v^k is (a + b k + c i)/d
times v_{n+dn, m+dm}^{k+dk}, so every field is affine in k.  Five rows keep
the K-type, by the fixed conventions

    H_alpha . v^k = (n + 1 - 2k) v^k
    X_alpha . v^k = -(k - 1) v^{k-1}
    Y_alpha . v^k = -(n - k) v^{k+1}

with H_beta . v^k = (m - n - 1 + 2k)/2 v^k and Z acting by m.  Each of the
four generators that move between K-types has an upward row, the
canonical-gauge coefficient (right + im i)/den or (left + im i)/den of
coefficients._ups up to sign, then a downward row, the gauge's q/n or p/n
weighted by (k-1)/(n-1) or (n-k)/(n-1), with sign.  Every entry whose
target index would leave 1..n is zero, and at n = 1 the downward rows are
zero throughout, so the table needs no other case.  A region passed to
build, is_unitary or check_coefficient_relations must sit on the lowest
K-type of the parameters (coefficients.checked_region).

Action targets one dimension above max_n are stored exactly and flagged as
truncated; relation checks only ever run on interior vectors.

A module stores its action once, in integers: scale D, the lcm of the
reduced denominators of all its entries, and fields[gen][delta], a pair
(re, im) of lists over the basis positions plus one zero past them, with
gen . basis[u] having (re[u] + im[u] i)/D times basis[u] + delta; im is
None when every entry is real.  Every layer reads and writes the fields:
build by slices, from_json by each distinct (re, im) string pair, cleared
once, module_to_json_str by columns of text, and the replays of verify as
they are.  rows is a read-only view of them.

A document has one writer, in three parts: _head_parts (params, max_n and
support, then the basis K-type by K-type, all fixed by the header),
_action_parts (generator by generator) and _tail (the norms, if any).
module_to_json_str joins them; canonical_module reads a document against
them front to back, building the module only once the header and basis
match, and returns build's module when the text is build's document byte
for byte.  Any other document is parsed (from_json), at the cost of the
parse plus the parts compared before the first that differs.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from types import MappingProxyType
from typing import NamedTuple, Optional

from .algebra import Generator
from .coefficients import ConeParams, ModuleParams, VertexParams, _over, _ups, checked_region
from .errors import EmptyTruncation, InvalidParameter, Su21Error
from .lattice import ConeCoord, Region, check_max_n, doc_int
from .scalars import parse_rational, render_rational, scalar_from_json, scalar_to_json


class BasisIndex(NamedTuple):
    n: int
    m: int
    k: int


_GENERATORS = tuple(Generator)
_MODULE_FIELDS = ("params", "max_n", "region", "basis", "scale", "fields")


class TruncatedModule:
    """A finite slice of a module: basis indices plus the generator action
    as integer fields over one scale (see the module docstring)."""

    def __init__(self, params: ModuleParams, max_n: int, region: Region,
                 basis: tuple[BasisIndex, ...], scale: int, fields: dict):
        self.params, self.max_n, self.region = params, max_n, region
        self.basis, self.scale, self.fields = basis, scale, fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in _MODULE_FIELDS)

    # -- queries -----------------------------------------------------------

    def interior(self, idx: BasisIndex, depth: int = 2) -> bool:
        """True when `depth` successive actions from idx stay below max_n."""
        return idx.n + depth <= self.max_n

    @cached_property
    def rows(self):
        """The action as read-only rows: rows[gen][idx] is the tuple of the
        nonzero (target, value) terms of gen . idx, the upward term first,
        each value a Fraction or a GaussianRational, and the rows of gen
        come in basis order.  Made on first use, for the tests and the
        benchmark; the package itself reads the fields."""
        values: dict = {}
        rows = {}
        for gen, at in self.fields.items():
            terms: dict = {}
            for delta in sorted(at, reverse=True):
                (re, im), (dn, dm, dk) = at[delta], delta
                for idx, x, y in zip(self.basis, re, im or repeat(0)):
                    if x or y:
                        v = values.get((x, y)) or values.setdefault((x, y), _over(x, y, self.scale))
                        tgt = BasisIndex(idx.n + dn, idx.m + dm, idx.k + dk)
                        terms.setdefault(idx, []).append((tgt, v))
            rows[gen] = MappingProxyType(
                {idx: tuple(terms[idx]) for idx in self.basis if idx in terms})
        return MappingProxyType(rows)

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json(cls, doc: dict) -> "TruncatedModule":
        params = _params_from_json(doc["params"])
        region = Region.from_json(doc["support"])
        basis = tuple(
            BasisIndex(*(doc_int(b[key], f"basis.{key}") for key in "nmk")) for b in doc["basis"]
        )
        max_n = check_max_n(doc_int(doc["max_n"], "max_n"))
        if basis != tuple(
            BasisIndex(kt.n, kt.m, k) for kt in region.members(max_n) for k in range(1, kt.n + 1)
        ):
            raise Su21Error(
                "malformed module document: basis is not the basis of the support up to max_n"
            )
        # Each distinct (re, im) string pair is parsed once and laid out by
        # its id, its place in pairs; id 0 is the zero.  A bool or a float
        # equals an int as a dict key, so an index is looked up only once
        # all three entries are ints.
        index = {b: u for u, b in enumerate(basis)}
        ids: dict = {}
        pairs = [(Fraction(0), Fraction(0))]
        laid: dict = {gen: {} for gen in _GENERATORS}
        action = doc["action"]
        if not isinstance(action, dict):
            raise Su21Error("malformed module document: action is not an object")
        for gen_name, entries in action.items():
            laid_at = laid[Generator(gen_name)]
            done = set()
            for entry in entries:
                n, m, k = src = entry["from"]
                u = index.get((n, m, k)) if type(n) is int is type(m) is type(k) else None
                # Only the rows of basis vectors are replayed, one per vector.
                if u is None or u in done:
                    src = BasisIndex(*(doc_int(x, "action row index") for x in src))
                    raise Su21Error(f"malformed module document: {gen_name} row from {list(src)} "
                                    + ("comes twice" if src in index else "is not a basis index"))
                done.add(u)
                for tgt, re_s, im_s in entry["terms"]:
                    try:
                        i = ids[re_s, im_s]
                    except (KeyError, TypeError):
                        # A new pair, or an unhashable one that parse_rational
                        # rejects; a pair is stored only once both parse.
                        pairs.append((parse_rational(re_s), parse_rational(im_s)))
                        i = ids[re_s, im_s] = len(pairs) - 1
                    tn, tm, tk = tgt
                    if not type(tn) is int is type(tm) is type(tk):
                        tn, tm, tk = (doc_int(x, "action row index") for x in tgt)
                    z = laid_at.get((tn - n, tm - m, tk - k))
                    if z is None:
                        z = laid_at[tn - n, tm - m, tk - k] = [0] * (len(basis) + 1)
                    if z[u]:
                        # A row that lists one target twice acts by the sum.
                        (a, b), (c, e) = pairs[z[u]], pairs[i]
                        pairs.append((a + c, b + e))
                        i = len(pairs) - 1
                    z[u] = i
        used = set().union(*(z for laid_at in laid.values() for z in laid_at.values()))
        scale = math.lcm(*(x.denominator for i in used for x in pairs[i]))
        re_of, im_of = zip(*(
            (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            if i in used else (0, 0) for i, (x, y) in enumerate(pairs)
        ))
        fields = {gen: {} for gen in _GENERATORS}
        for gen, laid_at in laid.items():
            for delta, z in laid_at.items():
                im = list(map(im_of.__getitem__, z))
                fields[gen][delta] = (list(map(re_of.__getitem__, z)), im if any(im) else None)
        return cls(params, max_n, region, basis, scale, fields)


def _params_from_json(pj: dict) -> ModuleParams:
    """The parameters of a document's params object."""
    if pj["kind"] == "cone":
        return ConeParams(scalar_from_json(pj["c"]), doc_int(pj["t"], "params.t"))
    if pj["kind"] == "vertex":
        return VertexParams(doc_int(pj["r"], "params.r"), doc_int(pj["s"], "params.s"))
    raise Su21Error(f"malformed module document: unknown params.kind {pj['kind']!r}")


def _action(n: int, m: int, p: int, q: int, right: int, left: int, im: int, den: int) -> tuple:
    """The 13 rows (generator, dn, dm, dk, a, b, c, d) of the action at the
    K-type (n, m) at cone coordinate (p, q), with (right, left, im, den) =
    coefficients._ups(params, p, q), as the module docstring states them."""
    low = n * (n - 1)
    return (
        (Generator.H_ALPHA, 0, 0, 0, n + 1, -2, 0, 1),
        (Generator.H_BETA, 0, 0, 0, m - n - 1, 2, 0, 2),
        (Generator.Z, 0, 0, 0, m, 0, 0, 1),
        (Generator.X_ALPHA, 0, 0, -1, 1, -1, 0, 1),
        (Generator.Y_ALPHA, 0, 0, 1, -n, 1, 0, 1),
        (Generator.X_ALPHABETA, 1, 3, 0, right, 0, im, den),
        (Generator.X_ALPHABETA, -1, 3, -1, -q, q, 0, low),
        (Generator.X_BETA, 1, 3, 1, -right, 0, -im, den),
        (Generator.X_BETA, -1, 3, 0, n * q, -q, 0, low),
        (Generator.Y_ALPHABETA, 1, -3, 1, left, 0, im, den),
        (Generator.Y_ALPHABETA, -1, -3, 0, n * p, -p, 0, low),
        (Generator.Y_BETA, 1, -3, 0, left, 0, im, den),
        (Generator.Y_BETA, -1, -3, -1, p, -p, 0, low),
    )


def _check_closed(params: ModuleParams, region: Region) -> None:
    """InvalidParameter unless the upward coefficients across the walls of
    the region vanish.  The up-right coefficient depends on p alone and the
    up-left one on q alone, so one _ups call at (p_max, q_max) decides it
    at every truncation.  The message names the first K-type on an open
    wall in the order of Region.coords, by depth and then p: (p_max, 0)
    or (0, q_max), the up-right wall first at the vertex."""
    p_max, q_max = region.p_max, region.q_max
    right, left, im, _ = _ups(params, p_max or 0, q_max or 0)
    open_walls = [
        (direction, coord)
        for direction, coord, wall, y in (("up_right", ConeCoord(p_max or 0, 0), p_max, right),
                                          ("up_left", ConeCoord(0, q_max or 0), q_max, left))
        if wall is not None and (y or im)
    ]
    if open_walls:
        direction, coord = min(open_walls, key=lambda wall: (sum(wall[1]), wall[1].p))
        raise InvalidParameter(
            f"region is not closed under the action: nonzero {direction} "
            f"coefficient at {region.ktype_at(coord)} leaves the region"
        )


def build(params: ModuleParams, max_n: int, region: Optional[Region] = None) -> TruncatedModule:
    """Build the truncated module on a support region (default: the
    constituent of the lowest K-type).

    Two passes over the region: the first evaluates the table of each
    K-type and takes D, the lcm of the reduced denominators of its rows,
    (a + b k + c i)/d reducing to d/gcd(d, c, a + b, b) over k = 1..n, or
    to d/gcd(d, c, a + b) at n = 1; the second writes each row's
    numerators over D into a slice of its field.  A row whose entries
    are all 0 is left out, so a field holds only offsets the action has.

    Raises EmptyTruncation when max_n is below the vertex dimension, and
    InvalidParameter when max_n is above lattice.MAX_N_LIMIT or the region
    does not sit on the lowest K-type or is not closed under the action.
    """
    region = checked_region(params, region)
    if max_n < region.vertex.n:
        raise EmptyTruncation(
            f"max_n={max_n} is below the lowest K-type dimension {region.vertex.n}"
        )
    check_max_n(max_n)
    _check_closed(params, region)
    basis = []
    tables = []
    dens = set()
    vn, vm = region.vertex.n, region.vertex.m
    for coord in region.coords(max_n):
        p, q = coord.p, coord.q
        n, m = vn + p + q, vm + 3 * (p - q)
        right, left, im, den = _ups(params, p, q)
        basis += [BasisIndex(n, m, k) for k in range(1, n + 1)]
        # All-zero rows go before their denominators are read: at n = 1 the
        # downward rows are 0 over d = 0.
        table = [row for row in _action(n, m, p, q, right, left, im, den)
                 if row[6] or row[4] + row[5] or n > 1 and row[5]]
        dens.update(d // math.gcd(d, c, a + b, b if n > 1 else 0)
                    for _, _, _, _, a, b, c, d in table)
        tables.append((n, table))
    scale = math.lcm(*dens)
    size = len(basis)
    fields: dict = {gen: {} for gen in _GENERATORS}
    start = 0
    for n, table in tables:
        for gen, dn, dm, dk, a, b, c, d in table:
            field = fields[gen].get((dn, dm, dk))
            if field is None:
                field = fields[gen][dn, dm, dk] = ([0] * (size + 1), [0] * (size + 1))
            # The numerators (a + b k) D/d, k = 1..n; b D/d is an integer when n > 1.
            x, step = (a + b) * scale // d, b * scale // d
            field[0][start:start + n] = range(x, x + step * n, step) if n > 1 and b else [x] * n
            field[1][start:start + n] = [c * scale // d] * n
        start += n
    fields = {gen: {delta: (re, im if any(im) else None) for delta, (re, im) in at.items()}
              for gen, at in fields.items()}
    return TruncatedModule(params, max_n, region, tuple(basis), scale, fields)


def _head_parts(params: ModuleParams, max_n: int, region: Region):
    """The document up to the end of its basis: params, max_n and support
    through json.dumps, then the basis one K-type at a time.  They follow
    from the header alone, not from the action."""
    if isinstance(params, ConeParams):
        params_json = {"kind": "cone", "c": scalar_to_json(params.c), "t": params.t}
    else:
        params_json = {"kind": "vertex", "r": params.r, "s": params.s}
    head = {"params": params_json, "max_n": max_n, "support": region.to_json()}
    yield json.dumps(head, separators=(",", ":"))[:-1] + ',"basis":['
    sep = ""
    for kt in region.members(max_n):
        yield sep + ",".join(['{"n":%d,"m":%d,"k":%d}' % (*kt, k) for k in range(1, kt.n + 1)])
        sep = ","


def _action_parts(mod: TruncatedModule):
    """The action of the document, one generator at a time, joined from
    text fragments: per generator and offset one column over the basis of
    ',[[n,m,k],"re","im"]' or "" for a 0, each head made of one "[[n,m,"
    per K-type and each tail rendered once per integer pair."""
    scale = mod.scale
    blocks = [(n, m) for n, m, k in mod.basis if k == 1]
    ks = ["%d]" % k for k in range(mod.max_n + 2)]
    tails: dict = {}

    def column(delta: tuple, re: list, im: Optional[list]) -> list:
        dn, dm, dk = delta
        keys, zero = (list(zip(re, im)), (0, 0)) if im else (re, 0)
        for key in set(keys).difference(tails):
            x, y = key if im else (key, 0)
            tails[key] = ',"%s","%s"]' % (render_rational(Fraction(x, scale)),
                                          render_rational(Fraction(y, scale)))
        heads = chain.from_iterable(map((",[[%d,%d," % (n + dn, m + dm)).__add__,
                                        ks[1 + dk:n + 1 + dk]) for n, m in blocks)
        out = list(map(str.__add__, heads, map(tails.__getitem__, keys)))
        for u in compress(range(len(out)), map(zero.__eq__, keys)):
            out[u] = ""
        return out

    froms = ['{"from":[%d,%d,%d],"terms":[' % b for b in mod.basis]
    sep = '],"action":{'
    for gen in _GENERATORS:
        at = mod.fields[gen]
        columns = (column(delta, *at[delta]) for delta in sorted(at, reverse=True))
        terms = map("".join, zip(*columns))
        rows = [text + t[1:] + "]}" for text, t in zip(froms, terms) if t]
        yield '%s"%s":[%s]' % (sep, gen.value, ",".join(rows))
        sep = ","
    yield "}"


def _tail(norms) -> str:
    """The end of the document: its norms, if any, and the closing brace."""
    if norms is None:
        return "}"
    return ',"norms":%s}' % json.dumps(norms.to_json(), separators=(",", ":"))


def module_to_json_str(mod: TruncatedModule, norms=None) -> str:
    """The module document as compact JSON on one line: _head_parts,
    _action_parts and _tail, joined."""
    return "".join(chain(_head_parts(mod.params, mod.max_n, mod.region),
                         _action_parts(mod), [_tail(norms)]))


def _consume(text: str, pos: int, parts) -> int:
    """The position in text after parts, laid one after another from pos;
    ValueError at the first part that differs."""
    for part in parts:
        if not text.startswith(part, pos):
            raise ValueError("not the canonical document")
        pos += len(part)
    return pos


def canonical_module(text: str) -> Optional[TruncatedModule]:
    """The module build makes of the params and max_n in the header of a
    document (its text before ',"basis":['), when the whole text is, byte
    for byte, what module_to_json_str writes for that module, with or
    without its norms; None at the first part that differs or on any
    error, and the document is then for the parse to judge.  The header
    and the basis are compared before build runs, and each part of the
    action as it is rendered, so a document that differs early costs
    little, and a short one that claims a large max_n builds nothing."""
    try:
        head = json.loads(text[:text.index(',"basis":[')] + "}")
        params = _params_from_json(head["params"])
        max_n = check_max_n(doc_int(head["max_n"], "max_n"))
        region = checked_region(params, None)
        pos = _consume(text, 0, _head_parts(params, max_n, region))
        mod = build(params, max_n, region)
        pos = _consume(text, pos, _action_parts(mod))
        if text[pos:] != _tail(None):
            from .unitarity import build_norms

            if text[pos:] != _tail(build_norms(mod)):
                return None
        return mod
    except (Su21Error, KeyError, RecursionError, TypeError, ValueError):
        # What a malformed document raises here, the parse reports.
        return None


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
    except (RecursionError, TypeError, ValueError) as exc:
        # json.loads raises RecursionError on arrays or objects nested too deeply.
        raise Su21Error(f"malformed module document: {exc}") from exc
