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

Action targets one dimension above max_n are stored like any other;
relation checks only ever run on interior vectors.

A module stores its action once, in integers: scale D, the lcm of the
reduced denominators of all its entries, and fields[gen][delta], a pair
(re, im) of lists over the basis positions plus one zero past them, with
gen . basis[u] having (re[u] + im[u] i)/D times basis[u] + delta; im is
None when every entry is real.  build writes each field as one column of
the table, row i of _action at every K-type (each row keeps its generator
and offset from K-type to K-type), module_to_json_str reads them by
columns of text and the replays of verify as they are.  rows is a
read-only view of them.

A module is fixed by its params and max_n, so a document is only the
claim that it is what build makes of them.  It has one writer, in three
parts: _head_parts (params and max_n, the support, then the basis K-type
by K-type, all fixed by the header), _action_parts (generator by
generator) and _tail (the norms of unitarity.document_norms, if any).
module_to_json_str joins them, and module_from_json_str, the one reader,
compares a document with them front to back, building the module only
once the header and basis match.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from types import MappingProxyType
from typing import NamedTuple, Optional

from .algebra import GENERATORS, Generator
from .coefficients import ConeParams, ModuleParams, VertexParams, _over, _ups, checked_region
from .errors import EmptyTruncation, InvalidParameter, Su21Error
from .lattice import ConeCoord, Region, check_max_n, doc_int
from .scalars import render_rational, scalar_from_json, scalar_to_json


class BasisIndex(NamedTuple):
    n: int
    m: int
    k: int


class TruncatedModule:
    """A finite slice of a module: basis indices plus the generator action
    as integer fields over one scale (see the module docstring)."""

    def __init__(self, params: ModuleParams, max_n: int, region: Region,
                 basis: tuple[BasisIndex, ...], scale: int, fields: dict):
        self.params, self.max_n, self.region = params, max_n, region
        self.basis, self.scale, self.fields = basis, scale, fields

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


def _check_truncation(region: Region, max_n: int) -> None:
    """EmptyTruncation when max_n is below the vertex dimension of region,
    then InvalidParameter unless 1 <= max_n <= lattice.MAX_N_LIMIT."""
    if max_n < region.vertex.n:
        raise EmptyTruncation(
            f"max_n={max_n} is below the lowest K-type dimension {region.vertex.n}"
        )
    check_max_n(max_n)


def build(params: ModuleParams, max_n: int, region: Optional[Region] = None) -> TruncatedModule:
    """Build the truncated module on a support region (default: the
    constituent of the lowest K-type).

    The table of each K-type is evaluated once, and D is the lcm of the
    reduced denominators of its nonzero rows, (a + b k + c i)/d reducing
    to d/gcd(d, c, a + b, b) over k = 1..n, or to d/gcd(d, c, a + b) at
    n = 1.  Then each row is one column: one pass over the K-types extends
    one list by the numerators over D of its n entries, and the imaginary
    list, when some c is nonzero, is joined the same way.  A field whose
    entries are all 0 is left out, so a field holds only offsets the
    action has.  The labels are made by tuple.__new__, not one
    BasisIndex(...) call each.

    Raises EmptyTruncation when max_n is below the vertex dimension, and
    InvalidParameter when max_n is above lattice.MAX_N_LIMIT or the region
    does not sit on the lowest K-type or is not closed under the action.
    """
    region = checked_region(params, region)
    _check_truncation(region, max_n)
    _check_closed(params, region)
    vn, vm = region.vertex.n, region.vertex.m
    blocks, tables = [], []
    for coord in region.coords(max_n):
        p, q = coord.p, coord.q
        n, m = vn + p + q, vm + 3 * (p - q)
        blocks.append((n, m))
        tables.append(_action(n, m, p, q, *_ups(params, p, q)))
    basis = tuple(map(tuple.__new__, repeat(BasisIndex), chain.from_iterable(
        zip(repeat(n, n), repeat(m, n), range(1, n + 1)) for n, m in blocks)))
    ns = [n for n, _ in blocks]
    # A row whose entries are all 0 leaves its denominator unread: at n = 1 the
    # downward rows are 0 over d = 0.
    scale = math.lcm(*{d // math.gcd(d, c, a + b, b if n > 1 else 0) for n, table in zip(ns, tables)
                       for _, _, _, _, a, b, c, d in table if c or a + b or n > 1 and b})
    fields: dict = {gen: {} for gen in GENERATORS}
    for column in zip(*tables):
        # The numerators (a + b k) D/d, k = 1..n, K-type by K-type; b D/d is an
        # integer when n > 1, and a 0 is not divided, as d may be.
        re = []
        for n, (_, _, _, _, a, b, _, d) in zip(ns, column):
            if n > 1 and b:
                x, step = (a + b) * scale // d, b * scale // d
                re += range(x, x + step * n, step)
            else:
                re += [(a + b) and (a + b) * scale // d] * n
        im = any(row[6] for row in column) and [*chain.from_iterable(
            repeat(c and c * scale // d, n) for n, (*_, c, d) in zip(ns, column)), 0]
        if im or any(re):
            gen, dn, dm, dk = column[0][:4]
            fields[gen][dn, dm, dk] = re + [0], im or None
    return TruncatedModule(params, max_n, region, basis, scale, fields)


def _head_parts(params: ModuleParams, max_n: int, region: Region):
    """The document up to the end of its basis: params and max_n, then the
    support, each through json.dumps, then the basis one K-type at a time.
    They follow from the header alone, not from the action."""
    if isinstance(params, ConeParams):
        params_json = {"kind": "cone", "c": scalar_to_json(params.c), "t": params.t}
    else:
        params_json = {"kind": "vertex", "r": params.r, "s": params.s}
    head = {"params": params_json, "max_n": max_n}
    yield json.dumps(head, separators=(",", ":"))[:-1] + ',"support":'
    yield json.dumps(region.to_json(), separators=(",", ":")) + ',"basis":['
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
    for gen in GENERATORS:
        at = mod.fields[gen]
        columns = (column(delta, *at[delta]) for delta in sorted(at, reverse=True))
        terms = map("".join, zip(*columns))
        rows = [text + t[1:] + "]}" for text, t in zip(froms, terms) if t]
        yield '%s"%s":[%s]' % (sep, gen, ",".join(rows))
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


def _consume(text: str, pos: int, parts, message: str) -> int:
    """The position in text after parts, laid one after another from pos;
    Su21Error(message) at the first part that differs."""
    for part in parts:
        if not text.startswith(part, pos):
            raise Su21Error(message)
        pos += len(part)
    return pos


def _built_module(text: str) -> TruncatedModule:
    """The module build makes of the params and max_n in the header of a
    compact document (its text before ',"basis":['), when the text is what
    module_to_json_str writes for it, with or without its norms."""
    try:
        head = json.loads(text[:text.index(',"basis":[')] + "}")
        params = _params_from_json(head["params"])
        max_n = check_max_n(doc_int(head["max_n"], "max_n"))
    except KeyError as exc:
        raise Su21Error(f"malformed module document: missing key {exc}") from exc
    except (RecursionError, TypeError, ValueError) as exc:
        raise Su21Error(f"malformed module document: {exc}") from exc
    region = checked_region(params, None)
    parts = _head_parts(params, max_n, region)
    pos = _consume(text, 0, [next(parts)],
                   "malformed module document: params and max_n are not in canonical form")
    pos = _consume(text, pos, [next(parts)], "the stored support differs from the support of params")
    pos = _consume(text, pos, parts,
                   "malformed module document: basis is not the basis of the support up to max_n")
    mod = build(params, max_n, region)
    pos = _consume(text, pos, _action_parts(mod), "the stored action differs from the action of params")
    if text[pos:] != _tail(None):
        from .unitarity import document_norms

        norms = document_norms(mod)
        if norms is None:
            raise Su21Error("the module of params is not unitary, so its document has no norms")
        if text[pos:] != _tail(norms):
            raise Su21Error("the stored norms differ from the invariant form of the module")
    return mod


def module_from_json_str(text: str) -> TruncatedModule:
    """The module of a document, which must be what build writes of the
    params and max_n in its header: a one-line Su21Error names the first
    part that differs.  The header and the basis are compared before build
    runs, and each part of the action as it is rendered, so a document that
    differs early costs little, and a short one that claims a large max_n
    builds nothing.  JSON's whitespace around the document is dropped, and
    one laid out otherwise (an indent, spaces) is compared once more in
    compact form."""
    text = text.strip(" \t\n\r")
    try:
        return _built_module(text)
    except Su21Error as exc:
        # Without its traceback the error no longer holds the module built.
        differs = exc.with_traceback(None)
    try:
        compact = json.dumps(json.loads(text), separators=(",", ":"))
    except (RecursionError, ValueError) as exc:
        # json.loads raises RecursionError on arrays or objects nested too deeply.
        raise Su21Error(f"malformed module document: {exc}") from exc
    if compact == text:
        raise differs
    del text, differs  # only the compact form is read again
    return _built_module(compact)
