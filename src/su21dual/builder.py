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
weighted by (k-1)/(n-1) or (n-k)/(n-1), with sign.  An entry is stored iff
it is nonzero: every entry whose target index would leave 1..n is zero,
and at n = 1 the downward rows are zero throughout, so there is no other
case.  A region passed to build, is_unitary or check_coefficient_relations
must sit on the lowest K-type of the parameters (checked_region).

Action targets one dimension above max_n are stored exactly and flagged as
truncated; relation checks only ever run on interior vectors.

A module of a few hundred K-types holds tens of thousands of action
entries but only a few hundred distinct values and one index per label, so
every layer handles each once per module: build makes each value once and
each index once, in one block per K-type; from_json parses each (re, im)
string pair and each row index once; action_form clears each value object
once, and module_to_json_str renders each value and index object once.
Every such memo is a dict local to one call.  action_form is the one
integer core of the commutator and adjoint replays: per generator and
label offset, one list of numerators over the basis, whose interior prefix
it sizes and keeps in the basis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from operator import add
from typing import NamedTuple, Optional

from .algebra import INDEPENDENT, Generator
from .coefficients import (
    ConeParams,
    ModuleParams,
    Poly,
    VertexParams,
    _over,
    _ups,
    sign_polys,
)
from .errors import EmptyTruncation, InvalidBasisIndex, InvalidParameter, Su21Error
from .lattice import KType, Region, check_max_n, doc_int
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

    @classmethod
    def from_json(cls, doc: dict) -> "TruncatedModule":
        pj = doc["params"]
        if pj["kind"] == "cone":
            c = scalar_from_json(pj["c"])
            params: ModuleParams = ConeParams(c, doc_int(pj["t"], "params.t"))
        elif pj["kind"] == "vertex":
            params = VertexParams(doc_int(pj["r"], "params.r"), doc_int(pj["s"], "params.s"))
        else:
            raise Su21Error(f"malformed module document: unknown params.kind {pj['kind']!r}")
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
        # One object per distinct index and per distinct (re, im) string pair.
        # A bool or a float is equal to an int as a dict key, so each index
        # reads the memo inline only once all three entries are ints, and
        # index() takes the rest: a new index, or one it rejects.
        indices = {b: b for b in basis}
        values: dict = {}

        def index(value) -> BasisIndex:
            idx = BasisIndex(*(doc_int(x, "action row index") for x in value))
            return indices.setdefault(idx, idx)

        rows: dict = {gen: {} for gen in _GENERATORS}
        members = set(basis)
        for gen_name, entries in doc["action"].items():
            gen_rows = rows[Generator(gen_name)]
            for entry in entries:
                n, m, k = src = entry["from"]
                src = type(n) is int is type(m) is type(k) and indices.get((n, m, k)) or index(src)
                # Only the rows of basis vectors are replayed, one per vector.
                if src not in members or src in gen_rows:
                    raise Su21Error(f"malformed module document: {gen_name} row from {list(src)} "
                                    + ("comes twice" if src in members else "is not a basis index"))
                terms = []
                for tgt, re_s, im_s in entry["terms"]:
                    try:
                        val = values[re_s, im_s]
                    except (KeyError, TypeError):
                        # A new pair, or an unhashable one that parse_rational
                        # rejects; a pair is stored only once both parse.
                        re_, im_ = parse_rational(re_s), parse_rational(im_s)
                        val = values[re_s, im_s] = re_ if im_ == 0 else GaussianRational(re_, im_)
                    n, m, k = tgt
                    idx = type(n) is int is type(m) is type(k) and indices.get((n, m, k))
                    terms.append((idx or index(tgt), val))
                gen_rows[src] = tuple(terms)
        return cls(params, max_n, region, basis, rows)


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


def build(params: ModuleParams, max_n: int, region: Optional[Region] = None) -> TruncatedModule:
    """Build the truncated module on a support region (default: the
    constituent of the lowest K-type).

    Every value is made once per call, through a dict keyed by its reduced
    (re, im, den) triple, so equal values share one object, and so is each
    column of a row's values over k.  Each basis entry and row target is an
    item of one index block per K-type.

    Raises EmptyTruncation when max_n is below the vertex dimension, and
    InvalidParameter when max_n is above lattice.MAX_N_LIMIT or the region
    does not sit on the lowest K-type or is not closed under the action.
    """
    region = checked_region(params, region)
    if max_n < region.vertex.n:
        raise EmptyTruncation(
            f"max_n={max_n} is below the lowest K-type dimension {region.vertex.n}"
        )

    values: dict = {}

    def value(re: int, im: int, den: int) -> Scalar:
        g = math.gcd(re, im, den)
        key = re // g, im // g, den // g
        v = values.get(key)
        if v is None:
            v = values[key] = _over(*key)
        return v

    # A row's values (a + b k + c i)/d for k = 1..n, None where 0; rows recur across K-types.
    columns: dict = {}

    def column(a: int, b: int, c: int, d: int, n: int) -> list:
        col = columns[a, b, c, d, n] = [
            value(re, c, d) if re or c else None for re in range(a + b, a + b * (n + 1), b)
        ] if b else [value(a, c, d)] * n
        return col

    # The index block of a K-type: BasisIndex(n, m, k) for k = 0..n+1, made
    # the first time the action reaches it, one layer off the region too.
    blocks: dict = {}

    def block(n: int, m: int) -> list:
        ks = blocks.get((n, m))
        if ks is None:
            ks = blocks[n, m] = [BasisIndex(n, m, k) for k in range(n + 2)]
        return ks

    basis = []
    rows: dict = {gen: {} for gen in _GENERATORS}
    vn, vm = region.vertex.n, region.vertex.m
    for coord in region.coords(check_max_n(max_n)):
        p, q = coord.p, coord.q
        n, m = vn + p + q, vm + 3 * (p - q)
        right, left, im, den = _ups(params, p, q)
        for direction, x, wall, y in (("up_right", p, region.p_max, right),
                                      ("up_left", q, region.q_max, left)):
            if x == wall and (y or im):
                raise InvalidParameter(
                    f"region is not closed under the action: nonzero {direction} "
                    f"coefficient at {KType(n, m)} leaves the region"
                )
        heres = block(n, m)[1:n + 1]
        basis += heres
        for gen, dn, dm, dk, a, b, c, d in _action(n, m, p, q, right, left, im, den):
            if not (a or b or c):
                continue  # before its value: at n = 1 the downward rows are 0 over d = 0
            gen_rows = rows[gen]
            tgts = block(n + dn, m + dm)[1 + dk:n + 1 + dk]
            vals = columns.get((a, b, c, d, n)) or column(a, b, c, d, n)
            for here, tgt, v in zip(heres, tgts, vals):
                if v is not None:
                    # A downward term follows its generator's upward one.
                    gen_rows[here] = gen_rows.get(here, ()) + ((tgt, v),)
    return TruncatedModule(params, max_n, region, tuple(basis), rows)


class ActionForm(NamedTuple):
    """The action in integers, one field per generator and label offset.

    labels is the basis in sorted order; its first count entries are the
    interior vectors.  fields[gen][delta] is a pair (re, im) of lists over
    the positions of labels plus one zero past them: gen . labels[u] has
    (re[u] + im[u] i)/scale times labels[u] + delta, summed over the row's
    terms with that target; im is None when every entry is real.
    shifts[delta], for the zero offset, the offset of every field and its
    negative, maps each position u to that of labels[u] + delta, or to
    len(labels), the zero, when that is not a basis index.
    """

    scale: int
    labels: list[BasisIndex]
    count: int
    fields: dict[Generator, dict[tuple, tuple[list[int], Optional[list[int]]]]]
    shifts: dict[tuple, list[int]]

    def image(self, terms: dict, size: int) -> dict:
        """The sum of (cr + ci i) fields[gen] over the items gen: (cr, ci)
        of terms, per label offset, as a field cut to size positions."""
        out: dict = {}
        for gen, (cr, ci) in terms.items():
            for delta, (a, b) in self.fields[gen].items():
                # (cr + ci i)(a + b i) = (cr a - ci b) + (ci a + cr b) i
                sums = out.setdefault(delta, [None, None])
                for part, c, z in ((0, cr, a), (0, -ci, b), (1, ci, a), (1, cr, b)):
                    if c and z:
                        z = map(c.__mul__, z[:size])
                        sums[part] = list(z if sums[part] is None else map(add, sums[part], z))
        return {delta: (re or [0] * size, im) for delta, (re, im) in out.items()}


def action_form(mod: TruncatedModule, depth: int) -> ActionForm:
    """The integer form of the rows on the basis, scaled by D, the lcm of
    all real and imaginary denominators of its entries, whose interior
    vectors are those of the given depth (TruncatedModule.interior).

    The entries are first laid out as value objects, one list per field;
    then each distinct object is split and cleared once, through a dict
    keyed by its id: the lists keep every value alive, so no id is reused.
    Keying on the value itself would hash each Fraction, which costs more
    than clearing it.  Raises InvalidBasisIndex when a nonzero step of an
    independent generator from an interior vector leaves the basis.
    """
    labels = sorted(set(mod.basis))
    size = len(labels)
    count = sum(1 for idx in labels if mod.interior(idx, depth))
    index = {b: i for i, b in enumerate(labels)}
    zero = Fraction(0)
    laid = {gen: {} for gen in _GENERATORS}
    for gen, objs_at in laid.items():
        for src, row in mod.rows[gen].items():
            u = index.get(src)
            if u is None:
                continue
            n, m, k = src
            for (tn, tm, tk), v in row:
                objs = objs_at.get((tn - n, tm - m, tk - k))
                if objs is None:
                    objs = objs_at[tn - n, tm - m, tk - k] = [zero] * (size + 1)
                # A row that lists one target twice acts by the sum.
                objs[u] = v if objs[u] is zero else objs[u] + v
    every = list(chain.from_iterable(f for objs_at in laid.values() for f in objs_at.values()))
    parts = {key: _parts(v) for key, v in dict(zip(map(id, every), every)).items()}
    scale = math.lcm(*{x.denominator for pair in parts.values() for x in pair})
    cleared = {key: [x.numerator * (scale // x.denominator) for x in pair]
               for key, pair in parts.items()}
    fields = {gen: {} for gen in _GENERATORS}
    for gen, objs_at in laid.items():
        for delta, objs in objs_at.items():
            re, im = map(list, zip(*map(cleared.__getitem__, map(id, objs))))
            fields[gen][delta] = (re, im if any(im) else None)
    deltas = {delta for f in fields.values() for delta in f}
    shifts = {(dn, dm, dk): [index.get((n + dn, m + dm, k + dk), size) for n, m, k in labels]
              for dn, dm, dk in deltas | {(-x, -y, -z) for x, y, z in deltas} | {(0, 0, 0)}}
    if any(any(compress(z[:count], map(size.__eq__, shifts[delta][:count])))
           for gen in INDEPENDENT for delta, field in fields[gen].items() for z in field if z):
        tgt = next(tgt for idx in labels[:count] for gen in INDEPENDENT
                   for tgt, v in mod.rows[gen].get(idx, ()) if v != 0 and tgt not in index)
        raise InvalidBasisIndex(f"{BasisIndex(*tgt)} is not a basis index of this module")
    return ActionForm(scale, labels, count, fields, shifts)


def module_to_json_str(mod: TruncatedModule, norms=None) -> str:
    """The module document as compact JSON on one line: params, support
    and norms through json.dumps, the basis and the action joined from
    text fragments, the "[[n,m,k]" head of each index object and the
    ',"re","im"]' tail of each value object, each rendered once per call
    and keyed by id, since mod.rows keeps every object alive."""
    params = mod.params
    if isinstance(params, ConeParams):
        params_json = {"kind": "cone", "c": scalar_to_json(params.c), "t": params.t}
    else:
        params_json = {"kind": "vertex", "r": params.r, "s": params.s}
    head = {"params": params_json, "max_n": mod.max_n, "support": mod.region.to_json()}
    heads: dict = {}
    tails: dict = {}

    def fragments(t, v) -> tuple:
        if id(t) not in heads:
            heads[id(t)] = "[[%d,%d,%d]" % t
        if id(v) not in tails:
            tails[id(v)] = ',"%s","%s"]' % tuple(map(render_rational, _parts(v)))
        return heads[id(t)], tails[id(v)], ","

    froms = ['{"from":[%d,%d,%d],"terms":[' % b for b in mod.basis]
    action = []
    for gen in _GENERATORS:
        out = []
        gen_rows = mod.rows[gen]
        for idx, text in zip(mod.basis, froms):
            row = gen_rows.get(idx)
            if not row:
                continue
            out.append(text)
            for t, v in row:
                try:
                    out += heads[id(t)], tails[id(v)], ","
                except KeyError:
                    out += fragments(t, v)
            out[-1] = "]},"
        action.append('"%s":[%s]' % (gen.value, "".join(out)[:-1]))
    doc = [
        json.dumps(head, separators=(",", ":"))[:-1],
        ',"basis":[', ",".join(['{"n":%d,"m":%d,"k":%d}' % b for b in mod.basis]),
        '],"action":{', ",".join(action), "}",
    ]
    if norms is not None:
        doc += ',"norms":', json.dumps(norms.to_json(), separators=(",", ":"))
    return "".join(doc) + "}"


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
