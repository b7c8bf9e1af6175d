"""Theorem tmgk for both families at once, from a finite grid.

Fix a pair of generators and a target label offset.  The residual
(XY - YX - [X, Y])v at v^k of the K-type at cone coordinate (p, q), with
n = vertex.n + p + q, is a sum of products of two entries of build's
table (builder._action) and of one entry alone.  Each entry is
(a + b k + c i)/d, with d free of p, q and k on the upward and diagonal
rows and d = n(n-1) on the downward ones.  A residual reads downward rows at three
K-types: from n, n(n-1); from n-1, (n-1)(n-2); from n+1 after a step up,
(n+1)n.  So times L = (n+1)n(n-1)^2(n-2) the residual is a polynomial:

- of degree <= 2 in c, t and k, and in j for W(r, s) with s = 2j + 1 - r,
  since each entry is affine in each of them and L holds none of them;
- of degree <= 9 in p, q and r, since each entry, times n(n-1) on a
  downward row, has degree <= 2 in each of them and L has degree 5.

A polynomial of degree <= d_x in each variable x that vanishes on a
product grid with d_x + 1 values of each x is zero: the combinatorial
Nullstellensatz (Alon, Combinatorics, Probability and Computing 8, 1999).
The grid below takes those sizes from DEGREE: c, t in {0, 1, 2}, k in
{1, 2, 3}, p, q in 1..10, and for W(r, s) r in 2..11 and j in 0..2.  Every
grid point is an interior vector of the full-cone module at max_n
vertex.n + 22, and the plain integer replay verify._replay checks all 28
pairs there, with the row of Z, which is affine too.  The residual's
coefficients as a polynomial in c are real, so a nonreal c needs no grid
of its own once its entries are the same affine polynomials at complex c.
A support module is a restriction of the full cone, since every term that
leaves a support has coefficient 0 at the wall (builder._check_closed).

So every module of both families satisfies every commutation relation at
every interior vector where L is not 0.  L is 0 at n <= 2: the cells of
EXCLUDED, which check_commutators replays on every call.  The proof rests
on the degrees, so test_entries_have_the_stated_degrees checks them on a
window wider than the grid: an edit that raises a degree fails there, not
on a grid that has become too small.  The invariant form is not certified
here.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from su21dual import BasisIndex, ConeParams, Region, VertexParams, build
from su21dual import verify
from su21dual.builder import _action
from su21dual.coefficients import _ups
from su21dual.scalars import GaussianRational

F = Fraction

# The degree of each entry in each variable, times n(n-1) on a downward row;
# L has degree 5 in n, so in p, q and r.
ENTRY_DEGREE = {"c": 1, "t": 1, "k": 1, "j": 1, "p": 2, "q": 2, "r": 2}
# The degree of the residual times L, one less than the values of the grid.
DEGREE = {x: 2 * e + 5 * (x in "pqr") for x, e in ENTRY_DEGREE.items()}


def _values(var: str, first: int) -> range:
    return range(first, first + DEGREE[var] + 1)


CONE_GRID = [ConeParams(F(c), t) for c in _values("c", 0) for t in _values("t", 0)]
VERTEX_GRID = [VertexParams(r, 2 * j + 1 - r) for r in _values("r", 2) for j in _values("j", 0)]
CELLS = [(p, q, k) for p in _values("p", 1) for q in _values("q", 1) for k in _values("k", 1)]

# The cells (p, q) at which L = 0, n <= 2, by the vertex dimension: the
# vertex and its two neighbours on the cones (1), the vertex of W(2, s) (2).
EXCLUDED = {1: [(0, 0), (0, 1), (1, 0)], 2: [(0, 0)]}


def _certify(params):
    """The plain full replay of the full-cone module of params at the
    max_n whose interior holds every grid cell."""
    mod = build(params, params.vertex.n + 2 + 2 * max(_values("p", 1)), Region(params.vertex))
    vn, vm = params.vertex
    for p, q, k in CELLS:
        idx = BasisIndex(vn + p + q, vm + 3 * (p - q), k)
        assert idx in mod.basis and mod.interior(idx), idx
    report = verify._replay(mod)
    assert report.failures == [], (params, report.failures[:3])
    return report.checked


def test_cone_grid():
    assert sum(map(_certify, CONE_GRID)) == 873_288


def test_vertex_grid():
    assert sum(map(_certify, VERTEX_GRID)) == 4_023_720


def _cofactor(n: int) -> int:
    return (n + 1) * n * (n - 1) ** 2 * (n - 2)


def test_excluded_cells_are_those_where_the_cofactor_vanishes():
    """The cones have vertex dimension 1 and W(r, s) has r >= 2."""
    for n0 in range(1, 9):
        zeros = [(p, q) for p in range(8) for q in range(8) if _cofactor(n0 + p + q) == 0]
        assert zeros == EXCLUDED.get(n0, []), n0


def test_excluded_cells_lie_in_the_layers_check_commutators_replays():
    """check_commutators replays build(params, vertex.n + REPLAYED_DEPTH,
    region) of every module build makes, whose interior is the K-types of
    dimension n with n + 2 <= vertex.n + REPLAYED_DEPTH.  It holds each
    excluded cell and, a layer to spare, each cell next to one, whose
    residual reads that cell's rows."""
    for n0, cells in EXCLUDED.items():
        near = {(p + dp, q + dq) for p, q in cells for dp, dq in ((0, 0), (1, 0), (0, 1))}
        assert all(n0 + p + q + 2 <= n0 + verify.REPLAYED_DEPTH for p, q in near), n0


def _entries(params, p: int, q: int, ks) -> list:
    """Each row of build's table at (p, q) at each k of ks, as twice the
    real and the imaginary part of (a + b k + c i)/d, times n(n-1) = d on
    the downward rows: integers, since d is 1 or 2 on the other rows for an
    integer c or on W(r, s)."""
    n, m = params.vertex.n + p + q, params.vertex.m + 3 * (p - q)
    rows = _action(n, m, p, q, *_ups(params, p, q))
    assert all(2 % d == 0 for _, dn, _, _, _, _, _, d in rows if dn >= 0)
    return [[(2 * (a + b * k) // d, 2 * c // d) if dn >= 0 else (a + b * k, c) for k in ks]
            for _, dn, _, _, a, b, c, d in rows]


# The window of the degree check, each range wider than the grid's.
WINDOW = {"c": range(4), "t": range(4), "j": range(4), "r": range(2, 13),
          "p": range(12), "q": range(12), "k": range(1, 5)}


def _differences_vanish(axes: list, make) -> None:
    """The finite differences of each entry, of order ENTRY_DEGREE + 1
    along each of axes, p, q and k, vanish over the WINDOW grid of make's
    parameters, (p, q) and k."""
    names = axes + ["p", "q"]
    table = np.empty([len(WINDOW[x]) for x in names] + [13, len(WINDOW["k"]), 2], dtype=object)
    for at in product(*(enumerate(WINDOW[x]) for x in axes)):
        params = make(*(x for _, x in at))
        for p, q in product(WINDOW["p"], WINDOW["q"]):
            table[(*(i for i, _ in at), p, q)] = _entries(params, p, q, WINDOW["k"])
    for axis, name in [*enumerate(names), (len(names) + 1, "k")]:
        assert not np.diff(table, n=ENTRY_DEGREE[name] + 1, axis=axis).any(), name


def test_entries_have_the_stated_degrees():
    """Order 3 in p, q and r, for degree <= 2, and order 2 in k, c, t and
    j; and a step of i in c moves each entry by i times a step of 1, so
    the entries at nonreal c are the same affine polynomials."""
    _differences_vanish(["c", "t"], lambda c, t: ConeParams(F(c), t))
    _differences_vanish(["r", "j"], lambda r, j: VertexParams(r, 2 * j + 1 - r))
    for t, p, q in product(WINDOW["t"], WINDOW["p"], WINDOW["q"]):
        zero, one, i = [_entries(ConeParams(c, t), p, q, WINDOW["k"]) for c in (0, 1, GaussianRational(0, 1))]
        assert [[(x - z, y - w) for (x, y), (z, w) in zip(*rows)] for rows in zip(i, zero)] == [
            [(w - y, x - z) for (x, y), (z, w) in zip(*rows)] for rows in zip(one, zero)], (t, p, q)
