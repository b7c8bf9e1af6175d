"""Theorem tmunit for every real c, not a grid.

The cone family.  Fix t >= 0 and a real c = a/d.  The sign polynomials of
V(c, 2t) are d times

    P_R(x) = 2c - (x+1)t - x(x+2),   P_L(x) = 2c + (x+1)t - x(x+2),

so c enters both only through the constant term.  The verdict of
certificate(support_of(V(c, 2t))) reads three things off them: the walls,
which are the smallest nonnegative integer roots; the argmax x* of each
polynomial over the interior edges, which depends only on the x^2 and x
terms and so not on c; and the sign of each polynomial at x* and at its
wall.  Call c a wall value when P_R or P_L has a nonnegative integer
root: c = ((x+1)t + x(x+2))/2 or c = (x(x+2) - (x+1)t)/2 for an integer
x >= 0.  On an open interval of c holding no wall value the support is
the full cone and x* is fixed, so P(x*), affine in c, could change sign
only where x* is a root, at a wall value.  So the verdict is constant on
each gap between wall values.

Only c <= -t/2 can be unitary.  x = 0 is an interior edge or the wall of
each polynomial, so a unitary module has P_R(0) = 2c - t <= 0 and
P_L(0) = 2c + t <= 0.  At or below -t/2 lie only the wall values of P_L
with x <= t - 2, -t/2 itself among them (x = 0), so the wall values of
x <= t + 1 include every one that matters.

So it is enough to evaluate the verdict at each of those wall values, at
one point of each gap between two of them and at one point beyond each
end.  The unitary set must then be exactly (-inf, c(t)) with the points
c(l, t): the threshold and the special values.  The mirror V(c, -2t) has
the same verdict (tests/test_mirror.py), so t >= 0 covers every t.

The vertex family.  The polynomials of W(r, s) are -(2x + s + r + 1) and
s - r - 1 - 2x, linear and decreasing, so each is largest at x = 0.  The
verdict is unitary exactly in the closed wedge s + r + 1 >= 0 >= s - r - 1,
where a polynomial that is 0 at x = 0 makes a ray; s >= 0 covers every s
by the mirror W(r, -s).
"""

from fractions import Fraction

from su21dual import ConeParams, Region, VertexParams, c_special, c_threshold, support_of
from su21dual.dual import ENUMERATE_LIMIT
from su21dual.unitarity import certificate

F = Fraction


def _unitary(params) -> bool:
    return certificate(params, support_of(params)) is None


def _wall_values(t: int) -> list[Fraction]:
    """The wall values of x <= t + 1, ascending, from the closed forms of
    the module docstring."""
    return sorted({F((x + 1) * u + x * (x + 2), 2) for x in range(t + 2) for u in (t, -t)})


def test_cone_verdict_is_the_threshold_interval_and_the_special_values():
    checked = 0
    for t in range(ENUMERATE_LIMIT + 1):
        walls = _wall_values(t)
        assert F(-t, 2) in walls
        gaps = [(lo + hi) / 2 for lo, hi in zip(walls, walls[1:])]
        points = walls + gaps + [walls[0] - 1, walls[-1] + 1]
        threshold = c_threshold(t)
        specials = {threshold} | {c_special(l, t) for l in range(t // 2)}
        for c in points:
            assert _unitary(ConeParams(c, t)) == (c < threshold or c in specials), (c, t)
        checked += len(points)
    assert checked > 20000


def test_vertex_verdict_is_the_closed_wedge():
    """Also the support: s - r - 1 - 2q has its root at (s - r - 1)/2, a
    wall from s = r + 1 on, where the constituent is the ray Z(s)."""
    for r in range(2, 61):
        for s in range(0, 3 * r + 1):
            if (r + s) % 2:
                point = VertexParams(r, s)
                wall = (s - r - 1) // 2 if s >= r + 1 else None
                assert support_of(point) == Region(point.vertex, q_max=wall), (r, s)
                assert _unitary(point) == (s + r + 1 >= 0 >= s - r - 1), (r, s)
