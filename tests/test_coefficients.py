import math
import random
from fractions import Fraction

import pytest

from su21dual import (
    ConeCoord,
    ConeParams,
    InvalidParameter,
    KType,
    VertexParams,
    products,
    transition_coeffs,
)
from su21dual.scalars import GaussianRational

from oracles import (
    UnderdeterminedVertex,
    embed_W,
    gauge_quad,
    random_cone_params,
    solve_vertex_products,
    walk_cone_products,
    walk_vertex_products,
)

F = Fraction


def test_gauge_quad_all_terms_vanish_at_origin():
    quad = gauge_quad(ConeParams(F(0), 0), ConeCoord(0, 0))
    assert quad == (0, 0, F(1, 2), F(1, 2))


def test_gauge_values_by_substitution():
    # up-right coefficient three steps up the right edge of V(-1/2, -6)
    tc = transition_coeffs(ConeParams(F(-1, 2), -3), KType(4, 3))
    assert tc.up_right == -4
    # at the 2t = 2 threshold the up-left coefficient dies at the vertex
    tc = transition_coeffs(ConeParams(F(-1, 2), 1), KType(1, 2))
    assert tc.up_right == -2
    assert tc.up_left == 0


def test_base_products():
    for c, t in [(F(2, 7), 3), (F(-1), 0), (F(-5), 6)]:
        pair = products(ConeParams(c, t), ConeCoord(0, 0))
        assert pair.up_right == c - F(t, 2)
        assert pair.up_left == c + F(t, 2)


def test_wall_products_vanish_at_reducible_vertex():
    # both base products die at the origin of the 2t = 0 threshold module
    assert products(ConeParams(F(0), 0), ConeCoord(0, 0)) == (0, 0)


def test_w_vertex_products_examples():
    assert products(VertexParams(4, 3), ConeCoord(0, 0)) == (F(-16, 5), F(-4, 5))
    assert products(VertexParams(2, -3), ConeCoord(0, 0)) == (0, -2)
    assert products(VertexParams(2, 3), ConeCoord(0, 0)) == (-2, 0)


def test_w_vertex_validation():
    with pytest.raises(InvalidParameter):
        products(VertexParams(1, 2), ConeCoord(0, 0))
    with pytest.raises(InvalidParameter):
        products(VertexParams(2, 2), ConeCoord(0, 0))


def test_params_messages_and_repr():
    for args, message in (((1, 0), "vertex module needs r > 1, got r=1"),
                          ((2, 2), "r + s must be odd, got (2, 2)")):
        with pytest.raises(InvalidParameter) as excinfo:
            VertexParams(*args)
        assert str(excinfo.value) == message
    assert repr(ConeParams(F(3), 2)) == "ConeParams(c=Fraction(3, 1), t=2)"
    assert repr(VertexParams(3, 2)) == "VertexParams(r=3, s=2)"


def test_params_of_the_two_families_are_never_equal():
    """Equality and hashing read the family as well as its fields: V(3, 4)
    and W(3, 2) share the numbers (3, 2) and, as hashes do, a hash."""
    cone, vertex = ConeParams(3, 2), VertexParams(3, 2)
    assert cone != vertex and vertex != cone
    assert hash(cone) == hash(vertex)
    assert {cone: "V", vertex: "W"} == {ConeParams(F(3), 2): "V", VertexParams(3, 2): "W"}
    assert ConeParams(F(6, 2), 2) == cone and hash(ConeParams(F(6, 2), 2)) == hash(cone)
    assert ConeParams(3, 2) != ConeParams(3, -2)
    assert ConeParams(3, 2).vertex == KType(1, 4)


def test_stored_sign_polynomials_follow_the_docstring():
    """The sign polynomials stored on the params (params.polys) are the
    coefficients docstring's, computed from (c, t) or (r, s): d times the
    real parts of 2c - (p+1)t - p(p+2) and 2c + (q+1)t - q(q+2) with
    c = (a + b i)/d, and -(2p + s + r + 1) and s - r - 1 - 2q.  They stay
    out of equality, hashing and repr."""
    rng = random.Random(27)
    for _ in range(200):
        params = random_cone_params(rng, complex_share=0.5)
        c, t = params.c, params.t
        re, im = (c.re, c.im) if isinstance(c, GaussianRational) else (c, F(0))
        d = math.lcm(re.denominator, im.denominator)
        a, b = int(re * d), int(im * d)
        assert params.cleared == (a, b, d) and c == GaussianRational(F(a, d), F(b, d))
        right = (-d, -d * (t + 2), 2 * a - d * t)  # d(2c - t - (t + 2)p - p^2)
        left = (-d, d * (t - 2), 2 * a + d * t)  # d(2c + t + (t - 2)q - q^2)
        assert params.polys == (right, left)
    for r in range(2, 8):
        for s in range(-9, 10):
            if (r + s) % 2:
                params = VertexParams(r, s)
                assert params.polys == ((0, -2, -(s + r + 1)), (0, -2, s - r - 1))
    gaussian, real = ConeParams(GaussianRational(F(1, 2), 0), 3), ConeParams(F(1, 2), 3)
    assert gaussian == real and hash(gaussian) == hash(real)
    assert gaussian.polys == real.polys
    assert repr(ConeParams(F(-1), 0)) == "ConeParams(c=Fraction(-1, 1), t=0)"


def test_vertex_solver_unique_solution():
    assert solve_vertex_products(4, 3) == (F(-16, 5), F(-4, 5))


def test_vertex_solver_seed_at_dimension_one():
    c, t = F(3, 5), 2
    pair = solve_vertex_products(1, 2 * t, up_right_seed=c - F(t, 2))
    assert pair == (c - F(t, 2), c + F(t, 2))
    with pytest.raises(UnderdeterminedVertex):
        solve_vertex_products(1, 0)


def test_solver_walk_matches_closed_forms():
    """Recover the whole product table from the balance equations alone and
    compare with the closed forms, exactly."""
    rng = random.Random(20240810)
    params_list = [random_cone_params(rng) for _ in range(10)]
    for params in params_list:
        table = walk_cone_products(params, 20)
        for coord, pair in table.items():
            assert products(params, coord) == pair, (params, coord)


def test_solver_walk_matches_vertex_closed_forms():
    for r, s in [(4, 3), (2, -3), (3, 0), (5, 2), (2, 7)]:
        params = VertexParams(r, s)
        table = walk_vertex_products(params, r + 10)
        for coord, pair in table.items():
            assert products(params, coord) == pair, (params, coord)


def test_ratio_law():
    """Product at (p, q) over product at its down-right neighbor equals
    n/(n+1) wherever both are nonzero."""
    rng = random.Random(11)
    for params in [random_cone_params(rng) for _ in range(6)] + [
        VertexParams(4, 3),
        VertexParams(3, -2),
    ]:
        n0 = 1 if isinstance(params, ConeParams) else params.r
        for p in range(6):
            for q in range(1, 6):
                n = n0 + p + q
                up = products(params, ConeCoord(p, q)).up_right
                down = products(params, ConeCoord(p, q - 1)).up_right
                if up != 0 and down != 0:
                    assert up / down == F(n, n + 1)
                up = products(params, ConeCoord(q, p)).up_left
                down = products(params, ConeCoord(q - 1, p)).up_left
                if up != 0 and down != 0:
                    assert up / down == F(n, n + 1)


def test_two_step_gauge_identities():
    """(n+1) a c' = n c a'' style path identities for the canonical gauge
    at every vertex with n <= 20."""
    rng = random.Random(5)
    for params in [random_cone_params(rng) for _ in range(5)] + [VertexParams(4, 3)]:
        n0 = 1 if isinstance(params, ConeParams) else params.r
        region_vertex = params.vertex
        for p in range(8):
            for q in range(8):
                n = n0 + p + q
                if n > 20:
                    continue
                m = region_vertex.m + 3 * p - 3 * q
                v = KType(n, m)
                tc = transition_coeffs(params, v)
                ne = transition_coeffs(params, KType(n + 1, m + 3))
                nw = transition_coeffs(params, KType(n + 1, m - 3))
                assert tc.up_left * nw.up_right == tc.up_right * ne.up_left
                rhs_right = (
                    n * tc.down_right * transition_coeffs(params, KType(n - 1, m + 3)).up_right
                    if q >= 1
                    else 0
                )
                assert (n + 1) * tc.up_right * ne.down_right == rhs_right
                rhs_left = (
                    n * tc.down_left * transition_coeffs(params, KType(n - 1, m - 3)).up_left
                    if p >= 1
                    else 0
                )
                assert (n + 1) * tc.up_left * nw.down_left == rhs_left
                if p >= 1 and q >= 1:
                    se = transition_coeffs(params, KType(n - 1, m + 3))
                    sw = transition_coeffs(params, KType(n - 1, m - 3))
                    assert tc.down_left * sw.down_right == tc.down_right * se.down_left


def test_gauge_reproduces_products():
    rng = random.Random(3)
    for params in [random_cone_params(rng) for _ in range(5)] + [
        VertexParams(4, 3),
        VertexParams(2, -3),
        VertexParams(6, 1),
    ]:
        for p in range(5):
            for q in range(5):
                quad = gauge_quad(params, ConeCoord(p, q))
                pair = products(params, ConeCoord(p, q))
                assert quad.up_right * quad.down_left_return == pair.up_right
                assert quad.up_left * quad.down_right_return == pair.up_left


def test_w_products_match_both_embeddings():
    for r, s in [(4, 3), (2, 1), (3, -2), (5, 0), (2, -3)]:
        w = VertexParams(r, s)
        emb1, emb2 = embed_W(r, s)
        for p in range(5):
            for q in range(5):
                expected = products(w, ConeCoord(p, q))
                assert products(emb1, ConeCoord(p + r - 1, q)) == expected
                assert products(emb2, ConeCoord(p, q + r - 1)) == expected


def test_nonreal_parameter_products_are_nonreal():
    params = ConeParams(GaussianRational(1, 1), 2)
    pair = products(params, ConeCoord(3, 2))
    assert isinstance(pair.up_right, GaussianRational) and pair.up_right.im != 0


def test_transition_coeffs_rejects_foreign_ktype():
    with pytest.raises(InvalidParameter):
        transition_coeffs(ConeParams(F(0), 0), KType(2, 1))
