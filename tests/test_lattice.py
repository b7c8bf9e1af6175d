import json

import pytest
from hypothesis import given, strategies as st

from su21dual import ConeCoord, InvalidParameter, KType, Region, coord_above
from su21dual.lattice import MAX_N_LIMIT

from oracles import neighbors, to_ktype


def from_ktype(t, v):
    return coord_above(KType(1, 2 * t), v)


def test_ktype_invariants():
    with pytest.raises(InvalidParameter):
        KType(0, 1)
    with pytest.raises(InvalidParameter):
        KType(2, 2)
    assert KType(4, 3).n == 4


@given(st.integers(-20, 20), st.integers(0, 100), st.integers(0, 100))
def test_cone_coordinate_roundtrip(t, p, q):
    coord = ConeCoord(p, q)
    v = to_ktype(t, coord)
    assert v.n >= 1 and (v.n + v.m) % 2 == 1
    assert from_ktype(t, v) == coord


@pytest.mark.parametrize(
    "t,coord,expected",
    [
        (-3, (3, 0), KType(4, 3)),
        (0, (0, 0), KType(1, 0)),
        (6, (0, 3), KType(4, 3)),
    ],
)
def test_to_ktype_examples(t, coord, expected):
    assert to_ktype(t, ConeCoord(*coord)) == expected


def test_from_ktype_examples():
    assert from_ktype(0, KType(1, 0)) == ConeCoord(0, 0)
    assert from_ktype(0, KType(2, 1)) is None  # m - 2t not divisible by 3
    assert from_ktype(1, KType(2, 5)) == ConeCoord(1, 0)


def test_neighbors():
    nb = neighbors(KType(1, 0))
    assert nb.up_right == KType(2, 3) and nb.up_left == KType(2, -3)
    assert nb.down_right is None and nb.down_left is None
    nb = neighbors(KType(2, 3))
    assert nb == (KType(3, 6), KType(3, 0), KType(1, 6), KType(1, 0))
    nb = neighbors(KType(4, 3))
    assert nb == (KType(5, 6), KType(5, 0), KType(3, 6), KType(3, 0))


def test_members_point():
    assert Region(KType(1, 0), p_max=0, q_max=0).members(10) == [KType(1, 0)]


def test_members_max_n_limit():
    """The limit sits well above the largest max_n in use (50) and bounds
    max_n on both sides."""
    assert MAX_N_LIMIT >= 100
    assert Region(KType(1, 0), p_max=0, q_max=0).members(MAX_N_LIMIT) == [KType(1, 0)]
    for max_n in (0, MAX_N_LIMIT + 1):
        with pytest.raises(InvalidParameter, match=f"^max_n must be [<>]= .*, got {max_n}$"):
            Region(KType(1, 0), p_max=0, q_max=0).members(max_n)


def test_members_ray():
    # the 2t = 2 threshold constituent: one ray of up-right steps
    assert Region(KType(1, 2), q_max=0).members(3) == [KType(1, 2), KType(2, 5), KType(3, 8)]
    assert Region(KType(1, 2), q_max=0).members(5) == [
        KType(1, 2),
        KType(2, 5),
        KType(3, 8),
        KType(4, 11),
        KType(5, 14),
    ]


def test_members_vertex_cone():
    assert Region(KType(4, 3)).members(5) == [KType(4, 3), KType(5, 0), KType(5, 6)]


def test_members_sorted_and_valid():
    for region in [
        Region(KType(1, -4)),
        Region(KType(1, -2), p_max=0),
        Region(KType(2, 3), q_max=0),
        Region(KType(3, -4), p_max=0),
        Region(KType(1, -2), p_max=1, q_max=0),
    ]:
        members = region.members(9)
        assert members == sorted(members)
        for v in members:
            assert v.n >= 1 and (v.n + v.m) % 2 == 1
            coord = coord_above(region.vertex, v)
            assert coord is not None and region.contains_coord(coord)


def test_cone_m_spacing_is_six():
    by_n = {}
    for v in Region(KType(1, 4)).members(8):
        by_n.setdefault(v.n, []).append(v.m)
    for n, ms in by_n.items():
        ms.sort()
        assert all(b - a == 6 for a, b in zip(ms, ms[1:])), (n, ms)


def test_full_cone_interior_has_all_neighbors():
    region = Region(KType(1, 0))
    for v in region.members(8):
        coord = coord_above(region.vertex, v)
        assert region.contains_coord(coord)
        if coord.p >= 1 and coord.q >= 1:
            for nb in neighbors(v):
                assert nb is not None
                nb_coord = coord_above(region.vertex, nb)
                assert nb_coord is not None and region.contains_coord(nb_coord)


def test_region_kinds():
    assert Region(KType(1, 6)).kind == "full_cone"
    assert Region(KType(1, 4), q_max=1).kind == "strip_q"
    assert Region(KType(1, -4), p_max=0).kind == "strip_p"
    assert Region(KType(2, 3)).kind == "vertex_cone"
    assert Region(KType(2, 3), q_max=0).kind == "ray_pos"
    assert Region(KType(2, -3), p_max=0).kind == "ray_neg"
    assert Region(KType(1, 4), p_max=0, q_max=0).kind == "point"
    assert Region(KType(1, -2), p_max=1, q_max=0).kind == "box"
    # the degenerate positive ray at s = 2 is the 2t = 2 strip, and
    # reports itself as such
    assert Region(KType(1, 2), q_max=0).kind == "strip_q"


_REGION_DOCS = [
    (Region(KType(1, -2)), {"kind": "full_cone", "params": {"t": -1}}),
    (Region(KType(1, 6), q_max=1), {"kind": "strip_q", "params": {"t": 3, "l": 1}}),
    (Region(KType(1, -6), p_max=0), {"kind": "strip_p", "params": {"t": -3, "l": 0}}),
    (Region(KType(4, 3)), {"kind": "vertex_cone", "params": {"r": 4, "s": 3}}),
    (Region(KType(4, 5), q_max=0), {"kind": "ray_pos", "params": {"s": 5}}),
    (Region(KType(2, -3), p_max=0), {"kind": "ray_neg", "params": {"s": -3}}),
    (Region(KType(1, 4), p_max=0, q_max=0), {"kind": "point", "params": {"m": 4}}),
    (
        Region(KType(1, -2), p_max=1, q_max=0),
        {"kind": "box", "params": {"vertex": [1, -2], "p_max": 1, "q_max": 0}},
    ),
    (
        Region(KType(2, 5), p_max=1),
        {"kind": "vertex_strip_p", "params": {"vertex": [2, 5], "p_max": 1, "q_max": None}},
    ),
    (
        Region(KType(2, 5), q_max=2),
        {"kind": "vertex_strip_q", "params": {"vertex": [2, 5], "p_max": None, "q_max": 2}},
    ),
]


@pytest.mark.parametrize("region,doc", [pytest.param(r, d, id=d["kind"]) for r, d in _REGION_DOCS])
def test_region_json_literal(region, doc):
    """Every support kind writes exactly this document, key order included."""
    assert region.kind == doc["kind"]
    assert json.dumps(region.to_json()) == json.dumps(doc)


def test_region_validation():
    with pytest.raises(InvalidParameter):
        Region(KType(1, 0)).members(0)


def test_validation_messages_and_repr():
    for make, message in (
        (lambda: KType(0, 1), "K-type dimension must be >= 1, got 0"),
        (lambda: KType(2, 2), "n + m must be odd, got (2, 2)"),
        (lambda: ConeCoord(-1, 0), "cone coordinates must be nonnegative, got ConeCoord(p=-1, q=0)"),
        (lambda: Region(KType(1, 0), q_max=-2), "region bound must be nonnegative, got -2"),
    ):
        with pytest.raises(InvalidParameter) as excinfo:
            make()
        assert str(excinfo.value) == message
    assert repr(KType(3, 2)) == "KType(3, 2)"
    assert repr(ConeCoord(1, 2)) == "ConeCoord(p=1, q=2)"
    assert repr(Region(KType(1, 4), q_max=3)) == "Region(vertex=KType(1, 4), p_max=None, q_max=3)"
