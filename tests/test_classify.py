import json
from fractions import Fraction

import pytest

from su21dual import (
    ConeCoord,
    ConeParams,
    InvalidParameter,
    KType,
    Region,
    VertexParams,
    c_special,
    c_threshold,
    classify,
    enumerate_dual,
    is_unitary,
    parse_label,
    products,
    support_of,
)
from su21dual.dual import ENUMERATE_LIMIT, _c_at_wall
from su21dual.coefficients import poly_at
from su21dual.scalars import GaussianRational, render_scalar

from oracles import embed_W

F = Fraction


def test_threshold_table():
    assert [c_threshold(t) for t in range(7)] == [
        0,
        F(-1, 2),
        -1,
        F(-3, 2),
        F(-5, 2),
        F(-7, 2),
        -5,
    ]


def test_threshold_symmetry():
    for t in range(11):
        assert c_threshold(t) == c_threshold(-t)
        if t >= 2:
            for l in range(t // 2):
                assert c_special(l, t) == c_special(l, -t)


def test_special_values():
    assert c_special(0, 4) == -2
    assert c_special(1, 4) == F(-5, 2)
    assert c_special(0, 3) == F(-3, 2)
    # the top special value always coincides with the threshold
    for t in range(2, 12):
        assert c_special(t // 2 - 1, t) == c_threshold(t)


def test_special_value_range_checks():
    with pytest.raises(InvalidParameter):
        c_special(0, 1)
    with pytest.raises(InvalidParameter):
        c_special(-1, 6)
    for l in (2, -1):
        with pytest.raises(InvalidParameter) as excinfo:
            c_special(l, 4)
        assert str(excinfo.value) == f"l must lie in 0..1 for t=4, got l={l}"


def _paper_threshold(t):
    """c(t) as the paper tabulates it, by the parity of t."""
    k, rem = divmod(abs(t), 2)
    if t == 0:
        return F(0)
    return F(-(k * k + 1), 2) if rem == 0 else F(-(k * k + k + 1), 2)


def _paper_special(l, t):
    """c(l, t) as the paper tabulates it, by the parity of t."""
    k, rem = divmod(abs(t), 2)
    if rem == 0:
        return F(l * l - 2 * (k - 1) * l - 2 * k, 2)
    return F(l * l - (2 * k - 1) * l - 2 * k - 1, 2)


def test_derived_thresholds_match_paper_tables():
    for t in range(-200, 201):
        assert c_threshold(t) == _paper_threshold(t), t
        for l in range(abs(t) // 2):
            assert c_special(l, t) == _paper_special(l, t), (l, t)


def test_wall_values_match_their_closed_form():
    """_c_at_wall reads c(l, t) off the sign polynomials; the closed form
    (l(l+2) - |t|(l+1))/2 of the dual module docstring is the reference."""
    for t in range(-60, 61):
        for l in range(40):
            assert _c_at_wall(l, t) == Fraction(l * (l + 2) - abs(t) * (l + 1), 2), (l, t)


def test_special_value_is_the_wall_root():
    """The wall-side sign polynomial of V(c(l, t), 2t) vanishes at l, and
    at no smaller coordinate, so the support has its wall at l."""
    for t in [t for t in range(-30, 31) if abs(t) >= 2]:
        for l in range(abs(t) // 2):
            params = ConeParams(c_special(l, t), t)
            right, left = params.polys
            wall = left if t > 0 else right
            assert poly_at(wall, l) == 0, (l, t)
            assert all(poly_at(wall, x) < 0 for x in range(l)), (l, t)


def test_classify_examples():
    rec = classify(ConeParams(F(-1, 2), 1))
    assert rec.label == "U(2)" and rec.unitary
    assert rec.support.members(3) == [KType(1, 2), KType(2, 5), KType(3, 8)]

    rec = classify(VertexParams(2, -3))
    assert rec.label == "Z(-3)" and rec.unitary
    assert rec.support.members(4) == [KType(2, -3), KType(3, -6), KType(4, -9)]

    rec = classify(ConeParams(F(0), 0))
    assert rec.label == "U(0)"
    assert rec.support.members(10) == [KType(1, 0)]


def test_classify_cone_families():
    assert classify(ConeParams(F(-1), 0)).label == "V(c=-1,2t=0)"
    assert classify(ConeParams(F(-1), 0)).unitary
    rec = classify(ConeParams(F(1), 0))
    assert not rec.unitary and rec.witness is not None
    rec = classify(ConeParams(GaussianRational(0, 1), 3))
    assert not rec.unitary and "nonreal" in rec.notes[0]
    rec = classify(ConeParams(F(-2), 4))
    assert rec.label == "U(l=0,2t=8)" and rec.support == Region(KType(1, 8), q_max=0)
    rec = classify(ConeParams(F(-5, 2), 4))
    assert rec.label == "U(l=1,2t=8)" and rec.support == Region(KType(1, 8), q_max=1)
    rec = classify(ConeParams(F(-5, 2), -4))
    assert rec.label == "U(l=1,2t=-8)" and rec.support == Region(KType(1, -8), p_max=1)


def test_classify_vertex_families():
    assert classify(VertexParams(4, 3)).label == "W(4,3)"
    assert classify(VertexParams(4, 3)).unitary
    assert classify(VertexParams(2, 3)).label == "Z(3)"
    rec = classify(VertexParams(2, 5))
    assert rec.label == "W(2,5)" and not rec.unitary


def test_classify_total_on_rational_grid():
    for num in range(-8, 9):
        for t in range(-4, 5):
            rec = classify(ConeParams(F(num, 2), t))
            assert rec.label
            assert rec.support is not None


def test_threshold_coherence():
    eps = F(1, 1000)
    for t in range(-10, 11):
        below = classify(ConeParams(c_threshold(t) - eps, t))
        assert below.label.startswith("V(") and below.unitary
        at = classify(ConeParams(c_threshold(t), t))
        assert not at.label.startswith("V(")
        assert at.unitary


GOLDEN_POINTS = [
    ConeParams(F(-1), 0),  # V below threshold
    ConeParams(F(-7, 2), 8),  # V above threshold, witness off the vertex
    ConeParams(GaussianRational(0, 1), 3),  # V with nonreal c: no witness
    ConeParams(F(0), 0),  # U(0)
    ConeParams(F(-1, 2), 1),  # U(2)
    ConeParams(F(-1, 2), -1),  # U(-2)
    ConeParams(F(-2), 4),  # U(l,2t) at a special value, t > 0
    ConeParams(F(-2), -4),  # ... and t < 0
    ConeParams(F(-5, 2), 4),  # U(l,2t) at the threshold, t > 0
    ConeParams(F(-5, 2), -4),  # ... and t < 0
    VertexParams(4, 3),  # W inside the wedge
    VertexParams(2, 5),  # W outside the wedge
    VertexParams(2, 3),  # Z(s) on the wall s-r-1 = 0
    VertexParams(2, -3),  # Z(s) on the wall s+r+1 = 0
]

GOLDEN_RECORDS = """\
{"label": "V(c=-1,2t=0)", "support": {"kind": "full_cone", "params": {"t": 0}}, "unitary": true, "notes": ["c below threshold c(0)=0"]}
{"label": "V(c=-7/2,2t=16)", "support": {"kind": "full_cone", "params": {"t": 8}}, "unitary": false, "notes": ["c above threshold c(8)=-17/2"], "witness": {"ktype": [4, 7], "coord": [0, 3], "edge": "up_left", "value": "8"}}
{"label": "V(c=1*i,2t=6)", "support": {"kind": "full_cone", "params": {"t": 3}}, "unitary": false, "notes": ["nonreal parameter: products are nonreal"]}
{"label": "U(0)", "support": {"kind": "point", "params": {"m": 0}}, "unitary": true, "notes": ["threshold c(0)=0: one-dimensional constituent"]}
{"label": "U(2)", "support": {"kind": "strip_q", "params": {"t": 1, "l": 0}}, "unitary": true, "notes": ["threshold c(1)=-1/2: ray constituent"]}
{"label": "U(-2)", "support": {"kind": "strip_p", "params": {"t": -1, "l": 0}}, "unitary": true, "notes": ["threshold c(-1)=-1/2: ray constituent"]}
{"label": "U(l=0,2t=8)", "support": {"kind": "strip_q", "params": {"t": 4, "l": 0}}, "unitary": true, "notes": ["special value c(l=0,t=4)=-2"]}
{"label": "U(l=0,2t=-8)", "support": {"kind": "strip_p", "params": {"t": -4, "l": 0}}, "unitary": true, "notes": ["special value c(l=0,t=-4)=-2"]}
{"label": "U(l=1,2t=8)", "support": {"kind": "strip_q", "params": {"t": 4, "l": 1}}, "unitary": true, "notes": ["threshold c(4)=-5/2 coincides with the special value c(l=1,t=4)"]}
{"label": "U(l=1,2t=-8)", "support": {"kind": "strip_p", "params": {"t": -4, "l": 1}}, "unitary": true, "notes": ["threshold c(-4)=-5/2 coincides with the special value c(l=1,t=-4)"]}
{"label": "W(4,3)", "support": {"kind": "vertex_cone", "params": {"r": 4, "s": 3}}, "unitary": true, "notes": ["wedge: s+r+1=8 > 0 and s-r-1=-2 < 0"]}
{"label": "W(2,5)", "support": {"kind": "vertex_strip_q", "params": {"vertex": [2, 5], "p_max": null, "q_max": 1}}, "unitary": false, "notes": ["outside the unitary wedge"], "witness": {"ktype": [2, 5], "coord": [0, 0], "edge": "up_left", "value": "2/3"}}
{"label": "Z(3)", "support": {"kind": "ray_pos", "params": {"s": 3}}, "unitary": true, "notes": ["wall s-r-1=0: ray constituent of the lowest K-type"]}
{"label": "Z(-3)", "support": {"kind": "ray_neg", "params": {"s": -3}}, "unitary": true, "notes": ["wall s+r+1=0: ray constituent of the lowest K-type"]}
"""


def test_classify_records_golden():
    """One pinned record per label branch: label, support, verdict, note
    text and witness."""
    got = [json.dumps(classify(point).to_json()) for point in GOLDEN_POINTS]
    assert got == GOLDEN_RECORDS.splitlines()


def test_threshold_tables_match_derived_classifier():
    """The closed-form tables agree with the classifier derived from the
    sign polynomials, and with the product-sign verdict on its support.

    is_unitary runs at max_n=12 to keep the test fast; its closed-form
    certificate covers the whole support at any max_n.
    """
    cones = {ConeParams(F(a, b), t) for a in range(-40, 11) for b in (1, 2, 4) for t in range(-8, 9)}
    for point in cones:
        c, t = point.c, point.t
        rec = classify(point)
        specials = {c_special(l, t) for l in range(abs(t) // 2)} if abs(t) >= 2 else set()
        assert rec.unitary == (c <= c_threshold(t) or c in specials), point
        assert rec.label.startswith("V(") == (c < c_threshold(t) or not rec.unitary), point
        assert rec.unitary == is_unitary(point, support_of(point), max_n=12).is_unitary, point
    for r in range(2, 15):
        for s in range(-20, 21):
            if (r + s) % 2 == 1:
                point = VertexParams(r, s)
                rec = classify(point)
                assert rec.unitary == (s + r + 1 >= 0 >= s - r - 1), point
                assert rec.unitary == is_unitary(point, support_of(point), max_n=12).is_unitary, point
    for t in range(-10, 11):
        for l in range(abs(t) // 2 if abs(t) >= 2 else 0):
            rec = classify(ConeParams(c_special(l, t), t))
            strip = Region(KType(1, 2 * t), q_max=l) if t > 0 else Region(KType(1, 2 * t), p_max=l)
            assert (rec.label, rec.support, rec.unitary) == (f"U(l={l},2t={2 * t})", strip, True)


def test_enumerate_dual_records_are_classify_records():
    """Every listed record is the classify record of its params; only the
    intervals V(c<...) and the rays Z(2), Z(-2) have their own label and
    note."""
    relabelled = []
    for rec in enumerate_dual(12, 9):
        ref = classify(rec.params)
        assert (rec.support, rec.unitary, rec.params, rec.witness) == (
            ref.support, ref.unitary, ref.params, ref.witness
        )
        if (rec.label, rec.notes) != (ref.label, ref.notes):
            relabelled.append(rec.label)
    intervals = [f"V(c<{render_scalar(c_threshold(t))},2t={2 * t})" for t in range(-12, 13)]
    assert relabelled == intervals + ["Z(2)", "Z(-2)"]


def test_embed_W_examples():
    emb1, emb2 = embed_W(4, 3)
    assert (emb1.c, 2 * emb1.t) == (F(-1, 2), -6)
    assert (emb2.c, 2 * emb2.t) == (-5, 12)
    emb1, emb2 = embed_W(2, 1)
    assert (emb1.c, 2 * emb1.t) == (F(-1, 2), -2)
    assert (emb2.c, 2 * emb2.t) == (-1, 4)


def test_embed_W_products_agree_at_mapped_vertex():
    for r, s in [(4, 3), (2, 1), (3, -2), (5, 4)]:
        w = VertexParams(r, s)
        expected = products(w, ConeCoord(0, 0))
        emb1, emb2 = embed_W(r, s)
        assert products(emb1, ConeCoord(r - 1, 0)) == expected
        assert products(emb2, ConeCoord(0, r - 1)) == expected


def test_label_roundtrip():
    points = [
        ConeParams(F(-1), 0),
        ConeParams(F(17, 5), -2),
        ConeParams(GaussianRational(F(1, 2), F(1, 3)), 1),
        ConeParams(F(-1, 2), 1),
        ConeParams(F(-2), 4),
        ConeParams(F(0), 0),
        VertexParams(4, 3),
        VertexParams(2, -3),
    ]
    for point in points:
        rec = classify(point)
        again = classify(parse_label(rec.label))
        assert again.label == rec.label
        assert again.support == rec.support
        assert again.unitary == rec.unitary


def test_parse_label_errors():
    with pytest.raises(InvalidParameter):
        parse_label("Q(1,2)")
    with pytest.raises(InvalidParameter):
        parse_label("Z(1)")
    with pytest.raises(InvalidParameter):
        parse_label("V(c<100,2t=4)")


def test_enumerate_labels_distinct_and_expected():
    records = enumerate_dual(2, 3)
    labels = [r.label for r in records]
    assert len(labels) == len(set(labels))
    for expected in [
        "U(0)",
        "U(2)",
        "U(-2)",
        "U(l=0,2t=4)",
        "U(l=0,2t=-4)",
        "W(2,1)",
        "W(2,-1)",
        "W(3,0)",
        "W(3,2)",
        "W(3,-2)",
        "Z(2)",
        "Z(-2)",
        "Z(3)",
        "Z(-3)",
    ]:
        assert expected in labels, expected
    assert not any(lab in labels for lab in ["Z(0)", "Z(1)", "Z(-1)"])


def test_enumerate_u_strip_counts():
    records = enumerate_dual(5, 2)
    for t in (2, 3, 4, 5, -2, -3, -4, -5):
        count = sum(
            1 for r in records if r.label.startswith("U(l=") and r.label.endswith(f"2t={2*t})")
        )
        assert count == abs(t) // 2, t


def test_enumerate_soundness():
    """Every unitary record must pass the product-sign criterion on its own
    support, with the attached representative parameters."""
    records = enumerate_dual(3, 4)
    for rec in records:
        assert rec.unitary
        assert rec.params is not None
        verdict = is_unitary(rec.params, rec.support, max_n=25)
        assert verdict.is_unitary, rec.label


@pytest.mark.parametrize("bounds, name", [((ENUMERATE_LIMIT + 1, 0), "t_max"), ((0, 10**9), "r_max")])
def test_enumerate_rejects_bound_above_limit(bounds, name):
    with pytest.raises(InvalidParameter, match=rf"^{name} must be <= {ENUMERATE_LIMIT}, got"):
        enumerate_dual(*bounds)


def test_enumerate_interval_descriptors():
    records = enumerate_dual(1, 2)
    intervals = [r for r in records if r.label.startswith("V(c<")]
    assert {r.label for r in intervals} == {
        "V(c<0,2t=0)",
        "V(c<-1/2,2t=2)",
        "V(c<-1/2,2t=-2)",
    }
