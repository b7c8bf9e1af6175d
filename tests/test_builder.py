import json
from fractions import Fraction

import pytest

from su21dual import (
    AlgebraElement,
    BasisIndex,
    ConeParams,
    EmptyTruncation,
    Generator,
    InvalidBasisIndex,
    InvalidParameter,
    KType,
    Region,
    Su21Error,
    VertexParams,
    build,
    support_of,
)
from su21dual.builder import module_from_json_str, module_to_json_str
from su21dual.scalars import GaussianRational
from su21dual.unitarity import build_norms, is_unitary

from oracles import action_row, apply, is_truncated_target, truncation_contaminated

F = Fraction
G = Generator


def one(idx):
    return {idx: F(1)}


def test_support_of_detects_walls():
    assert support_of(ConeParams(F(-1), 0)) == Region.full_cone(0)
    assert support_of(ConeParams(F(0), 0)) == Region.point(0)
    assert support_of(ConeParams(F(-1, 2), 1)) == Region.strip_q(1, 0)
    assert support_of(ConeParams(F(-1, 2), -1)) == Region.strip_p(-1, 0)
    assert support_of(ConeParams(F(-5), 6)) == Region.strip_q(6, 2)
    assert support_of(ConeParams(F(-2), 4)) == Region.strip_q(4, 0)
    # nonreal parameters never produce a wall
    assert support_of(ConeParams(GaussianRational(0, 1), 4)) == Region.full_cone(4)
    # vertex walls
    assert support_of(VertexParams(4, 3)) == Region.vertex_cone(4, 3)
    assert support_of(VertexParams(2, 3)) == Region.ray_pos(3)
    assert support_of(VertexParams(2, -3)) == Region.ray_neg(-3)


def test_support_of_finite_dimensional_box():
    # walls on both edges cut out the three-dimensional defining module
    region = support_of(ConeParams(F(1, 2), -1))
    assert region == Region(KType(1, -2), p_max=1, q_max=0)
    assert region.members(10) == [KType(1, -2), KType(2, 1)]


def test_diagonal_actions():
    mod = build(ConeParams(F(-1), 0), 6)
    idx = BasisIndex(5, -6, 2)
    assert apply(mod, G.H_ALPHA, one(idx)) == {idx: 2}
    assert apply(mod, G.Z, one(idx)) == {idx: -6}
    assert apply(mod, G.H_BETA, one(idx)) == {idx: F(-6 - 5 - 1 + 4, 2)}


def test_lead_vector_rows_are_single_terms():
    """The up-right action on v^1 has one term: k = 1 kills the down term."""
    mod = build(ConeParams(F(-1), 0), 5)
    for v in mod.region.members(4):
        image = apply(mod, G.X_ALPHABETA, one(BasisIndex(v.n, v.m, 1)))
        up = BasisIndex(v.n + 1, v.m + 3, 1)
        image.pop(up, None)
        assert not image, v


def test_one_dimensional_wall_module():
    mod = build(ConeParams(F(0), 0), 1)
    assert mod.basis == (BasisIndex(1, 0, 1),)
    for gen in Generator:
        assert apply(mod, gen, one(BasisIndex(1, 0, 1))) == {}


def test_su2_commutator_inside_ktype():
    mod = build(ConeParams(F(-1), 0), 6)
    for n, m in [(5, 0), (4, 3), (6, -3)]:
        for k in range(1, n + 1):
            idx = BasisIndex(n, m, k)
            lhs = apply(mod, G.X_ALPHA, apply(mod, G.Y_ALPHA, one(idx)))
            for tgt, c in apply(mod, G.Y_ALPHA, apply(mod, G.X_ALPHA, one(idx))).items():
                lhs[tgt] = lhs.get(tgt, 0) - c
            lhs = {t: c for t, c in lhs.items() if c != 0}
            expected = {idx: F(n + 1 - 2 * k)} if n + 1 != 2 * k else {}
            assert lhs == expected


def test_apply_is_linear_over_real_form_combination():
    mod = build(ConeParams(F(-2), 1), 6)
    a_ab = AlgebraElement(
        {G.X_ALPHABETA: F(1), G.Y_ALPHABETA: F(1)}
    )
    idx = BasisIndex(3, 2, 2)
    combined = apply(mod, a_ab, one(idx))
    split = apply(mod, G.X_ALPHABETA, one(idx))
    for tgt, c in apply(mod, G.Y_ALPHABETA, one(idx)).items():
        split[tgt] = split.get(tgt, 0) + c
    assert combined == split


def test_k_recursion_rederives_higher_rows():
    """Acting by the lowering operator on the k row of the beta action
    reproduces the stored k+1 row: X_beta . v^{k+1} = -1/(n-k) Y_alpha X_beta . v^k."""
    mod = build(ConeParams(F(-3), 2), 7)
    for n, m in [(4, 7), (5, 4)]:
        for k in range(1, n):
            idx = BasisIndex(n, m, k)
            via_recursion = apply(mod, G.Y_ALPHA, apply(mod, G.X_BETA, one(idx)))
            via_recursion = {
                t: F(-1, n - k) * c for t, c in via_recursion.items()
            }
            direct = apply(mod, G.X_BETA, one(BasisIndex(n, m, k + 1)))
            assert via_recursion == direct


def test_action_stays_in_support_for_constituents():
    for params, max_n in [
        (ConeParams(F(-1, 2), 1), 7),  # ray
        (ConeParams(F(-5), 6), 8),  # strip
        (VertexParams(4, 3), 8),  # vertex cone
        (VertexParams(2, -3), 7),  # negative ray
    ]:
        mod = build(params, max_n)
        members = set(mod.region.members(max_n + 1))
        for idx in mod.basis:
            if idx.n > max_n - 1:
                continue
            for gen in Generator:
                for tgt, _ in action_row(mod, gen, idx):
                    assert KType(tgt.n, tgt.m) in members, (params, idx, gen, tgt)


def test_truncation_layer_is_flagged():
    mod = build(ConeParams(F(-1), 0), 4)
    top = BasisIndex(4, 3, 2)
    image = apply(mod, G.X_ALPHABETA, one(top))
    assert truncation_contaminated(mod, image)
    assert any(is_truncated_target(mod, t) for t in image)


def test_empty_truncation():
    with pytest.raises(EmptyTruncation):
        build(VertexParams(4, 3), 3)


def test_apply_rejects_foreign_index():
    mod = build(ConeParams(F(-1), 0), 4)
    with pytest.raises(InvalidBasisIndex):
        apply(mod, G.Z, one(BasisIndex(9, 9, 1)))


def test_json_roundtrip():
    for params in [ConeParams(GaussianRational(F(1, 2), F(-1, 3)), -2), VertexParams(4, 3)]:
        mod = build(params, 6)
        text = module_to_json_str(mod)
        back = module_from_json_str(text)
        assert back.params == mod.params
        assert back.max_n == mod.max_n
        assert back.region == mod.region
        assert back.basis == mod.basis
        assert back.rows == mod.rows
        # byte-level determinism
        assert module_to_json_str(back) == text


def test_json_schema_shape():
    mod = build(ConeParams(F(-1), 0), 3)
    doc = json.loads(module_to_json_str(mod))
    assert set(doc) == {"params", "max_n", "support", "basis", "action"}
    assert doc["params"] == {"kind": "cone", "c": {"re": "-1", "im": "0"}, "t": 0}
    assert {"n": 1, "m": 0, "k": 1} in doc["basis"]
    entry = next(e for e in doc["action"]["X_alphabeta"] if e["from"] == [1, 0, 1])
    assert entry["terms"] == [[[2, 3, 1], "-2", "0"]]


@pytest.mark.parametrize(
    "params,unitary",
    [
        (ConeParams(F(-1), 0), True),
        (ConeParams(GaussianRational(F(1, 2), F(-1, 3)), -2), False),
        (VertexParams(4, 3), True),
    ],
)
def test_json_text_is_compact_and_matches_to_json(params, unitary):
    mod = build(params, 8)
    norms = build_norms(mod) if is_unitary(params, mod.region, max_n=8).is_unitary else None
    assert (norms is not None) == unitary
    text = module_to_json_str(mod, norms=norms)
    assert "\n" not in text
    assert json.loads(text) == mod.to_json(norms=norms)
    assert module_from_json_str(text).rows == mod.rows


@pytest.mark.parametrize(
    "params,path,value,field",
    [
        (ConeParams(F(-1), 0), ("params", "t"), "0", "params.t"),
        (ConeParams(F(-1), 0), ("params", "t"), True, "params.t"),
        (ConeParams(F(-1), 0), ("max_n",), "6", "max_n"),
        (ConeParams(F(-1), 0), ("support", "params", "t"), True, "support.params.t"),
        (ConeParams(F(-5), 6), ("support", "params", "l"), 0.0, "support.params.l"),
        (VertexParams(4, 3), ("params", "s"), 3.0, "params.s"),
        (VertexParams(4, 3), ("support", "params", "r"), 4.0, "support.params.r"),
        (VertexParams(4, 3), ("basis", 0, "k"), True, "basis.k"),
    ],
)
def test_json_rejects_non_integer_field(params, path, value, field):
    doc = json.loads(module_to_json_str(build(params, 6)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(Su21Error, match=rf"^malformed module document: {field} must be an integer"):
        module_from_json_str(json.dumps(doc))


def test_json_rejects_max_n_above_limit():
    doc = json.loads(module_to_json_str(build(ConeParams(F(-1), 0), 4)))
    doc["max_n"] = 100000
    with pytest.raises(InvalidParameter, match=r"^max_n must be <= \d+, got 100000$"):
        module_from_json_str(json.dumps(doc))


def test_build_rejects_region_off_the_lowest_ktype():
    with pytest.raises(InvalidParameter, match="is not the lowest K-type"):
        build(ConeParams(F(-1), 0), 8, Region(KType(3, 0)))
    with pytest.raises(InvalidParameter, match="is not the lowest K-type"):
        build(VertexParams(4, 3), 8, Region.vertex_cone(4, 5))


@pytest.mark.parametrize(
    "params, region, message",
    [
        (ConeParams(F(-1), 0), Region.strip_q(0, 1),
         "nonzero up_left coefficient at KType(2, -3) leaves the region"),
        (VertexParams(4, 3), Region(KType(4, 3), p_max=1),
         "nonzero up_right coefficient at KType(5, 6) leaves the region"),
    ],
    ids=["cone_strip_q", "vertex_p_max"],
)
def test_build_rejects_region_not_closed_under_the_action(params, region, message):
    """A wall where the coefficient across it is not 0 cuts a K-type the
    action reaches out of the region."""
    with pytest.raises(InvalidParameter) as excinfo:
        build(params, 8, region)
    assert str(excinfo.value) == f"region is not closed under the action: {message}"
