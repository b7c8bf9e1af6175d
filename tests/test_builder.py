import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from su21dual import (
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
    check_commutators,
    support_of,
)
from su21dual import builder, verify
from su21dual.algebra import GENERATORS
from su21dual.builder import module_from_json_str, module_to_json_str
from su21dual.coefficients import _ups
from su21dual.scalars import GaussianRational
from su21dual.unitarity import document_norms

from oracles import (
    AlgebraElement,
    action_row,
    apply,
    cone_params,
    flip_a_row,
    is_truncated_target,
    oracle_build,
    oracle_module_json,
    random_cone_params,
    truncation_contaminated,
    vertex_params,
)

F = Fraction
G = Generator


def fields_of(mod):
    """The six fields that fix a module; not vars(mod), which also holds
    rows once they are read."""
    return mod.params, mod.max_n, mod.region, mod.basis, mod.scale, mod.fields


def one(idx):
    return {idx: F(1)}


def test_support_of_detects_walls():
    assert support_of(ConeParams(F(-1), 0)) == Region(KType(1, 0))
    assert support_of(ConeParams(F(0), 0)) == Region(KType(1, 0), p_max=0, q_max=0)
    assert support_of(ConeParams(F(-1, 2), 1)) == Region(KType(1, 2), q_max=0)
    assert support_of(ConeParams(F(-1, 2), -1)) == Region(KType(1, -2), p_max=0)
    assert support_of(ConeParams(F(-5), 6)) == Region(KType(1, 12), q_max=2)
    assert support_of(ConeParams(F(-2), 4)) == Region(KType(1, 8), q_max=0)
    # nonreal parameters never produce a wall
    assert support_of(ConeParams(GaussianRational(0, 1), 4)) == Region(KType(1, 8))
    # vertex walls
    assert support_of(VertexParams(4, 3)) == Region(KType(4, 3))
    assert support_of(VertexParams(2, 3)) == Region(KType(2, 3), q_max=0)
    assert support_of(VertexParams(2, -3)) == Region(KType(2, -3), p_max=0)


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
    for gen in GENERATORS:
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
            for gen in GENERATORS:
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
    norms = document_norms(mod)
    assert (norms is not None) == unitary
    text = module_to_json_str(mod, norms=norms)
    assert "\n" not in text
    assert text == json.dumps(oracle_module_json(mod, norms), separators=(",", ":"))
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
    """A header field that is not an int is named; a support or basis
    field is not read but compared with build's, so it names that part."""
    doc = json.loads(module_to_json_str(build(params, 6)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    message = {
        "support": "the stored support differs from the support of params$",
        "basis": "malformed module document: basis is not the basis of the support up to max_n$",
    }.get(path[0], rf"malformed module document: {field} must be an integer")
    with pytest.raises(Su21Error, match=f"^{message}"):
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
        build(VertexParams(4, 3), 8, Region(KType(4, 5)))


@pytest.mark.parametrize(
    "params, region, message",
    [
        (ConeParams(F(-1), 0), Region(KType(1, 0), q_max=1),
         "nonzero up_left coefficient at KType(2, -3) leaves the region"),
        (VertexParams(4, 3), Region(KType(4, 3), p_max=1),
         "nonzero up_right coefficient at KType(5, 6) leaves the region"),
        # A wall at 0 is read at the vertex, not one step above it.
        (VertexParams(4, 3), Region(KType(4, 3), q_max=0),
         "nonzero up_left coefficient at KType(4, 3) leaves the region"),
    ],
    ids=["cone_strip_q", "vertex_p_max", "vertex_q_max_0"],
)
def test_build_rejects_region_not_closed_under_the_action(params, region, message):
    """A wall where the coefficient across it is not 0 cuts a K-type the
    action reaches out of the region."""
    with pytest.raises(InvalidParameter) as excinfo:
        build(params, 8, region)
    assert str(excinfo.value) == f"region is not closed under the action: {message}"


def test_whether_a_region_is_closed_does_not_depend_on_max_n():
    """The wall check reads the coefficients across the walls, which the
    K-types below max_n need not reach: the support of V(-5, 12) stops at
    q = 2, and strip_q(6, 3) is rejected at every max_n, also below the
    K-type (4, 3) on its open wall.  An empty truncation and a max_n above
    the limit are still reported first."""
    params, region = ConeParams(F(-5), 6), Region(KType(1, 12), q_max=3)
    assert support_of(params) == Region(KType(1, 12), q_max=2)
    for max_n in (1, 3, 4, 5, 9):
        with pytest.raises(InvalidParameter) as excinfo:
            build(params, max_n, region)
        assert str(excinfo.value) == ("region is not closed under the action: "
                                      "nonzero up_left coefficient at KType(4, 3) leaves the region")
    with pytest.raises(InvalidParameter, match="^max_n must be <= 100, got 101$"):
        build(params, 101, region)
    with pytest.raises(EmptyTruncation):
        build(VertexParams(4, 3), 3, Region(KType(4, 3), p_max=1))
    # Both walls of a box open: the one met first depth by depth, p
    # ascending, and at the vertex the up-right one.
    for p_max, q_max, message in ((3, 2, "up_left coefficient at KType(3, -6)"),
                                  (1, 1, "up_left coefficient at KType(2, -3)"),
                                  (1, 2, "up_right coefficient at KType(2, 3)"),
                                  (0, 0, "up_right coefficient at KType(1, 0)")):
        with pytest.raises(InvalidParameter, match=f"nonzero {re.escape(message)} leaves"):
            build(ConeParams(F(-1), 0), 1, Region(KType(1, 0), p_max, q_max))


def _oracle_cases():
    """Modules for the build/oracle_build comparison: random real and
    nonreal cones on their supports, vertex modules W(r, s), and full
    cones of parameters whose support stops at a wall."""
    rng = random.Random(11)
    cases = [(random_cone_params(rng, complex_share=0.5), rng.randint(1, 6), None)
             for _ in range(240)]
    cases += [(VertexParams(r, s), r + rng.randint(0, 3), None)
              for r in range(2, 7) for s in range(-6, 7) if (r + s) % 2]
    for c, t in [(F(-5), 6), (F(-2), 4), (F(-1, 2), 1), (F(-1, 2), -1), (F(1, 2), -1),
                 (F(0), 0), (F(-1, 2), 2), (F(1), -2)]:
        cases += [(ConeParams(c, t), max_n, Region(KType(1, 2 * t))) for max_n in range(1, 7)]
    cases += [(VertexParams(r, s), 6, Region(KType(r, s)))
              for r, s in [(2, 3), (2, -3), (3, 6)]]
    return cases


def test_build_matches_the_per_vector_oracle():
    """build equals the per-vector construction laid into integer fields:
    the same scale D, the lcm of the reduced denominators, and the same
    fields."""
    cases = _oracle_cases()
    assert len(cases) >= 300
    walled = 0
    for params, max_n, region in cases:
        mod = build(params, max_n, region)
        expected = oracle_build(params, max_n, region)
        assert fields_of(mod) == fields_of(expected), (params, max_n, region)
        if region is not None:
            assert region != support_of(params)
            walled += 1
    assert walled == 51


def _full_replay_report(mod) -> dict:
    """The report document of verify._replay, the plain full replay, of a
    module build makes, as check_commutators must give it: the same,
    except that when max_n is above top = vertex.n +
    verify.REPLAYED_DEPTH only the failures of the layers replayed are
    listed, a commutator's at a K-type of dimension n with n + 2 <= top
    and a center_grading one's with n <= top."""
    report = verify._replay(mod).to_json()
    top = mod.region.vertex.n + verify.REPLAYED_DEPTH
    if mod.max_n > top:
        report["failures"] = [f for f in report["failures"]
                              if f["where"][0][0] + 2 * (f["relation"] != "center_grading") <= top]
        report["verified"] = not report["failures"]
    return report


@pytest.mark.parametrize("row", range(13))
def test_a_sign_flip_in_one_row_of_the_table_is_caught(monkeypatch, row):
    """Negating any one row of the builder's table, X_beta's downward row
    among them, makes build differ from the oracle's own moves and fails
    the commutator replay, on the strip W(2, 5) too, and also at
    max_n = 12, where check_commutators replays only the lowest layers and
    reports the plain full replay's failures there."""
    flip_a_row(monkeypatch, row)
    for params in (ConeParams(F(-1), 0), ConeParams(GaussianRational(F(5, 3), 1), 1),
                   VertexParams(4, 3), VertexParams(2, 5)):
        assert build(params, 7).rows != oracle_build(params, 7).rows, params
        for max_n in (7, 12):
            mod = build(params, max_n)
            report = check_commutators(mod)
            assert not report.verified, (params, max_n)
            assert report.to_json() == _full_replay_report(mod), (params, max_n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(cone_params, vertex_params), st.integers(1, 9))
def test_entries_are_nonzero_and_affine_in_k(params, max_n):
    """Every stored entry is nonzero, and per generator, label offset and
    K-type the entries over k = 1..n, an absent one read as 0, are affine
    in k: every second difference is 0."""
    mod = build(params, max(max_n, params.vertex.n))
    fields: dict = {}
    for gen, rows in mod.rows.items():
        for (n, m, k), row in rows.items():
            for (tn, tm, tk), v in row:
                assert v != 0
                field = fields.setdefault((gen, tn - n, tm - m, tk - k, n, m), {})
                assert k not in field
                field[k] = v
    for (gen, dn, dm, dk, n, m), field in fields.items():
        z = [field.get(k, 0) for k in range(1, n + 1)]
        assert all(z[i] - 2 * z[i + 1] + z[i + 2] == 0 for i in range(n - 2)), (gen, n, m)


@pytest.mark.parametrize("params", [ConeParams(F(-1), 0), ConeParams(GaussianRational(F(5, 3), 1), 1),
                                    VertexParams(4, 3)], ids=repr)
def test_every_field_part_covers_the_basis_and_one_zero(params):
    """Each part of fields[gen][delta] has one entry per basis position and
    a 0 past them, which a replay's gather reads for a target outside the
    basis; the imaginary parts are kept exactly when c is not real."""
    mod = build(params, 7)
    parts = [z for at in mod.fields.values() for field in at.values() for z in field if z]
    assert {len(z) for z in parts} == {len(mod.basis) + 1}
    assert {z[-1] for z in parts} == {0}
    nonreal = any(im for at in mod.fields.values() for _, im in at.values())
    assert nonreal is isinstance(getattr(params, "c", 0), GaussianRational)


@pytest.mark.parametrize("params", [ConeParams(F(-1), 0), VertexParams(4, 3)], ids=repr)
def test_each_row_is_written_on_its_own_block(monkeypatch, params):
    """The imaginary part c of a row is the same at every K-type of a
    module, and 0 on every downward row and every row of a real module, so
    a slice of the imaginary field written at a wrong place could go
    unseen.  Made to grow with p, each row's c must still sit on its own
    K-type's block, at every k, with the 0 past the basis; the downward
    rows carrying p first appear past the first blocks."""
    action = builder._action

    def varied(n, m, p, q, *ups):
        return tuple((*row[:6], row[6] + p, row[7]) for row in action(n, m, p, q, *ups))

    monkeypatch.setattr(builder, "_action", varied)
    mod = build(params, 7)
    start = 0
    for coord in mod.region.coords(7):
        (n, m), (p, q) = mod.region.ktype_at(coord), coord
        for gen, dn, dm, dk, _, _, c, d in varied(n, m, p, q, *_ups(params, p, q)):
            if c:
                assert mod.fields[gen][dn, dm, dk][1][start:start + n] == [c * mod.scale // d] * n
        start += n
    parts = [z for at in mod.fields.values() for field in at.values() for z in field if z]
    assert {(len(z), z[-1]) for z in parts} == {(len(mod.basis) + 1, 0)}


@pytest.mark.parametrize("params", [ConeParams(F(-1), 0), ConeParams(GaussianRational(F(5, 3), 1), 1),
                                    VertexParams(4, 3)], ids=repr)
def test_each_row_real_part_is_written_on_its_own_block(monkeypatch, params):
    """The real part a + b k of a row, made to grow with p, sits on its
    own K-type's block of its field's column at every k, over D, with the
    0 past the basis; a row that is 0 there leaves its block 0.  At n = 1,
    where the downward rows are 0 over d = 0, p is 0 and they stay 0."""
    action = builder._action

    def varied(n, m, p, q, *ups):
        return tuple((*row[:4], row[4] + p, *row[5:]) for row in action(n, m, p, q, *ups))

    monkeypatch.setattr(builder, "_action", varied)
    mod = build(params, 7)
    size, start = len(mod.basis), 0
    zero = ([0] * (size + 1), None)
    for coord in mod.region.coords(7):
        (n, m), (p, q) = mod.region.ktype_at(coord), coord
        for gen, dn, dm, dk, a, b, c, d in varied(n, m, p, q, *_ups(params, p, q)):
            re = mod.fields[gen].get((dn, dm, dk), zero)[0]
            nonzero = c or a + b or n > 1 and b
            expected = [(a + b * k) * mod.scale // d if nonzero else 0 for k in range(1, n + 1)]
            assert re[start:start + n] == expected, (gen, dn, dm, dk, n, m)
        start += n
    assert all(re[-1] == 0 and len(re) == size + 1 for at in mod.fields.values() for re, _ in at.values())


def test_build_labels_are_basis_indices_equal_to_the_oracle_basis():
    """build makes its labels without a BasisIndex(...) call each, yet each
    is a BasisIndex, named fields and all, and the basis is oracle_build's."""
    for params, max_n in [(ConeParams(F(-1), 0), 6), (VertexParams(4, 3), 7),
                          (ConeParams(GaussianRational(F(5, 3), 1), 1), 5)]:
        mod, expected = build(params, max_n), oracle_build(params, max_n)
        assert mod.basis == expected.basis
        assert {type(idx) for idx in mod.basis} == {BasisIndex}
        assert [(idx.n, idx.m, idx.k) for idx in mod.basis] == [tuple(idx) for idx in expected.basis]
        assert mod.basis[-1]._replace(k=1) == BasisIndex(mod.basis[-1].n, mod.basis[-1].m, 1)


def test_json_text_is_the_oracle_document_for_every_oracle_case():
    """The fragment writer writes the bytes of json.dumps over the oracle
    document, with norms wherever the module is unitary, and the text of a
    module on the support of its params reads back as the module written,
    scale and fields."""
    unitary = 0
    for params, max_n, region in _oracle_cases():
        mod = build(params, max_n, region)
        norms = document_norms(mod)
        unitary += norms is not None
        text = module_to_json_str(mod, norms=norms)
        assert text == json.dumps(oracle_module_json(mod, norms), separators=(",", ":"))
        if region is None:
            assert fields_of(module_from_json_str(text)) == fields_of(mod), (params, max_n)
    assert unitary > 0


def test_rows_are_a_read_only_view():
    """The rows are made from the fields and cannot be written: an action
    is changed by making a new module (oracles.with_row)."""
    mod = build(ConeParams(F(-1), 0), 4)
    idx = BasisIndex(2, 3, 1)
    assert mod.rows is mod.rows
    with pytest.raises(TypeError):
        mod.rows[G.X_ALPHABETA][idx] = ()
    with pytest.raises(TypeError):
        mod.rows[G.X_ALPHABETA] = {}


@pytest.mark.parametrize("value, kind", [(-2, "int"), (["-2"], "list"), (None, "NoneType")])
@pytest.mark.parametrize("position", [1, 2])
def test_json_rejects_non_string_value(value, kind, position):
    """A value that is not a string (an int, a list or null) is not the
    action build writes, also where its string form stands elsewhere."""
    doc = json.loads(module_to_json_str(build(ConeParams(F(-1), 0), 4)))
    doc["action"]["X_alphabeta"][0]["terms"][0][position] = value
    assert type(value).__name__ == kind
    with pytest.raises(Su21Error, match="^the stored action differs from the action of params$"):
        module_from_json_str(json.dumps(doc))
