import random
import re
from fractions import Fraction

import pytest

from su21dual import (
    BasisIndex,
    ConeParams,
    EmptyTruncation,
    Generator,
    InvalidParameter,
    KType,
    Region,
    VertexParams,
    build,
    build_norms,
    check_adjoint,
    check_coefficient_relations,
    check_commutators,
)
from su21dual import verify
from su21dual.errors import InvalidBasisIndex
from su21dual.scalars import GaussianRational

from oracles import (
    apply,
    oracle_check_adjoint,
    oracle_check_commutators,
    random_cone_params,
    with_row,
)

F = Fraction
G = Generator


def _certified(mod):
    """check_commutators's report of mod, which must be the plain full
    replay's, shortcut or not."""
    report = check_commutators(mod)
    assert report.to_json() == verify._replay(mod).to_json()
    return report


def test_commutators_clean_for_generic_cone():
    mod = build(ConeParams(F(-1), 0), 8)
    report = _certified(mod)
    assert report.verified
    assert report.checked > 0
    assert report.skipped_boundary > 0


def test_commutators_clean_for_random_points():
    rng = random.Random(99)
    for _ in range(4):
        params = random_cone_params(rng)
        mod = build(params, 8)
        report = _certified(mod)
        assert report.verified, (params, report.failures[:3])


def test_commutators_clean_on_constituents():
    for params in [
        ConeParams(F(-1, 2), 1),  # ray at the 2t = 2 threshold
        VertexParams(2, 3),  # positive Z ray
        VertexParams(4, 3),  # vertex cone
    ]:
        mod = build(params, 9)
        assert _certified(mod).verified


def test_beta_pair_reproduces_cartan_eigenvalue():
    """[X_beta, Y_beta] acts on v^k by the integer-halved weight (m-n-1+2k)/2."""
    mod = build(ConeParams(F(-2), 1), 7)
    for idx in mod.basis:
        if not mod.interior(idx, depth=2):
            continue
        v = {idx: F(1)}
        lhs = apply(mod, G.X_BETA, apply(mod, G.Y_BETA, v))
        for tgt, c in apply(mod, G.Y_BETA, apply(mod, G.X_BETA, v)).items():
            lhs[tgt] = lhs.get(tgt, 0) - c
        lhs = {t: c for t, c in lhs.items() if c != 0}
        eig = F(idx.m - idx.n - 1 + 2 * idx.k, 2)
        assert lhs == ({idx: eig} if eig else {})


def test_alpha_beta_commutator_realizes_composite_root():
    """[X_alpha, X_beta] . v^1 equals the composite raising action on v^1."""
    mod = build(ConeParams(F(-3), -1), 6)
    for v in mod.region.members(4):
        idx = BasisIndex(v.n, v.m, 1)
        one = {idx: F(1)}
        composite = apply(mod, G.X_ALPHA, apply(mod, G.X_BETA, one))
        for tgt, c in apply(mod, G.X_BETA, apply(mod, G.X_ALPHA, one)).items():
            composite[tgt] = composite.get(tgt, 0) - c
        composite = {t: c for t, c in composite.items() if c != 0}
        assert composite == apply(mod, G.X_ALPHABETA, one)


def test_commutators_clean_on_full_reducible_cone():
    """At a threshold the whole cone still carries a module; it is merely
    reducible.  Building on the full cone must stay commutator-clean."""
    from su21dual import Region

    mod = build(ConeParams(F(0), 0), 7, region=Region(KType(1, 0)))
    assert _certified(mod).verified


def test_commutators_clean_on_bounded_constituents():
    # reducible vertex module: wall in the up-left direction
    mod = build(VertexParams(2, 5), 8)
    assert mod.region.kind == "vertex_strip_q"
    assert _certified(mod).verified
    # two walls cut out the three-dimensional defining module
    mod = build(ConeParams(F(1, 2), -1), 6)
    assert len(mod.basis) == 3
    assert _certified(mod).verified


def test_coefficient_relations_generic_and_reducible():
    points = [
        ConeParams(F(-1), 0),
        ConeParams(F(1), 0),  # nonunitary, still a module
        ConeParams(GaussianRational(1, 1), 2),
        ConeParams(F(-1, 2), 1),
        ConeParams(F(-5), 6),
        VertexParams(4, 3),
        VertexParams(2, -3),
    ]
    for params in points:
        report = check_coefficient_relations(params, 12)
        assert report.verified, (params, report.failures[:4])


def test_relation_names_cover_all_families():
    report = check_coefficient_relations(ConeParams(F(-5), 6), 10)
    # count by prefix to ensure every relation family actually ran
    names = {"balance_first": 0, "balance_last": 0, "balance_interior": 0,
             "balance_blend": 0, "boundary_zero": 0, "two_step": 0}
    report2 = check_coefficient_relations(ConeParams(F(-1), 0), 8)
    seen = [f.relation for f in report.failures + report2.failures]
    assert not seen
    assert report.checked > 0 and report2.checked > 0


def test_verification_report_json():
    report = _certified(build(ConeParams(F(0), 0), 1))
    doc = report.to_json()
    assert doc["verified"] is True
    assert doc["failures"] == []


def test_corrupted_module_fails_verification():
    mod = build(ConeParams(F(-1), 0), 5)
    idx = BasisIndex(2, 3, 1)
    row = mod.rows[G.X_ALPHABETA][idx]
    mod = with_row(mod, G.X_ALPHABETA, idx, tuple((t, c + 1) for t, c in row))
    report = check_commutators(mod)
    assert not report.verified
    assert any("commutator" in f.relation for f in report.failures)


REPLAYS = {
    "check_commutators": check_commutators,
    "check_adjoint": lambda mod: check_adjoint(mod, build_norms(mod)),
    "oracle_check_commutators": oracle_check_commutators,
    "oracle_check_adjoint": lambda mod: oracle_check_adjoint(mod, build_norms(mod)),
}


@pytest.mark.parametrize("replay", REPLAYS.values(), ids=REPLAYS.keys())
def test_row_target_outside_basis_raises(replay):
    """V(-1,0) has no K-types (3,12) and (4,1), and no K-type has a v^0 or
    a v^{n+1}; an interior row pointing there, in place of its target or
    besides it, is rejected, not replayed, with the same message by every
    replay.  The last two leave through the head and the tail of a K-type
    block, at k = 1 and at k = n."""
    for gen, idx, target, append in ((G.X_ALPHABETA, BasisIndex(2, 3, 1), BasisIndex(3, 12, 1), False),
                                     (G.X_BETA, BasisIndex(3, 0, 2), BasisIndex(4, 1, 1), True),
                                     (G.X_ALPHA, BasisIndex(2, 3, 1), BasisIndex(2, 3, 0), True),
                                     (G.Y_ALPHA, BasisIndex(2, 3, 2), BasisIndex(2, 3, 3), True)):
        mod = build(ConeParams(F(-1), 0), 6)
        row = mod.rows[gen].get(idx, ())
        mod = with_row(mod, gen, idx, row + ((target, F(5)),) if append else ((target, row[0][1]),))
        with pytest.raises(InvalidBasisIndex,
                           match=f"^{re.escape(repr(target))} is not a basis index of this module$"):
            replay(mod)


def test_corrupted_center_row_fails_grading():
    """The stored Z row is compared with H_alpha + 2 H_beta, also on
    boundary vectors that no commutator reaches."""
    mod = build(ConeParams(F(-1), 0), 4)
    idx = BasisIndex(4, 3, 2)
    mod = with_row(mod, G.Z, idx, ((idx, F(5)),))
    report = check_commutators(mod)
    assert [(f.relation, f.where, f.discrepancy) for f in report.failures] == [
        ("center_grading", (idx,), "2*v(4, 3, 2)")
    ]


def test_failure_reports_write_only_basis_indices_as_lists():
    """A K-type in `where` is written as its repr and a k as a number in
    text, though a K-type is a tuple too; a basis index as [n, m, k]."""
    report = check_coefficient_relations(ConeParams(F(-1), 0), 3, Region(KType(1, 0), q_max=1))
    assert report.to_json()["failures"][:5] == [
        {"relation": "boundary_zero_up_left", "where": ["KType(2, -3)"], "discrepancy": "-10/3"},
        {"relation": "balance_first", "where": ["KType(2, -3)"], "discrepancy": "4/3"},
        {"relation": "balance_last", "where": ["KType(2, -3)"], "discrepancy": "2/3"},
        {"relation": "balance_interior", "where": ["KType(2, -3)", "1"], "discrepancy": "10/3"},
        {"relation": "balance_interior", "where": ["KType(2, -3)", "2"], "discrepancy": "5/3"},
    ]
    mod = build(ConeParams(F(-1), 0), 4)
    idx = BasisIndex(4, 3, 2)
    mod = with_row(mod, G.Z, idx, ((idx, F(5)),))
    assert check_commutators(mod).to_json()["failures"] == [
        {"relation": "center_grading", "where": [[4, 3, 2]], "discrepancy": "2*v(4, 3, 2)"}
    ]


def test_relations_reject_region_off_the_lowest_ktype():
    with pytest.raises(InvalidParameter, match="is not the lowest K-type"):
        check_coefficient_relations(ConeParams(F(-1), 0), 8, Region(KType(3, 0)))


@pytest.mark.parametrize("max_n, error", [(0, EmptyTruncation), (-3, EmptyTruncation),
                                          (101, InvalidParameter)])
def test_relations_reject_max_n_as_build_does(max_n, error):
    """Below the vertex dimension and above lattice.MAX_N_LIMIT the table
    is not evaluated: the error and its message are build's."""
    params = ConeParams(F(-1), 0)
    with pytest.raises(error) as built:
        build(params, max_n)
    with pytest.raises(error, match=f"^{re.escape(str(built.value))}$"):
        check_coefficient_relations(params, max_n)
