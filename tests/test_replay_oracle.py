"""The integer-scaled replays against the Fraction oracles of oracles.py.

Both sides must produce the same report document: check counts, skipped
boundary vectors, and every failure with its order, location and
discrepancy string.  The coefficient relations are compared on the
support and on a region whose walls are not the support's, with the
gauge as stated and with a perturbed one.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from su21dual import (
    ConeParams,
    Region,
    VertexParams,
    build,
    build_norms,
    check_adjoint,
    check_coefficient_relations,
    check_commutators,
    coefficients,
    is_unitary,
)
from su21dual.scalars import GaussianRational
from su21dual.unitarity import NormTable

from oracles import (
    oracle_check_adjoint,
    oracle_check_coefficient_relations,
    oracle_check_commutators,
    random_cone_params,
)

F = Fraction

_rng = random.Random(31)
MODULES = [
    *[(p, 7, None) for p in (random_cone_params(_rng, complex_share=0.0) for _ in range(2))],
    *[(p, 7, None) for p in (random_cone_params(_rng, complex_share=1.0) for _ in range(2))],
    (VertexParams(4, 3), 8, None),
    (VertexParams(2, 5), 8, None),  # bounded: wall in the up-left direction
    (ConeParams(F(1, 2), -1), 6, None),  # the three-dimensional defining module
    (ConeParams(F(0), 0), 7, Region.full_cone(0)),  # reducible threshold cone
]


def _build(case):
    params, max_n, region = case
    return build(params, max_n, region=region)


@pytest.mark.parametrize("case", MODULES, ids=lambda c: repr(c[0]))
def test_commutator_reports_match_oracle(case):
    mod = _build(case)
    report = check_commutators(mod).to_json()
    assert report == oracle_check_commutators(mod).to_json()
    assert report["verified"]


@pytest.mark.parametrize("case", MODULES, ids=lambda c: repr(c[0]))
def test_adjoint_reports_match_oracle(case):
    mod = _build(case)
    members = mod.region.members(mod.max_n)
    if is_unitary(mod.params, mod.region, mod.max_n).is_unitary:
        norms = build_norms(mod)
        report = check_adjoint(mod, norms).to_json()
        assert report == oracle_check_adjoint(mod, norms).to_json()
        assert report["verified"]
        base = dict(norms.base)
    else:
        base = {kt: F(1, kt.n) for kt in members}
    corrupt = members[len(members) // 2]
    base[corrupt] *= F(9, 7)
    bad = NormTable(mod.region.vertex, base)
    report = check_adjoint(mod, bad).to_json()
    assert report == oracle_check_adjoint(mod, bad).to_json()
    assert not report["verified"]


small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
cone_params = st.builds(
    ConeParams,
    st.one_of(small, st.builds(GaussianRational, small, small.filter(bool))),
    st.integers(-4, 4),
)
vertex_params = st.integers(2, 4).flatmap(
    lambda r: st.builds(VertexParams, st.just(r), st.integers(-3, 3).map(lambda h: 2 * h + 1 - r % 2))
)


@settings(max_examples=30, deadline=None)
@given(st.one_of(cone_params, vertex_params), st.data())
def test_single_entry_perturbation_matches_oracle(params, data):
    """Adding a nonzero Gaussian rational to one stored action entry gives
    the same report, failures and discrepancy strings included."""
    mod = build(params, data.draw(st.integers(max(3, params.vertex.n), 6), label="max_n"))
    gens = [g for g in mod.rows if mod.rows[g]]
    assume(gens)
    gen = data.draw(st.sampled_from(gens), label="gen")
    src = data.draw(st.sampled_from(sorted(mod.rows[gen])), label="src")
    row = mod.rows[gen][src]
    i = data.draw(st.integers(0, len(row) - 1), label="entry")
    delta = data.draw(st.builds(GaussianRational, small, small).filter(bool), label="delta")
    tgt, value = row[i]
    mod.rows[gen][src] = row[:i] + ((tgt, value + delta),) + row[i + 1:]
    assert check_commutators(mod).to_json() == oracle_check_commutators(mod).to_json()


RELATION_PARAMS = [
    ConeParams(F(-5), 6),
    ConeParams(F(-1), 0),
    ConeParams(F(-1, 2), 1),
    ConeParams(F(7, 3), -2),
    ConeParams(GaussianRational(1, 1), -3),
    ConeParams(GaussianRational(F(5, 3), F(13, 5)), -4),
    VertexParams(4, 3),
    VertexParams(2, 5),
    VertexParams(3, -6),
]
# Each point on its support and on a box whose walls are not the support's.
RELATION_CASES = [
    (params, region)
    for params in RELATION_PARAMS
    for region in (None, Region(params.vertex, p_max=3, q_max=1))
]


def _relation_reports(params, region):
    """The report documents of both sides, and the types of their
    discrepancies, at max_n = 8."""
    ours = check_coefficient_relations(params, 8, region)
    oracle = oracle_check_coefficient_relations(params, 8, region)
    types = [[type(f.discrepancy) for f in r.failures] for r in (ours, oracle)]
    return ours.to_json(), oracle.to_json(), types


@pytest.mark.parametrize("params,region", RELATION_CASES, ids=repr)
def test_relation_reports_match_oracle(params, region):
    ours, oracle, (types, oracle_types) = _relation_reports(params, region)
    assert ours == oracle
    assert types == oracle_types
    assert ours["checked"] > 0
    if region is None:
        assert ours["verified"]


PERTURBATIONS = {"right_at_p1": (0, 0), "left_at_q1": (1, 1), "im_at_p1": (2, 0), "im_at_q1": (2, 1)}


@pytest.mark.parametrize("part,axis", PERTURBATIONS.values(), ids=PERTURBATIONS)
def test_perturbed_relation_reports_match_oracle(monkeypatch, part, axis):
    """With 1 added to one of right, left, im of _ups at p = 1 or q = 1,
    both sides read the same wrong table through coefficients._ups and
    report the same failures with the same discrepancies."""
    ups = coefficients._ups

    def perturbed(params, p, q):
        values = list(ups(params, p, q))
        values[part] += (p, q)[axis] == 1
        return tuple(values)

    monkeypatch.setattr(coefficients, "_ups", perturbed)
    failures = 0
    for params, region in RELATION_CASES:
        ours, oracle, (types, oracle_types) = _relation_reports(params, region)
        assert ours == oracle, (params, region)
        assert types == oracle_types, (params, region)
        failures += len(ours["failures"])
    assert failures > 0
