"""The integer-scaled replays against the Fraction oracles of oracles.py.

Both sides must produce the same report document: check counts, skipped
boundary vectors, and every failure with its order, location and
discrepancy string.
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
    check_commutators,
    is_unitary,
)
from su21dual.scalars import GaussianRational
from su21dual.unitarity import NormTable

from oracles import oracle_check_adjoint, oracle_check_commutators, random_cone_params

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
