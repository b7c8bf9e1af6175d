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
    BasisIndex,
    ConeParams,
    Generator,
    KType,
    Region,
    VertexParams,
    build,
    build_norms,
    check_adjoint,
    check_coefficient_relations,
    check_commutators,
    coefficients,
    document_norms,
)
from su21dual import adjoint, verify
from su21dual.algebra import INDEPENDENT
from su21dual.builder import TruncatedModule
from su21dual.errors import InvalidBasisIndex
from su21dual.scalars import GaussianRational
from su21dual.unitarity import NormTable

from oracles import (
    cone_params,
    oracle_check_adjoint,
    oracle_check_coefficient_relations,
    oracle_check_commutators,
    random_cone_params,
    real_form_images,
    small,
    vertex_params,
    with_row,
)

F = Fraction

_rng = random.Random(31)
MODULES = [
    *[(p, 7, None) for p in (random_cone_params(_rng, complex_share=0.0) for _ in range(2))],
    *[(p, 7, None) for p in (random_cone_params(_rng, complex_share=1.0) for _ in range(2))],
    (VertexParams(4, 3), 8, None),
    (VertexParams(2, 5), 8, None),  # bounded: wall in the up-left direction
    (ConeParams(F(1, 2), -1), 6, None),  # the three-dimensional defining module
    (ConeParams(F(0), 0), 7, Region(KType(1, 0))),  # reducible threshold cone
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
    norms = document_norms(mod)
    if norms is not None:
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



# The generators of the groups of real-form elements whose identities the
# K-type conventions imply: iH_alpha, iH_beta, and A_alpha with B_alpha.
COMPACT = {frozenset({Generator.H_ALPHA}), frozenset({Generator.H_BETA}),
           frozenset({Generator.X_ALPHA, Generator.Y_ALPHA})}


def _folded_groups(monkeypatch):
    """A list that gets, for each residual evaluation of check_adjoint
    (adjoint._folds), the generators of the group it evaluates."""
    folds, seen = adjoint._folds, []

    def spy(first, units, *args):
        seen.append(frozenset(units))
        return folds(first, units, *args)

    monkeypatch.setattr(adjoint, "_folds", spy)
    return seen


def _any_norms(mod):
    """The module's document norms, or 1/n on each K-type when it has none."""
    members = mod.region.members(mod.max_n)
    return document_norms(mod) or NormTable(mod.region.vertex, {kt: F(1, kt.n) for kt in members})


def test_compact_identities_are_not_evaluated_on_clean_modules(monkeypatch):
    """On every module of MODULES as built, nonreal c included, the
    residuals of iH_alpha, iH_beta, A_alpha and B_alpha are not evaluated,
    those of the other four are, and each report is still the oracle's."""
    seen = _folded_groups(monkeypatch)
    for case in MODULES:
        mod = _build(case)
        norms = _any_norms(mod)
        seen.clear()
        report = check_adjoint(mod, norms).to_json()
        assert report == oracle_check_adjoint(mod, norms).to_json(), case
        assert COMPACT.isdisjoint(seen), case
        assert len(set(seen)) == 2, case


def _broken_compact(mod, how):
    """mod with a premise of adjoint._compact broken one way: H_beta given
    the imaginary list k D, H_alpha given a second offset (0, 0, 1) with one
    nonzero entry, one entry of X_alpha shifted by D, or Y_alpha given
    X_alpha's list at (0, 0, -1).  Each change is at an interior vector
    v^k, 1 < k < n, so every target stays in the basis."""
    d, size = mod.scale, len(mod.basis)
    u = next(u for u, idx in enumerate(mod.basis) if mod.interior(idx) and 1 < idx.k < idx.n)
    fields = {g: dict(at) for g, at in mod.fields.items()}
    if how == "imaginary_h_beta":
        beta = fields[Generator.H_BETA]
        beta[0, 0, 0] = beta[0, 0, 0][0], [d * idx.k for idx in mod.basis] + [0]
    elif how == "second_offset_h_alpha":
        z = [0] * (size + 1)
        z[u] = d
        fields[Generator.H_ALPHA][0, 0, 1] = z, None
    elif how == "shifted_x_alpha":
        re, im = fields[Generator.X_ALPHA][0, 0, -1]
        fields[Generator.X_ALPHA][0, 0, -1] = [x + d * (v == u) for v, x in enumerate(re)], im
    else:
        fields[Generator.Y_ALPHA][0, 0, -1] = fields[Generator.X_ALPHA][0, 0, -1]
    return TruncatedModule(mod.params, mod.max_n, mod.region, mod.basis, mod.scale, fields)


@pytest.mark.parametrize("how", ["imaginary_h_beta", "second_offset_h_alpha", "shifted_x_alpha",
                                 "y_alpha_given_x_alpha_list"])
def test_broken_compact_premise_evaluates_every_element_as_the_oracle(monkeypatch, how):
    """With a premise broken, the residuals of all eight elements are
    evaluated, and the report, which fails, is the oracle's."""
    seen = _folded_groups(monkeypatch)
    for case in MODULES:
        mod = _build(case)
        if not any(mod.interior(idx) and 1 < idx.k < idx.n for idx in mod.basis):
            continue
        bad, norms = _broken_compact(mod, how), _any_norms(mod)
        seen.clear()
        report = check_adjoint(bad, norms).to_json()
        assert report == oracle_check_adjoint(bad, norms).to_json(), case
        assert not report["verified"], case
        assert COMPACT <= set(seen), case


MIRROR_BOUNDARY = [
    (ConeParams(F(-1), 0), 6),
    (ConeParams(F(-1, 2), 1), 7),  # the strip V(-1/2, 2)
    (VertexParams(4, 3), 8),
    (ConeParams(F(-7, 3), 2), 5),
]


@pytest.mark.parametrize("params,max_n", MIRROR_BOUNDARY, ids=repr)
def test_each_corrupted_norm_matches_oracle(params, max_n):
    """Every K-type's squared norm scaled in turn by 9/7, 0 and -1, the top
    layer n = max_n included: a pair (u, w) with w on the top layer has no
    mirrored pair (w, u), since w is not interior, and a corrupted norm
    there must still fail the pairs from below as the oracle says."""
    mod = build(params, max_n)
    norms, images = document_norms(mod), real_form_images(mod)
    assert max(kt.n for kt in norms.base) == max_n
    for kt in norms.base:
        for factor in (F(9, 7), F(0), F(-1)):
            bad = NormTable(norms.anchor, {**norms.base, kt: norms.base[kt] * factor})
            report = check_adjoint(mod, bad).to_json()
            assert report == oracle_check_adjoint(mod, bad, images).to_json(), (kt, factor)
            assert not report["verified"], (kt, factor)

# (params, max_n, interior count of check_commutators, of check_adjoint):
# counts 0 and 1 on both sides, and U(0), whose fields are all zero.
SMALL_INTERIORS = [
    (ConeParams(F(-1), 0), 1, 0, 0),
    (ConeParams(F(-1), 0), 2, 0, 1),
    (ConeParams(F(-1), 0), 3, 1, 5),
    (VertexParams(4, 3), 4, 0, 0),
    (VertexParams(4, 3), 5, 0, 4),
    (VertexParams(4, 3), 6, 4, 14),
    (ConeParams(F(0), 0), 1, 0, 0),
    (ConeParams(F(0), 0), 5, 1, 1),
]


@pytest.mark.parametrize("params,max_n,commutator_count,adjoint_count", SMALL_INTERIORS, ids=repr)
def test_replays_of_small_interiors_match_oracles(params, max_n, commutator_count, adjoint_count):
    """An interior of no vector or of one, where a gather over the interior
    positions reads none or one, and the module with no nonzero field."""
    mod = build(params, max_n)
    norms = document_norms(mod)
    ours = (check_commutators(mod).to_json(), check_adjoint(mod, norms).to_json())
    oracle = (oracle_check_commutators(mod).to_json(), oracle_check_adjoint(mod, norms).to_json())
    assert ours == oracle
    counts = [len(mod.basis) - report["skipped_boundary"] for report in ours]
    assert counts == [commutator_count, adjoint_count]
    assert ours[0]["verified"] and ours[1]["verified"]


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
    mod = with_row(mod, gen, src, row[:i] + ((tgt, value + delta),) + row[i + 1:])
    assert check_commutators(mod).to_json() == oracle_check_commutators(mod).to_json()


# (params, max_n, tampers): real c on a full cone and on the strip U(2),
# nonreal c, W(4, 3), and V(-1,0) at max_n 5 = vertex.n + REPLAYED_DEPTH,
# where even build's module is replayed in full.
TAMPERED = [
    (ConeParams(F(-1), 0), 6, 15),
    (ConeParams(F(-1, 2), 1), 7, 100),
    (ConeParams(GaussianRational(F(1, 2), F(1)), 1), 6, 10),
    (VertexParams(4, 3), 6, 150),
    (ConeParams(F(-1), 0), 5, 25),
]


def _tampered(mod, rng):
    """mod with one list of one independent field, real or imaginary part,
    changed either by (alpha + beta k) D on one K-type block or by a
    nonzero shift of one entry, seeded by rng."""
    gen = rng.choice([g for g in INDEPENDENT if mod.fields[g]])
    delta = rng.choice(sorted(mod.fields[gen]))
    start, n = rng.choice([(u, idx.n) for u, idx in enumerate(mod.basis) if idx.k == 1])
    if rng.random() < 0.6:
        alpha, beta = rng.choice([(a, b) for a in range(-2, 3) for b in range(-2, 3) if a or b])
        edits = {start + k - 1: (alpha + beta * k) * mod.scale for k in range(1, n + 1)}
    else:
        edits = {start + rng.randrange(n): rng.choice((-2, -1, 1, 2)) * rng.choice((1, mod.scale))}
    fields = {g: dict(at) for g, at in mod.fields.items()}
    parts = [list(z) if z else [0] * (len(mod.basis) + 1) for z in fields[gen][delta]]
    z = parts[rng.random() < 0.3]
    for u, shift in edits.items():
        z[u] += shift
    fields[gen][delta] = parts[0], parts[1] if any(parts[1]) else None
    return TruncatedModule(mod.params, mod.max_n, mod.region, mod.basis, mod.scale, fields)


def _report_or_error(check, mod):
    try:
        return check(mod).to_json()
    except InvalidBasisIndex as error:
        return str(error)


def test_tampered_blocks_match_oracle():
    """300 seeded tampers, each giving the oracle's report or error."""
    rng = random.Random(31)
    for params, max_n, tampers in TAMPERED:
        mod = build(params, max_n)
        for _ in range(tampers):
            bad = _tampered(mod, rng)
            ours = _report_or_error(check_commutators, bad)
            assert ours == _report_or_error(oracle_check_commutators, bad), (params, max_n)


def _replayed_modules(monkeypatch):
    """A list that gets each module that verify._replay, the plain full
    replay, is called on."""
    replay, seen = verify._replay, []

    def spy(mod):
        seen.append(mod)
        return replay(mod)

    monkeypatch.setattr(verify, "_replay", spy)
    return seen


# Modules build makes above vertex.n + REPLAYED_DEPTH: the cones of MODULES
# and TAMPERED, W(4, 3) and the strip W(2, 5).
SHORTCUT = [(params, max_n) for params, max_n, _ in MODULES[:4] + TAMPERED[:3]] + [
    (VertexParams(4, 3), 9), (VertexParams(2, 5), 9)]


def test_a_module_build_makes_replays_only_its_lowest_layers(monkeypatch):
    """check_commutators replays only build(params, vertex.n +
    REPLAYED_DEPTH, region) of such a module, and reports what the oracle
    reports of the whole module."""
    seen = _replayed_modules(monkeypatch)
    for params, max_n in SHORTCUT:
        mod = build(params, max_n)
        low = params.vertex.n + verify.REPLAYED_DEPTH
        assert max_n > low
        seen.clear()
        report = check_commutators(mod).to_json()
        assert report == oracle_check_commutators(mod).to_json(), (params, max_n)
        assert [(m.params, m.max_n, m.region) for m in seen] == [(params, low, mod.region)]


def _rescaled(mod):
    """mod with twice its scale and the same fields: every entry halved."""
    return TruncatedModule(mod.params, mod.max_n, mod.region, mod.basis, 2 * mod.scale, mod.fields)


def _tampered_above(mod):
    """mod with D added to the up-right entry of X_alphabeta at v^1 of the
    first K-type above the layers check_commutators would replay."""
    low = mod.region.vertex.n + verify.REPLAYED_DEPTH
    u = next(u for u, idx in enumerate(mod.basis) if idx.n + 2 > low)
    fields = {g: dict(at) for g, at in mod.fields.items()}
    re, im = fields[Generator.X_ALPHABETA][1, 3, 0]
    fields[Generator.X_ALPHABETA][1, 3, 0] = [x + mod.scale * (v == u) for v, x in enumerate(re)], im
    return TruncatedModule(mod.params, mod.max_n, mod.region, mod.basis, mod.scale, fields)


@pytest.mark.parametrize("change", [_rescaled, _tampered_above], ids=["rescaled", "tampered_above"])
def test_a_module_build_does_not_make_is_replayed_in_full(monkeypatch, change):
    """A module that differs from build's only in its scale, or only in an
    entry above the layers replayed, is replayed in full, and its report,
    which fails, is the oracle's."""
    seen = _replayed_modules(monkeypatch)
    for params, max_n in SHORTCUT:
        bad = change(build(params, max_n))
        seen.clear()
        report = check_commutators(bad).to_json()
        assert report == oracle_check_commutators(bad).to_json(), (params, max_n)
        assert not report["verified"], (params, max_n)
        assert seen == [bad], (params, max_n)


def _broken_weights(mod, how):
    """mod with an entry of H_alpha or H_beta shifted by D, H_beta given
    the imaginary list k D, H_alpha given a second offset (0, 0, 1) with
    one nonzero entry whose target is a basis vector, or X_alpha given
    Y_alpha's list at (0, 0, 1), a step that lowers the H_alpha weight by 2
    where X_alpha's root is +2.  Each change is at an interior vector v^k
    with k < n."""
    d, size = mod.scale, len(mod.basis)
    u = next(u for u, idx in enumerate(mod.basis) if mod.interior(idx) and idx.k < idx.n)
    fields = {g: dict(at) for g, at in mod.fields.items()}
    alpha, beta = fields[Generator.H_ALPHA], fields[Generator.H_BETA]
    if how.startswith("shift"):
        at = alpha if how == "shift_h_alpha" else beta
        re = list(at[0, 0, 0][0])
        re[u] += d
        at[0, 0, 0] = re, None
    elif how == "imaginary_h_beta":
        beta[0, 0, 0] = beta[0, 0, 0][0], [d * idx.k for idx in mod.basis] + [0]
    elif how == "second_offset_h_alpha":
        z = [0] * (size + 1)
        z[u] = d
        alpha[0, 0, 1] = z, None
    else:
        fields[Generator.X_ALPHA][0, 0, 1] = fields[Generator.Y_ALPHA][0, 0, 1]
    return TruncatedModule(mod.params, mod.max_n, mod.region, mod.basis, mod.scale, fields)


@pytest.mark.parametrize("how", ["shift_h_alpha", "shift_h_beta", "imaginary_h_beta",
                                 "second_offset_h_alpha", "root_vector_wrong_offset"])
def test_broken_weights_replay_every_pair_as_the_oracle(monkeypatch, how):
    """A module whose Cartan elements do not act by the weights is not
    build's, so it is replayed in full, all 28 pairs at every interior
    vector, and the report is the oracle's; each break fails the check."""
    seen = _replayed_modules(monkeypatch)
    for params, max_n, _ in TAMPERED:
        bad = _broken_weights(build(params, max_n), how)
        seen.clear()
        ours = check_commutators(bad).to_json()
        assert ours == oracle_check_commutators(bad).to_json(), (params, max_n)
        assert not ours["verified"], (params, max_n)
        assert seen == [bad], (params, max_n)


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
    """The report documents of both sides, the values of their
    discrepancies, and our failures, at max_n = 8."""
    ours = check_coefficient_relations(params, 8, region)
    oracle = oracle_check_coefficient_relations(params, 8, region)
    values = [[f.discrepancy for f in r.failures] for r in (ours, oracle)]
    return ours.to_json(), oracle.to_json(), values, ours.failures


def _evaluated_k_family(monkeypatch):
    """A list that gets the place (kt, k) of every balance_interior and
    balance_blend check that check_coefficient_relations evaluates; see
    _k_family_places for where that must be."""
    vanishes, seen = verify._vanishes, []

    def spy(report, relation, where, *value):
        if relation in ("balance_interior", "balance_blend"):
            seen.append(where)
        vanishes(report, relation, where, *value)

    monkeypatch.setattr(verify, "_vanishes", spy)
    return seen


def _failed_ends(failures) -> tuple[set, set]:
    """The K-types at which balance_first fails, and those at which
    balance_last fails."""
    return tuple({f.where[0] for f in failures if f.relation == relation}
                 for relation in ("balance_first", "balance_last"))


def _k_family_places(failures) -> list:
    """Where the k-family must be evaluated, each place twice: every k of
    every K-type with n > 1 at which balance_first or balance_last fails."""
    return sorted([(kt, k) for kt in set.union(*_failed_ends(failures)) if kt.n > 1
                   for k in range(1, kt.n + 1)] * 2)


@pytest.mark.parametrize("params,region", RELATION_CASES, ids=repr)
def test_relation_reports_match_oracle(monkeypatch, params, region):
    """On the support every check holds, so the k-family is counted
    without a value of it being computed; the box's walls make
    balance_first or balance_last fail at some K-types, and only there is
    it evaluated."""
    seen = _evaluated_k_family(monkeypatch)
    ours, oracle, (values, oracle_values), failures = _relation_reports(params, region)
    assert ours == oracle
    assert values == oracle_values
    assert ours["checked"] > 0
    assert sorted(seen) == _k_family_places(failures)
    if region is None:
        assert ours["verified"]
        assert seen == []


PERTURBATIONS = {"right_at_p1": (0, 0), "left_at_q1": (1, 1), "im_at_p1": (2, 0), "im_at_q1": (2, 1)}


@pytest.mark.parametrize("part,axis", PERTURBATIONS.values(), ids=PERTURBATIONS)
def test_perturbed_relation_reports_match_oracle(monkeypatch, part, axis):
    """With 1 added to one of right, left, im of _ups at p = 1 or q = 1,
    both sides read the same wrong table through coefficients._ups and
    report the same failures with the same discrepancies.  The k-family is
    evaluated, at every k, exactly at the K-types with n > 1 where
    balance_first or balance_last fails; left_at_q1 has some where only
    balance_first fails."""
    ups = coefficients._ups

    def perturbed(params, p, q):
        values = list(ups(params, p, q))
        values[part] += (p, q)[axis] == 1
        return tuple(values)

    monkeypatch.setattr(coefficients, "_ups", perturbed)
    seen = _evaluated_k_family(monkeypatch)
    failures, first_only = 0, set()
    for params, region in RELATION_CASES:
        seen.clear()
        ours, oracle, (values, oracle_values), ours_failed = _relation_reports(params, region)
        assert ours == oracle, (params, region)
        assert values == oracle_values, (params, region)
        assert sorted(seen) == _k_family_places(ours_failed), (params, region)
        failures += len(ours["failures"])
        first, last = _failed_ends(ours_failed)
        first_only |= {kt for kt in first - last if kt.n > 1}
    assert failures > 0
    assert first_only or PERTURBATIONS["left_at_q1"] != (part, axis)


UNITARY = [
    ConeParams(F(-1), 0),
    ConeParams(F(-5, 2), 1),
    ConeParams(F(-7, 3), 2),
    ConeParams(F(-1, 2), 1),  # U(2): a strip, walled in the up-left direction
    VertexParams(4, 3),
    VertexParams(3, 0),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(UNITARY), st.data())
def test_single_entry_perturbation_of_a_unitary_module_matches_adjoint_oracle(params, data):
    """Adding a nonzero Gaussian rational to one stored action entry of a
    unitary module gives the same adjoint report as the oracle, against
    the norms of the unperturbed module."""
    mod = build(params, data.draw(st.integers(max(3, params.vertex.n), 6), label="max_n"))
    norms = build_norms(mod)
    gen = data.draw(st.sampled_from([g for g in mod.rows if mod.rows[g]]), label="gen")
    src = data.draw(st.sampled_from(sorted(mod.rows[gen])), label="src")
    row = mod.rows[gen][src]
    i = data.draw(st.integers(0, len(row) - 1), label="entry")
    delta = data.draw(st.builds(GaussianRational, small, small).filter(bool), label="delta")
    tgt, value = row[i]
    mod = with_row(mod, gen, src, row[:i] + ((tgt, value + delta),) + row[i + 1:])
    assert check_adjoint(mod, norms).to_json() == oracle_check_adjoint(mod, norms).to_json()


def _reports(mod):
    """The commutator and adjoint reports of both sides on a module with
    unitary parameters, against the norms of those parameters, which do
    not read the rows."""
    norms = build_norms(build(mod.params, mod.max_n))
    ours = (check_commutators(mod).to_json(), check_adjoint(mod, norms).to_json())
    oracle = (oracle_check_commutators(mod).to_json(), oracle_check_adjoint(mod, norms).to_json())
    return ours, oracle


@pytest.mark.parametrize("value", [F(5), GaussianRational(F(1, 3), F(-2))], ids=["real", "nonreal"])
def test_term_at_an_offset_no_module_uses_matches_oracles(value):
    """X_alpha at (3, 0, 2) also reaches (5, 6, 1), a basis vector two
    dimensions up: an offset that no generator of a built module has."""
    mod = build(ConeParams(F(-1), 0), 7)
    src = BasisIndex(3, 0, 2)
    mod = with_row(mod, Generator.X_ALPHA, src,
                   mod.rows[Generator.X_ALPHA][src] + ((BasisIndex(5, 6, 1), value),))
    ours, oracle = _reports(mod)
    assert ours == oracle
    assert not ours[0]["verified"] and not ours[1]["verified"]


@pytest.mark.parametrize("split", [True, False], ids=["split_value", "extra_value"])
def test_row_listing_one_target_twice_matches_oracles(split):
    """The row acts by the sum of its terms: a value split in two halves
    still verifies, and a second term with a new value fails as the oracles
    say."""
    mod = build(ConeParams(F(-1), 0), 7)
    src = BasisIndex(2, 3, 1)
    (tgt, value), *rest = mod.rows[Generator.X_ALPHABETA][src]
    first = (tgt, value / 2) if split else (tgt, value)
    second = (tgt, value / 2) if split else (tgt, F(3, 4))
    mod = with_row(mod, Generator.X_ALPHABETA, src, (first, *rest, second))
    ours, oracle = _reports(mod)
    assert ours == oracle
    assert ours[0]["verified"] is ours[1]["verified"] is split


@pytest.mark.parametrize("both_ways", [False, True], ids=["one_way", "both_ways"])
def test_generators_sharing_an_offset_count_as_their_sum(both_ways):
    """X_alpha given Y_alpha's term from v^1 of (2, 3), with its value: the
    two cancel in A_alpha = X - Y and add in B_alpha = i(X + Y).  With
    Y_alpha also given X_alpha's term from v^2 back to v^1, the pair of
    them is linked in B_alpha only, so the adjoint count is the oracle's
    only if it reads the sum of the generators' entries."""
    mod = build(ConeParams(F(-1), 0), 7)
    src, tgt = BasisIndex(2, 3, 1), BasisIndex(2, 3, 2)
    mod = with_row(mod, Generator.X_ALPHA, src, mod.rows[Generator.Y_ALPHA][src])
    if both_ways:
        mod = with_row(mod, Generator.Y_ALPHA, tgt, mod.rows[Generator.X_ALPHA][tgt])
    ours, oracle = _reports(mod)
    assert ours == oracle
    assert ours[1]["verified"] is both_ways
