from fractions import Fraction

import pytest

from su21dual import (
    BasisIndex,
    ConeCoord,
    ConeParams,
    InvalidParameter,
    KType,
    Region,
    VertexParams,
    build,
    build_norms,
    check_adjoint,
    is_unitary,
    products,
    su2_norms,
    support_of,
)
from su21dual import unitarity
from su21dual.algebra import real_form_basis
from su21dual.errors import Su21Error
from su21dual.scalars import GaussianRational, conjugate
from su21dual.unitarity import NormTable

from oracles import apply, oracle_build_norms

F = Fraction


def test_su2_norms_examples():
    assert su2_norms(5) == [1, F(1, 4), F(1, 6), F(1, 4), 1]
    assert su2_norms(1) == [1]
    assert su2_norms(2) == [1, 1]


def test_su2_norm_recursion():
    for n in range(1, 12):
        norms = su2_norms(n)
        for k in range(1, n):
            assert norms[k] == F(k, n - k) * norms[k - 1]


def test_is_unitary_basic_verdicts():
    assert is_unitary(ConeParams(F(-1), 0)).is_unitary
    verdict = is_unitary(ConeParams(F(1), 0))
    assert verdict.status == "nonunitary"
    assert verdict.witness.coord == ConeCoord(0, 0)
    assert verdict.witness.value == 1
    assert is_unitary(VertexParams(4, 3)).is_unitary


def test_nonreal_parameter_is_nonunitary():
    verdict = is_unitary(ConeParams(GaussianRational(F(-7), F(1, 3)), 0))
    assert verdict.status == "nonunitary"


@pytest.mark.parametrize("max_n", [0, -5])
def test_is_unitary_rejects_nonpositive_max_n(max_n):
    with pytest.raises(InvalidParameter, match="max_n"):
        is_unitary(ConeParams(F(-3), 0), max_n=max_n)


def _inject(monkeypatch, coord, edge, value):
    """Replace one edge value of the products the replay reads."""
    real = unitarity.products

    def patched(params, at):
        prod = real(params, at)
        return prod._replace(**{edge: value}) if at == coord else prod

    monkeypatch.setattr(unitarity, "products", patched)


_UNITARY_MODULES = [
    (ConeParams(F(-1), 0), ConeCoord(2, 1), "up_right"),
    (VertexParams(4, 3), ConeCoord(1, 3), "up_left"),
    (ConeParams(F(-5), 6), ConeCoord(3, 1), "up_left"),  # strip q <= 2
]


@pytest.mark.parametrize("params, coord, edge", _UNITARY_MODULES)
@pytest.mark.parametrize(
    "value, status",
    [
        (F(3, 7), "nonunitary"),
        (0, "boundary_reducible"),
        (GaussianRational(F(-2), F(1, 3)), "nonunitary"),
    ],
)
def test_replay_reports_injected_interior_value(monkeypatch, params, coord, edge, value, status):
    assert is_unitary(params).is_unitary
    _inject(monkeypatch, coord, edge, value)
    verdict = is_unitary(params)
    assert verdict.status == status
    assert verdict.witness.coord == coord
    assert verdict.witness.edge == edge
    assert verdict.witness.value == value
    assert verdict.witness.ktype == support_of(params).ktype_at(coord)


def test_replay_skips_edge_crossing_the_wall(monkeypatch):
    params = ConeParams(F(-5), 6)
    assert support_of(params).q_max == 2
    _inject(monkeypatch, ConeCoord(1, 2), "up_left", F(5))
    assert is_unitary(params).is_unitary


def test_zero_inside_full_cone_is_boundary_reducible():
    verdict = is_unitary(ConeParams(F(0), 0), Region.full_cone(0))
    assert verdict.status == "boundary_reducible"
    assert verdict.witness.value == 0


def test_constituents_at_special_values_are_unitary():
    assert is_unitary(ConeParams(F(0), 0)).is_unitary  # single point
    assert is_unitary(ConeParams(F(-1, 2), 1)).is_unitary  # ray
    assert is_unitary(ConeParams(F(-5), 6)).is_unitary  # strip
    assert is_unitary(VertexParams(2, 3)).is_unitary  # Z ray


def test_nonthreshold_reducible_strip_is_not_unitary():
    # wall at the third column but positive products before it
    params = ConeParams(F(-1, 2), -3)
    verdict = is_unitary(params)
    assert verdict.status == "nonunitary"


def test_verdict_certified_beyond_truncation():
    # tiny truncation: the closed-form analysis must still see the positive
    # product far out on the parabola
    params = ConeParams(F(4000), 0)  # products positive until far q
    verdict = is_unitary(params, Region.full_cone(0), max_n=2)
    assert verdict.status == "nonunitary"


def test_norms_anchor_and_example_value():
    mod = build(ConeParams(F(-1), 0), 10)
    norms = build_norms(mod)
    assert norms.base[norms.anchor] == 1
    assert norms.base[KType(2, 3)] == F(1, 4)
    assert all(v > 0 for v in norms.base.values())


def test_norm_table_within_ktype_scaling():
    mod = build(ConeParams(F(-1), 0), 6)
    norms = build_norms(mod)
    base = norms.base[KType(5, 6)]
    values = [norms.squared_norm(BasisIndex(5, 6, k)) for k in range(1, 6)]
    assert values == [base * x for x in su2_norms(5)]


def test_plaquette_path_independence():
    """At every coordinate with p, q >= 1 the squared norm equals each
    predecessor's times -down^2/product, down = p/n or q/n at the upper
    end and the up-left step taking the conjugated product, both read from
    products; and the two-path recursion of the oracle gives the same
    table on three unitary modules at max_n = 20."""
    plaquettes = 0
    for params, max_n in [
        (ConeParams(F(-1), 0), 12),
        (ConeParams(F(-7, 3), 2), 10),
        (VertexParams(4, 3), 12),
        (VertexParams(3, 0), 10),
    ]:
        mod = build(params, max_n)
        region = mod.region
        base = build_norms(mod).base
        assert len(base) == len(region.members(max_n))
        for coord in region.coords(max_n):
            p, q = coord.p, coord.q
            if not (p and q):
                continue
            n = region.ktype_at(coord).n
            below_left, below_right = ConeCoord(p - 1, q), ConeCoord(p, q - 1)
            right = products(params, below_left).up_right
            left = conjugate(products(params, below_right).up_left)
            here = base[region.ktype_at(coord)]
            assert here == -F(p, n) ** 2 / right * base[region.ktype_at(below_left)], coord
            assert here == -F(q, n) ** 2 / left * base[region.ktype_at(below_right)], coord
            plaquettes += 1
    assert plaquettes == 140
    for params in (ConeParams(F(-6), 6), VertexParams(6, 1), ConeParams(F(-9, 2), 6)):
        mod = build(params, 20)
        assert build_norms(mod) == oracle_build_norms(mod), params
    assert support_of(ConeParams(F(-9, 2), 6)) == Region.strip_q(6, 1)


def test_norm_construction_impossible_when_not_unitary():
    mod = build(ConeParams(F(1), 0), 5)
    with pytest.raises(InvalidParameter):
        build_norms(mod)


def test_norm_recursion_through_zero_coefficient_raises():
    # V(0,0) on the whole cone: the up-left coefficient at the vertex is 0,
    # so the recursion would divide by it
    mod = build(ConeParams(F(0), 0), 7, region=Region.full_cone(0))
    with pytest.raises(InvalidParameter, match="not unitary on this support"):
        build_norms(mod)


def _norm_grid_cases():
    """(params, region) pairs: cone modules with small real c and a few
    nonreal c, each on its support and on the full cone; the full cone
    again at every c that puts a wall at p or q <= 3, for |t| <= 8; vertex
    modules on their support and on the full vertex cone."""
    cases = set()
    nonreal = [GaussianRational(F(a, 2), b) for a in (-3, -1, 0, 1) for b in (-1, 1, F(1, 2))]
    reals = {F(a, b) for a in range(-14, 7) for b in (1, 2, 4)}
    for t in range(-4, 5):
        for c in [*reals, *nonreal]:
            cases.add((ConeParams(c, t), None))
            cases.add((ConeParams(c, t), Region.full_cone(t)))
    for t in range(-8, 9):
        for x in range(4):
            for c in (F((x + 1) * t + x * (x + 2), 2), F(x * (x + 2) - (x + 1) * t, 2)):
                cases.add((ConeParams(c, t), Region.full_cone(t)))
    for r in range(2, 6):
        for s in range(-9, 10):
            if (r + s) % 2:
                cases.add((VertexParams(r, s), None))
                cases.add((VertexParams(r, s), Region.vertex_cone(r, s)))
    return sorted(cases, key=repr)


def _norms_or_error(norms, mod):
    try:
        return norms(mod)
    except Su21Error as exc:
        return type(exc), str(exc)


def test_norms_match_transition_coefficient_oracle():
    """The recursion over canonical products gives the same NormTable, or
    the same error type and message, as the recursion over the gauge
    coefficients, on over a thousand modules at max_n = 5."""
    cases = _norm_grid_cases()
    crossing = [(p, r) for p, r in cases if r is not None and r != support_of(p)]
    assert len(cases) >= 1000 and len(crossing) >= 100
    assert sum(isinstance(getattr(p, "c", 0), GaussianRational) for p, _ in cases) >= 200
    tables = 0
    for params, region in cases:
        mod = build(params, 5, region=region)
        got = _norms_or_error(build_norms, mod)
        assert got == _norms_or_error(oracle_build_norms, mod), (params, region)
        tables += isinstance(got, NormTable)
    assert 300 <= tables <= len(cases) - 300


def test_adjoint_condition_full_suite():
    mod = build(ConeParams(F(-1), 0), 8)
    norms = build_norms(mod)
    report = check_adjoint(mod, norms)
    assert report.verified
    assert report.checked > 0


def test_adjoint_condition_on_vertex_module():
    mod = build(VertexParams(4, 3), 9)
    report = check_adjoint(mod, build_norms(mod))
    assert report.verified


def test_adjoint_fails_with_wrong_norms():
    from su21dual.unitarity import NormTable

    mod = build(ConeParams(F(-1), 0), 6)
    norms = build_norms(mod)
    bad = NormTable(norms.anchor, dict(norms.base))
    bad.base[KType(2, 3)] = F(9, 7)
    report = check_adjoint(mod, bad)
    assert not report.verified


def test_compact_elements_are_skew_adjoint_within_ktype():
    """The su(2) part of the adjoint suite reduces to the within-K-type
    norm ratio k/(n-k)."""
    mod = build(ConeParams(F(-1), 0), 7)
    norms = build_norms(mod)
    elems = dict(real_form_basis())
    for name in ("A_alpha", "B_alpha", "iH_alpha"):
        elem = elems[name]
        for k in range(1, 6):
            u = BasisIndex(6, 3, k)
            w = BasisIndex(6, 3, k + 1)
            img_u = apply(mod, elem, {u: F(1)})
            img_w = apply(mod, elem, {w: F(1)})
            lhs = img_u.get(w, 0) * norms.squared_norm(w)
            rhs_c = img_w.get(u, 0)
            if isinstance(rhs_c, GaussianRational):
                rhs_c = rhs_c.conjugate()
            assert lhs + rhs_c * norms.squared_norm(u) == 0


@pytest.mark.parametrize(
    "region", [Region.full_cone(1), Region(KType(3, 0))], ids=["full_cone_t1", "vertex_3_0"]
)
def test_is_unitary_rejects_region_off_the_lowest_ktype(region):
    """V(-1, 0) has lowest K-type (1, 0); a region on another vertex holds
    K-types the module does not have."""
    with pytest.raises(InvalidParameter, match="is not the lowest K-type"):
        is_unitary(ConeParams(F(-1), 0), region)
