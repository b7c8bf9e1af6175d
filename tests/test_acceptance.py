"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is at tolerance zero.  Each test prints a single PASS line on
success (visible with pytest -s or in the captured-output section); a
failing criterion shows up as a failing test.
"""

import random
import time
from fractions import Fraction

from su21dual import (
    ConeCoord,
    ConeParams,
    KType,
    Parity,
    Region,
    Sl2Kind,
    Sl2Params,
    VertexParams,
    build,
    build_norms,
    c_special,
    c_threshold,
    check_adjoint,
    check_commutators,
    classify,
    enumerate_dual,
    is_unitary,
    products,
    sl2_classify,
    sl2_coeffs,
    su2_norms,
)
from su21dual.scalars import GaussianRational

from oracles import SignClass, random_cone_params, sign_class, walk_cone_products

F = Fraction


def _report(n, text):
    print(f"criterion {n}: PASS  {text}")


def test_criterion_1_commutator_certification():
    """Zero commutator failures on the named and random parameter points,
    max_n = 12, within the 30 s budget."""
    t0 = time.time()
    rng = random.Random(20240810)
    points = [
        ConeParams(F(-1), 0),
        ConeParams(F(-1, 2), -3),
        ConeParams(GaussianRational(1, 1), 2),
        ConeParams(F(-5), 6),
    ] + [random_cone_params(rng) for _ in range(6)]
    total_checked = 0
    for params in points:
        mod = build(params, 12)
        report = check_commutators(mod)
        assert report.verified, (params, report.failures[:3])
        total_checked += report.checked
    elapsed = time.time() - t0
    assert elapsed < 30, f"runtime budget exceeded: {elapsed:.1f}s"
    _report(1, f"{total_checked} commutator checks over 10 points in {elapsed:.1f}s")


def test_criterion_2_product_oracle_equivalence():
    """Closed-form products equal the balance-system solve at every vertex
    with n <= 20, for 10 random parameter points; ratio law holds."""
    rng = random.Random(77)
    count = 0
    for _ in range(10):
        params = random_cone_params(rng)
        table = walk_cone_products(params, 20)
        for coord, pair in table.items():
            assert products(params, coord) == pair
            count += 1
        # ratio law n/(n+1) wherever defined
        for coord, pair in table.items():
            if coord.q >= 1:
                below = table[ConeCoord(coord.p, coord.q - 1)].up_right
                n = 1 + coord.p + coord.q
                if pair.up_right != 0 and below != 0:
                    assert pair.up_right / below == F(n, n + 1)
            if coord.p >= 1:
                below = table[ConeCoord(coord.p - 1, coord.q)].up_left
                n = 1 + coord.p + coord.q
                if pair.up_left != 0 and below != 0:
                    assert pair.up_left / below == F(n, n + 1)
    _report(2, f"{count} vertices, solver == closed form, ratio law exact")


def test_criterion_3_w43_embedding_regression():
    expected = (F(-16, 5), F(-4, 5))
    assert products(VertexParams(4, 3), ConeCoord(0, 0)) == expected
    assert products(ConeParams(F(-1, 2), -3), ConeCoord(3, 0)) == expected
    assert products(ConeParams(F(-5), 6), ConeCoord(0, 3)) == expected
    _report(3, "W(4,3) products (-16/5, -4/5) match both embeddings exactly")


def test_criterion_4_threshold_table():
    assert [c_threshold(t) for t in range(7)] == [
        0, F(-1, 2), -1, F(-3, 2), F(-5, 2), F(-7, 2), -5,
    ]
    assert c_special(0, 4) == -2
    assert c_special(1, 4) == F(-5, 2)
    for t in range(11):
        assert c_threshold(t) == c_threshold(-t)
    _report(4, "threshold values and symmetry verified")


def test_criterion_5_unitarity_flip():
    """Just below every threshold: unitary with all products negative up to
    n = 50 and certified beyond; at the threshold: a zero product appears
    and the classifier returns the constituent with the correct support."""
    for t in range(-6, 7):
        ct = c_threshold(t)
        below = ConeParams(ct - F(1, 100), t)
        verdict = is_unitary(below, Region.full_cone(t), max_n=50)
        assert verdict.is_unitary, t
        # explicit finite re-scan of all products up to n = 50
        region = Region.full_cone(t)
        for coord in region.coords(50):
            pair = products(below, coord)
            assert sign_class(pair.up_right) is SignClass.NEGATIVE_REAL
            assert sign_class(pair.up_left) is SignClass.NEGATIVE_REAL
        at = is_unitary(ConeParams(ct, t), Region.full_cone(t), max_n=50)
        assert at.status == "boundary_reducible" and at.witness.value == 0, t
        rec = classify(ConeParams(ct, t))
        assert rec.unitary and not rec.label.startswith("V("), t
    assert classify(ConeParams(F(0), 0)).support.members(10) == [KType(1, 0)]
    assert classify(ConeParams(F(-1, 2), 1)).support.members(5) == [
        KType(1, 2), KType(2, 5), KType(3, 8), KType(4, 11), KType(5, 14),
    ]
    _report(5, "unitary below threshold (certified), constituent at threshold")


def test_criterion_6_inner_product():
    mod = build(ConeParams(F(-1), 0), 10)
    norms = build_norms(mod)  # closed form; check_adjoint certifies it below
    assert all(v > 0 for v in norms.base.values())
    assert len(norms.base) == len(mod.region.members(10))
    report = check_adjoint(mod, norms)
    assert report.verified, report.failures[:3]
    _report(
        6,
        f"norms positive and path-consistent, {report.checked} adjoint checks clean",
    )


def test_criterion_7_su2_norms():
    assert su2_norms(5) == [1, F(1, 4), F(1, 6), F(1, 4), 1]
    _report(7, "five-dimensional compact module norms match")


def test_criterion_8_sl2_classification():
    cases = [
        (GaussianRational(0, F(3, 2)), Parity.EVEN, Sl2Kind.PRINCIPAL),
        (F(1, 2), Parity.EVEN, Sl2Kind.COMPLEMENTARY),
        (F(0), Parity.ODD, Sl2Kind.MOCK_DISCRETE_POINT),
        (F(2), Parity.EVEN, Sl2Kind.NONUNITARY),
    ]
    for lam, parity, kind in cases:
        assert sl2_classify(Sl2Params(lam, parity)).kind is kind, (lam, parity)
    for lam in (F(1, 3), GaussianRational(F(1), F(-2, 7))):
        for k in range(0, 51, 2):
            a_k, _ = sl2_coeffs(Sl2Params(lam, Parity.EVEN), k)
            _, b_k2 = sl2_coeffs(Sl2Params(lam, Parity.EVEN), k + 2)
            assert a_k * b_k2 == (lam * lam - (k + 1) ** 2) / 4
    _report(8, "series classification and product identity")


def test_criterion_9_enumeration_soundness():
    records = enumerate_dual(6, 6)
    labels = [r.label for r in records]
    assert len(labels) == len(set(labels)), "duplicate labels"
    for rec in records:
        assert rec.unitary
        verdict = is_unitary(rec.params, rec.support, max_n=20)
        assert verdict.is_unitary, rec.label
    assert not any(lab in labels for lab in ("Z(0)", "Z(1)", "Z(-1)"))
    for t in list(range(-6, -1)) + list(range(2, 7)):
        count = sum(
            1
            for lab in labels
            if lab.startswith("U(l=") and lab.endswith(f"2t={2 * t})")
        )
        assert count == abs(t) // 2, t
    _report(9, f"{len(records)} records, all sound on their supports")
