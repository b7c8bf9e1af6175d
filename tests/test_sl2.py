from fractions import Fraction
from typing import NamedTuple, Optional

import pytest

from su21dual import (
    BasisIndex,
    ConeParams,
    Generator,
    InvalidBasisIndex,
    InvalidParameter,
    Parity,
    Sl2Kind,
    Sl2Params,
    build,
    sl2_classify,
)
from su21dual.scalars import GaussianRational, imag_part, real_part

from oracles import action_row, oracle_sl2_classify, sl2_coeffs, su2_norms

F = Fraction
i = GaussianRational(0, 1)
_MODULE = build(ConeParams(F(-1), 0), 7)


class Su2ActionRow(NamedTuple):
    """Action of the su(2) triple on v^k in an n-dimensional K-type."""

    weight: int
    raise_term: Optional[tuple[int, int]]  # (target k-1, coefficient -(k-1))
    lower_term: Optional[tuple[int, int]]  # (target k+1, coefficient -(n-k))


def su2_finite_action(n: int, k: int) -> Su2ActionRow:
    """The su(2) rows of v^k in the K-type (n, 3(n-1)) of a built V(-1, 0)."""
    idx = BasisIndex(n, 3 * (n - 1), k)

    def term(gen):
        terms = action_row(_MODULE, gen, idx)
        return (terms[0][0].k, terms[0][1]) if terms else None

    weight = term(Generator.H_ALPHA)
    weight = weight[1] if weight else 0
    return Su2ActionRow(weight, term(Generator.X_ALPHA), term(Generator.Y_ALPHA))


def test_coefficients_by_substitution():
    assert sl2_coeffs(Sl2Params(F(0), Parity.EVEN), 0) == (F(1, 2), F(1, 2))
    assert sl2_coeffs(Sl2Params(F(3), Parity.EVEN), 2) == (3, 1)
    a, b = sl2_coeffs(Sl2Params(i, Parity.EVEN), 0)
    assert a == GaussianRational(F(1, 2), F(1, 2))
    assert b == GaussianRational(F(1, 2), F(1, 2))


def test_parity_is_one_of_two_strings():
    """Sl2Params keeps "even" or "odd" as given, the strings the CLI reads,
    and rejects any other parity with InvalidParameter."""
    assert (Parity.EVEN, Parity.ODD) == ("even", "odd")
    assert Sl2Params(F(1, 2), "odd").parity == Parity.ODD
    assert sl2_classify(Sl2Params(F(1, 2), "even")).kind == Sl2Kind.COMPLEMENTARY == "complementary"
    for parity in ("EVEN", "", None, 0):
        with pytest.raises(InvalidParameter, match="parity must be 'even' or 'odd'"):
            Sl2Params(F(0), parity)


def test_coefficient_parity_check():
    with pytest.raises(InvalidParameter):
        sl2_coeffs(Sl2Params(F(0), Parity.EVEN), 1)
    with pytest.raises(InvalidParameter):
        sl2_coeffs(Sl2Params(F(0), Parity.ODD), 4)


def test_product_identity():
    """a_k b_{k+2} = (lam^2 - (k+1)^2)/4 over a long weight window."""
    for lam in [F(0), F(7, 3), GaussianRational(F(1, 2), F(-2, 5)), F(-4)]:
        for parity in (Parity.EVEN, Parity.ODD):
            start = 0 if parity == Parity.EVEN else 1
            params = Sl2Params(lam, parity)
            for k in range(start - 50, 51, 2):
                a_k, _ = sl2_coeffs(params, k)
                _, b_k2 = sl2_coeffs(params, k + 2)
                assert a_k * b_k2 == (lam * lam - (k + 1) ** 2) / 4


def _constant_id(value):
    """Name a case by the constants it passes (Parity.EVEN,
    Sl2Kind.PRINCIPAL), and leave lam to pytest."""
    if not isinstance(value, str):
        return None
    owner = "Parity" if value in (Parity.EVEN, Parity.ODD) else "Sl2Kind"
    return f"{owner}.{value.upper()}"


@pytest.mark.parametrize(
    "lam,parity,kind",
    [
        (GaussianRational(0, F(3, 2)), Parity.EVEN, Sl2Kind.PRINCIPAL),
        (F(1, 2), Parity.EVEN, Sl2Kind.COMPLEMENTARY),
        (F(0), Parity.ODD, Sl2Kind.MOCK_DISCRETE_POINT),
        (F(2), Parity.EVEN, Sl2Kind.NONUNITARY),
        (F(0), Parity.EVEN, Sl2Kind.PRINCIPAL),
        (GaussianRational(0, 2), Parity.ODD, Sl2Kind.PRINCIPAL),
        (F(1), Parity.EVEN, Sl2Kind.FINITE_DIM_POINT),
        (F(-1), Parity.EVEN, Sl2Kind.FINITE_DIM_POINT),
        (F(3), Parity.EVEN, Sl2Kind.REDUCIBLE_WITH_DISCRETE_PARTS),
        (F(2), Parity.ODD, Sl2Kind.REDUCIBLE_WITH_DISCRETE_PARTS),
        (F(3), Parity.ODD, Sl2Kind.NONUNITARY),
        (F(-7, 5), Parity.EVEN, Sl2Kind.NONUNITARY),
        (GaussianRational(1, 1), Parity.ODD, Sl2Kind.NONUNITARY),
    ],
    ids=_constant_id,
)
def test_classification(lam, parity, kind):
    assert sl2_classify(Sl2Params(lam, parity)).kind == kind


REDUCIBLE_KINDS = (
    Sl2Kind.REDUCIBLE_WITH_DISCRETE_PARTS,
    Sl2Kind.FINITE_DIM_POINT,
    Sl2Kind.MOCK_DISCRETE_POINT,
)


def test_classification_matches_product_signs():
    """A parameter is principal or complementary exactly when every product
    over the weight support is a negative real, and reducible exactly when
    one of them vanishes; the window check plus the quadratic tail bound
    make this exhaustive."""
    candidates = [F(n, 4) for n in range(-12, 13)] + [
        GaussianRational(0, F(n, 3)) for n in range(-6, 7) if n
    ]
    for lam in candidates:
        for parity in (Parity.EVEN, Parity.ODD):
            start = 0 if parity == Parity.EVEN else 1
            params = Sl2Params(lam, parity)
            prods = []
            for k in range(start - 200, 201, 2):
                a_k, _ = sl2_coeffs(params, k)
                _, b_k2 = sl2_coeffs(params, k + 2)
                prods.append(a_k * b_k2)
            all_negative = all(
                imag_part(prod) == 0 and real_part(prod) < 0 for prod in prods
            )
            any_zero = any(prod == 0 for prod in prods)
            # tail: (lam^2 - (k+1)^2)/4 with lam fixed is eventually very
            # negative; the window is wide enough for every candidate here
            kind = sl2_classify(params).kind
            assert (kind in (Sl2Kind.PRINCIPAL, Sl2Kind.COMPLEMENTARY)) == all_negative, (
                lam,
                parity,
            )
            assert (kind in REDUCIBLE_KINDS) == any_zero, (lam, parity)


# Real lam with small numerators and denominators, and nonreal lam both
# purely imaginary and with a nonzero real part.
SL2_GRID = sorted({F(a, b) for a in range(-30, 31) for b in range(1, 7)}) + [
    GaussianRational(F(a, 2), F(b, 3)) for a in range(-8, 9) for b in range(-9, 10) if b
]


def test_classification_matches_branch_oracle():
    """The kinds read off the products agree, notes included, with the
    branch table per parity on a grid of real and nonreal lam."""
    cases = [(lam, parity) for lam in SL2_GRID for parity in (Parity.EVEN, Parity.ODD)]
    assert len(cases) >= 1000
    assert sum(isinstance(lam, GaussianRational) for lam, _ in cases) >= 600
    for lam, parity in cases:
        params = Sl2Params(lam, parity)
        assert sl2_classify(params) == oracle_sl2_classify(params), (lam, parity)


def test_su2_finite_action_rows():
    row = su2_finite_action(5, 1)
    assert row == (4, None, (2, -4))
    row = su2_finite_action(5, 3)
    assert row.weight == 0 and row.raise_term == (2, -2) and row.lower_term == (4, -2)
    row = su2_finite_action(2, 2)
    assert row == (-1, (1, -1), None)
    with pytest.raises(InvalidBasisIndex):
        su2_finite_action(3, 4)


def test_su2_triple_commutator():
    """[X, Y] = H realized on every basis vector of small modules."""
    for n in range(1, 8):
        for k in range(1, n + 1):
            # X Y v^k
            acc = F(0)
            row = su2_finite_action(n, k)
            if row.lower_term:
                tgt, coeff = row.lower_term
                back = su2_finite_action(n, tgt).raise_term
                if back and back[0] == k:
                    acc += coeff * back[1]
            if row.raise_term:
                tgt, coeff = row.raise_term
                back = su2_finite_action(n, tgt).lower_term
                if back and back[0] == k:
                    acc -= coeff * back[1]
            assert acc == n + 1 - 2 * k


def test_compact_triple_is_skew_adjoint_with_su2_norms():
    """With the binomial norms, the three compact elements satisfy the
    skew-adjointness condition, which is the k/(n-k) norm ratio."""
    for n in range(2, 9):
        norms = su2_norms(n)
        for k in range(1, n):
            # (X - Y)/2 pairing between v^k and v^{k+1}
            x_coeff_into_k = -k  # X . v^{k+1} component on v^k, times -1 below
            y_coeff_into_k1 = -(n - k)  # Y . v^k component on v^{k+1}
            lhs = F(1, 2) * (-y_coeff_into_k1) * norms[k]
            rhs = F(1, 2) * x_coeff_into_k * norms[k - 1]
            assert lhs + rhs == 0
