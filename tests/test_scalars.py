import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from su21dual import DegenerateInput, GaussianRational
from su21dual.scalars import (
    parse_rational,
    parse_scalar,
    render_rational,
    render_scalar,
    simplify,
)

from oracles import SignClass, sign_class

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    half = GaussianRational(Fraction(1, 2))
    assert half + half == 1
    assert GaussianRational(0, 3).conjugate() == GaussianRational(0, -3)
    assert GaussianRational(1, 1) * GaussianRational(1, -1) == 2


def test_division_by_zero_raises():
    with pytest.raises(DegenerateInput):
        GaussianRational(1) / GaussianRational(0)


def test_mixed_operand_arithmetic():
    x = GaussianRational(1, 2)
    assert 1 + x == GaussianRational(2, 2)
    assert Fraction(1, 2) * x == GaussianRational(Fraction(1, 2), 1)
    assert 2 - x == GaussianRational(1, -2)
    assert (1 / GaussianRational(0, 1)) == GaussianRational(0, -1)


@given(gaussians, gaussians, gaussians)
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(gaussians)
def test_conjugation_involution_and_positivity(x):
    assert x.conjugate().conjugate() == x
    nsq = x * x.conjugate()
    assert nsq.im == 0
    assert nsq.re >= 0


@given(gaussians)
def test_division_roundtrip(x):
    if x == 0:
        return
    assert (x * x) / x == x
    assert x / x == 1


@given(st.one_of(rationals, st.integers()))
def test_rational_text_roundtrip(x):
    assert parse_rational(render_rational(x)) == x


@pytest.mark.parametrize("x", [10**5000, Fraction(1, 10**5000), Fraction(-(10**5000), 3)],
                         ids=["integer", "denominator", "numerator"])
def test_render_rational_rejects_integers_too_long_for_text(x):
    with pytest.raises(DegenerateInput, match=r"^integer too long to write: more than \d+ digits$"):
        render_rational(x)


@pytest.mark.parametrize(
    "text,expected",
    [("+3", 3), (" 2/4 ", Fraction(1, 2)), ("-0", 0), ("\t-16/5\n", Fraction(-16, 5))],
)
def test_parse_rational_accepted_spellings(text, expected):
    value = parse_rational(text)
    assert type(value) is Fraction and value == expected


@pytest.mark.parametrize("text", ["1/0", "-3/00", "", "1.5", "1/-2", "1 / 2", "2**3"])
def test_parse_rational_rejects(text):
    with pytest.raises(DegenerateInput):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1/0", "1/0*i", "1+1/0*i", "-2/0-1*i"])
def test_parse_scalar_rejects_zero_denominator(text):
    with pytest.raises(DegenerateInput):
        parse_scalar(text)


@given(gaussians)
def test_scalar_text_roundtrip(x):
    assert parse_scalar(render_scalar(x)) == x


def test_reduction_invariant():
    x = GaussianRational(Fraction(2, 4), Fraction(6, 8))
    assert x.re.denominator == 2 and x.im == Fraction(3, 4)
    y = x + x
    assert y.re == 1


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(-16, 5), SignClass.NEGATIVE_REAL),
        (0, SignClass.ZERO),
        (GaussianRational(1, 1), SignClass.NONREAL),
        (GaussianRational(Fraction(3, 7)), SignClass.POSITIVE_REAL),
    ],
)
def test_sign_class(value, expected):
    assert sign_class(value) is expected


def test_simplify_downcasts_real_values():
    assert simplify(GaussianRational(Fraction(2, 3))) == Fraction(2, 3)
    assert isinstance(simplify(GaussianRational(1, 1)), GaussianRational)


def test_parse_scalar_grammar():
    assert parse_scalar("-1/2") == Fraction(-1, 2)
    assert parse_scalar("3/2*i") == GaussianRational(0, Fraction(3, 2))
    assert parse_scalar("1+1*i") == GaussianRational(1, 1)
    assert parse_scalar("-1/2-1/3*i") == GaussianRational(Fraction(-1, 2), Fraction(-1, 3))
    with pytest.raises(DegenerateInput):
        parse_scalar("one half")
