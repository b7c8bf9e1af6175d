"""Exact scalars: arbitrary-precision rationals and Gaussian rationals.

Real quantities are plain :class:`fractions.Fraction` values, which are
always reduced and carry a positive denominator.  Complex quantities are
:class:`GaussianRational` pairs of fractions.  The two interoperate freely
in arithmetic, and real parameters are kept as bare fractions wherever
possible since that is the fast path for the large brute-force checks.

Squared norms, never norms, are stored throughout the package; that keeps
every value inside Q (or Q(i)) and makes all comparisons exact.  There is
no floating point anywhere in the core.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Union

from .errors import DegenerateInput

_ZERO = Fraction(0)


class GaussianRational:
    """An element re + im*i of Q(i) with exact Fraction components.

    Supports mixed arithmetic with int and Fraction operands on either
    side.  Instances are value-like: equal to a bare rational when the
    imaginary part vanishes, hashable, and never mutated after creation.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.im == 0 and o.im == 0:
            return GaussianRational(self.re * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nsq = o.norm_squared()
        if nsq == 0:
            raise DegenerateInput("division by zero")
        oc = o.conjugate()
        num = self * oc
        return GaussianRational(num.re / nsq, num.im / nsq)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return render_scalar(self)


Scalar = Union[int, Fraction, GaussianRational]


def real_part(x: Scalar) -> Fraction:
    if isinstance(x, GaussianRational):
        return x.re
    return Fraction(x)


def imag_part(x: Scalar) -> Fraction:
    if isinstance(x, GaussianRational):
        return x.im
    return _ZERO


def simplify(x: Scalar) -> Scalar:
    """Downcast a real GaussianRational to a bare Fraction."""
    if isinstance(x, GaussianRational) and x.im == 0:
        return x.re
    if isinstance(x, int):
        return Fraction(x)
    return x


def render_rational(x: Union[int, Fraction]) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise, reduced;
    DegenerateInput when an integer is longer than Python converts to
    text (sys.get_int_max_str_digits)."""
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise DegenerateInput("integer too long to write: more than "
                              f"{sys.get_int_max_str_digits()} digits") from None


_RATIONAL_RE = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


def _parse_int(digits: str) -> int:
    """int(digits) for a signed run of decimal digits; DegenerateInput when
    it is longer than Python converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise DegenerateInput(f"integer too long: {len(digits.lstrip('+-'))} digits") from None


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q", surrounding whitespace allowed; a zero q or an
    integer too long to convert raises DegenerateInput."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise DegenerateInput(f"not a rational: {text.strip()!r}")
    num, den = m.groups()
    if den is None:
        return Fraction(_parse_int(num))
    den = _parse_int(den)
    if den == 0:
        raise DegenerateInput(f"zero denominator: {text.strip()!r}")
    return Fraction(_parse_int(num), den)


def render_scalar(x: Scalar) -> str:
    """Canonical text form over Q(i): "a/b", "c/d*i" or "a/b+c/d*i"."""
    re_, im_ = real_part(x), imag_part(x)
    if im_ == 0:
        return render_rational(re_)
    im_str = f"{render_rational(im_)}*i"
    if re_ == 0:
        return im_str
    if im_ > 0:
        return f"{render_rational(re_)}+{im_str}"
    return f"{render_rational(re_)}{im_str}"


_SCALAR_RE = re.compile(
    r"(?:(?P<re>[+-]?\d+(?:/\d+)?)(?=[+-]|$))?"
    r"(?:(?P<im>[+-]?\d+(?:/\d+)?)\*?i)?"
)


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical grammar; returns a Fraction when the value is real."""
    m = _SCALAR_RE.fullmatch(text.strip())
    if m is None or (m.group("re") is None and m.group("im") is None):
        raise DegenerateInput(f"not a scalar: {text!r}")
    re_ = parse_rational(m.group("re")) if m.group("re") else _ZERO
    im_ = parse_rational(m.group("im")) if m.group("im") else _ZERO
    if im_ == 0:
        return re_
    return GaussianRational(re_, im_)


def scalar_to_json(x: Scalar) -> dict:
    return {"re": render_rational(real_part(x)), "im": render_rational(imag_part(x))}


def scalar_from_json(obj: dict) -> Scalar:
    re_ = parse_rational(obj["re"])
    im_ = parse_rational(obj["im"])
    if im_ == 0:
        return re_
    return GaussianRational(re_, im_)
