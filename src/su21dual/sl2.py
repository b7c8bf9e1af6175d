"""The rank-one warm-up: weight modules over sl(2,C) and their unitary duals.

A weight module with one-dimensional weight spaces is determined by a
complex parameter and the parity of its weight support S (all even or all
odd integers).  The raising and lowering coefficients are

    a_k = (lam + k + 1) / 2        (weight k -> k + 2)
    b_k = (lam - k + 1) / 2        (weight k -> k - 2)

and unitarity holds exactly when every product a_k * b_{k+2}, i.e.
(lam^2 - (k+1)^2)/4, is a negative real number over the weight support.
A vanishing product signals reducibility; the distinguished reducible
points are lam = 0 at odd parity (mock discrete constituents) and
lam = +-1 at even parity (the trivial constituent).

The finite-dimensional su(2) conventions of the rank-two modules are
stated once, in the builder, which writes the su(2) rows of every K-type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameter
from .scalars import Scalar, imag_part, real_part, simplify


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class Sl2Params:
    lam: Scalar
    parity: Parity

    def __post_init__(self):
        object.__setattr__(self, "lam", simplify(self.lam))
        if not isinstance(self.parity, Parity):
            object.__setattr__(self, "parity", Parity(self.parity))


class Sl2Kind(enum.Enum):
    PRINCIPAL = "principal"
    COMPLEMENTARY = "complementary"
    REDUCIBLE_WITH_DISCRETE_PARTS = "reducible_with_discrete_parts"
    MOCK_DISCRETE_POINT = "mock_discrete_point"
    FINITE_DIM_POINT = "finite_dim_point"
    NONUNITARY = "nonunitary"


@dataclass(frozen=True)
class Sl2Classification:
    kind: Sl2Kind
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "notes": list(self.notes)}


def sl2_coeffs(params: Sl2Params, k: int) -> tuple[Scalar, Scalar]:
    """Raising and lowering coefficients (a_k, b_k) at weight k."""
    if k % 2 != (0 if params.parity is Parity.EVEN else 1):
        raise InvalidParameter(
            f"weight {k} has the wrong parity for a {params.parity.value} module"
        )
    lam = params.lam
    return simplify((lam + k + 1) / 2), simplify((lam - k + 1) / 2)


def _is_integer(x: Fraction) -> bool:
    return x.denominator == 1


def sl2_classify(params: Sl2Params) -> Sl2Classification:
    lam = simplify(params.lam)
    re_, im_ = real_part(lam), imag_part(lam)
    if params.parity is Parity.EVEN:
        if im_ != 0:
            if re_ == 0:
                return Sl2Classification(Sl2Kind.PRINCIPAL)
            return Sl2Classification(
                Sl2Kind.NONUNITARY, ("nonreal, not purely imaginary",)
            )
        if re_ == 0:
            return Sl2Classification(Sl2Kind.PRINCIPAL)
        if abs(re_) < 1:
            return Sl2Classification(Sl2Kind.COMPLEMENTARY)
        if _is_integer(re_) and re_.numerator % 2 == 1:
            if abs(re_) == 1:
                return Sl2Classification(
                    Sl2Kind.FINITE_DIM_POINT,
                    ("constituents: trivial module and two discrete parts",),
                )
            return Sl2Classification(
                Sl2Kind.REDUCIBLE_WITH_DISCRETE_PARTS,
                (
                    "constituents: two discrete parts and a finite module of "
                    f"dimension {abs(re_.numerator)}",
                ),
            )
        return Sl2Classification(Sl2Kind.NONUNITARY)
    # odd parity
    if im_ != 0:
        if re_ == 0:
            return Sl2Classification(Sl2Kind.PRINCIPAL)
        return Sl2Classification(Sl2Kind.NONUNITARY, ("nonreal, not purely imaginary",))
    if re_ == 0:
        return Sl2Classification(
            Sl2Kind.MOCK_DISCRETE_POINT, ("constituents: two mock discrete parts",)
        )
    if _is_integer(re_) and re_.numerator % 2 == 0:
        return Sl2Classification(
            Sl2Kind.REDUCIBLE_WITH_DISCRETE_PARTS,
            (
                "constituents: two discrete parts and a finite module of "
                f"dimension {abs(re_.numerator)}",
            ),
        )
    return Sl2Classification(Sl2Kind.NONUNITARY)

