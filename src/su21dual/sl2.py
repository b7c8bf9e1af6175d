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
lam = +-1 at even parity (the trivial constituent).  sl2_classify reads
every kind off these products alone.  Parities and kinds are the strings
the JSON writes (Parity.EVEN == "even", Sl2Kind.PRINCIPAL == "principal").

The finite-dimensional su(2) conventions of the rank-two modules are
stated once, in the builder, which writes the su(2) rows of every K-type.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidParameter
from .scalars import Scalar, imag_part, simplify


class Parity:
    EVEN = "even"
    ODD = "odd"


class _Sl2ParamsFields(NamedTuple):
    lam: Scalar
    parity: str


class Sl2Params(_Sl2ParamsFields):
    """lam simplified, and parity "even" or "odd" (InvalidParameter
    otherwise)."""

    __slots__ = ()

    def __new__(cls, lam: Scalar, parity: str):
        if parity not in (Parity.EVEN, Parity.ODD):
            raise InvalidParameter(f"parity must be 'even' or 'odd', got {parity!r}")
        return tuple.__new__(cls, (simplify(lam), parity))


class Sl2Kind:
    PRINCIPAL = "principal"
    COMPLEMENTARY = "complementary"
    REDUCIBLE_WITH_DISCRETE_PARTS = "reducible_with_discrete_parts"
    MOCK_DISCRETE_POINT = "mock_discrete_point"
    FINITE_DIM_POINT = "finite_dim_point"
    NONUNITARY = "nonunitary"


class Sl2Classification(NamedTuple):
    kind: str
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"kind": self.kind, "notes": list(self.notes)}


_POINTS = {
    0: (Sl2Kind.MOCK_DISCRETE_POINT, ("constituents: two mock discrete parts",)),
    1: (Sl2Kind.FINITE_DIM_POINT, ("constituents: trivial module and two discrete parts",)),
}


def sl2_classify(params: Sl2Params) -> Sl2Classification:
    """Read the kind off the products (lam^2 - j^2)/4, j = k + 1 odd (even
    parity) or even (odd parity).  All are negative reals exactly when
    lam^2 is real and below j0^2, j0 the smallest |j| (1 or 0): principal
    for lam^2 <= 0, complementary above.  One vanishes exactly when |lam|
    is a j: j = 0 is the mock discrete point, j = 1 the finite-dimensional
    one, and a larger j leaves a finite constituent of dimension j."""
    lam_sq = simplify(params.lam * params.lam)
    if imag_part(lam_sq) != 0:
        return Sl2Classification(Sl2Kind.NONUNITARY, ("nonreal, not purely imaginary",))
    j0 = 1 if params.parity == Parity.EVEN else 0
    if lam_sq < j0 * j0:
        return Sl2Classification(Sl2Kind.PRINCIPAL if lam_sq <= 0 else Sl2Kind.COMPLEMENTARY)
    # Here lam^2 >= 0 is real, so lam is a real Fraction.
    j = abs(params.lam)
    if j % 2 != j0:
        return Sl2Classification(Sl2Kind.NONUNITARY)
    if j in _POINTS:
        return Sl2Classification(*_POINTS[j])
    return Sl2Classification(
        Sl2Kind.REDUCIBLE_WITH_DISCRETE_PARTS,
        (f"constituents: two discrete parts and a finite module of dimension {j}",),
    )
