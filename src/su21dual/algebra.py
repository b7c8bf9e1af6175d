"""The complexified Lie algebra sl(3,C) of SU(2,1).

The nine named generators are concrete 3x3 matrices.  Eight of them are
linearly independent and span sl(3,C); the center-of-K element Z equals
H_alpha + 2*H_beta and is kept as a named generator because the module
grading is written against it.  Structure constants are computed from
matrix commutators once at import time, so transcription of a bracket
table is impossible and the defining representation stays the oracle.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import InvalidParameter
from .scalars import GaussianRational, Scalar, simplify


class Generator(enum.Enum):
    H_ALPHA = "H_alpha"
    H_BETA = "H_beta"
    Z = "Z"
    X_ALPHA = "X_alpha"
    X_BETA = "X_beta"
    X_ALPHABETA = "X_alphabeta"
    Y_ALPHA = "Y_alpha"
    Y_BETA = "Y_beta"
    Y_ALPHABETA = "Y_alphabeta"


def _e(i, j):
    m = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    m[i][j] = 1
    return tuple(tuple(row) for row in m)


MATRICES = {
    Generator.H_ALPHA: ((1, 0, 0), (0, -1, 0), (0, 0, 0)),
    Generator.H_BETA: ((0, 0, 0), (0, 1, 0), (0, 0, -1)),
    Generator.Z: ((1, 0, 0), (0, 1, 0), (0, 0, -2)),
    Generator.X_ALPHA: _e(0, 1),
    Generator.X_BETA: _e(1, 2),
    Generator.X_ALPHABETA: _e(0, 2),
    Generator.Y_ALPHA: _e(1, 0),
    Generator.Y_BETA: _e(2, 1),
    Generator.Y_ALPHABETA: _e(2, 0),
}

# Canonical ordered basis of sl(3,C); Z is excluded (it is H_alpha + 2 H_beta).
INDEPENDENT = (
    Generator.H_ALPHA,
    Generator.H_BETA,
    Generator.X_ALPHA,
    Generator.X_BETA,
    Generator.X_ALPHABETA,
    Generator.Y_ALPHA,
    Generator.Y_BETA,
    Generator.Y_ALPHABETA,
)


def matrix_commutator(a, b):
    def mul(x, y):
        return tuple(
            tuple(sum(x[i][l] * y[l][j] for l in range(3)) for j in range(3))
            for i in range(3)
        )

    ab, ba = mul(a, b), mul(b, a)
    return tuple(
        tuple(ab[i][j] - ba[i][j] for j in range(3)) for i in range(3)
    )


def decompose_matrix(m) -> dict:
    """Express a traceless 3x3 matrix over the eight independent generators."""
    if m[0][0] + m[1][1] + m[2][2] != 0:
        raise InvalidParameter("matrix is not traceless")
    coeffs = {
        Generator.H_ALPHA: m[0][0],
        Generator.H_BETA: -m[2][2],
        Generator.X_ALPHA: m[0][1],
        Generator.X_BETA: m[1][2],
        Generator.X_ALPHABETA: m[0][2],
        Generator.Y_ALPHA: m[1][0],
        Generator.Y_BETA: m[2][1],
        Generator.Y_ALPHABETA: m[2][0],
    }
    return {g: c for g, c in coeffs.items() if c != 0}


def _build_bracket_table():
    table = {}
    for g1 in Generator:
        for g2 in Generator:
            comm = matrix_commutator(MATRICES[g1], MATRICES[g2])
            table[(g1, g2)] = decompose_matrix(comm)
    return table

GENERATOR_BRACKETS = _build_bracket_table()


class AlgebraElement:
    """A finite linear combination of the independent generators.

    The canonical form never stores Z: it is folded into H_alpha + 2 H_beta
    on construction.  Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canonical: dict = {}
        for gen, coeff in (terms or {}).items():
            coeff = simplify(coeff)
            if coeff == 0:
                continue
            if gen is Generator.Z:
                for g, mult in ((Generator.H_ALPHA, 1), (Generator.H_BETA, 2)):
                    c = canonical.get(g, 0) + mult * coeff
                    if c == 0:
                        canonical.pop(g, None)
                    else:
                        canonical[g] = simplify(c)
                continue
            c = canonical.get(gen, 0) + coeff
            if c == 0:
                canonical.pop(gen, None)
            else:
                canonical[gen] = simplify(c)
        self.terms = canonical

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        merged = dict(self.terms)
        for g, c in other.terms.items():
            merged[g] = merged.get(g, 0) + c
        return AlgebraElement(merged)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({g: -c for g, c in self.terms.items()})

    def scaled(self, scalar: Scalar) -> "AlgebraElement":
        return AlgebraElement({g: c * scalar for g, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        parts = [f"{c}*{g.value}" for g, c in sorted(self.terms.items(), key=lambda t: t[0].value)]
        return "AlgebraElement(" + " + ".join(parts) + ")"


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket, extended bilinearly from the generator table."""
    acc: dict = {}
    for g1, c1 in x.terms.items():
        for g2, c2 in y.terms.items():
            c12 = c1 * c2
            for g, sc in GENERATOR_BRACKETS[(g1, g2)].items():
                acc[g] = acc.get(g, 0) + sc * c12
    return AlgebraElement(acc)


_I = GaussianRational(0, 1)

# Basis of the real form su(2,1) inside sl(3,C).  Note the sign asymmetry
# between the compact alpha pair and the noncompact beta pairs.
def real_form_basis() -> list[tuple[str, AlgebraElement]]:
    G = Generator
    one = Fraction(1)
    return [
        ("iH_alpha", AlgebraElement({G.H_ALPHA: _I})),
        ("iH_beta", AlgebraElement({G.H_BETA: _I})),
        ("A_alpha", AlgebraElement({G.X_ALPHA: one, G.Y_ALPHA: -one})),
        ("B_alpha", AlgebraElement({G.X_ALPHA: _I, G.Y_ALPHA: _I})),
        ("A_beta", AlgebraElement({G.X_BETA: one, G.Y_BETA: one})),
        ("B_beta", AlgebraElement({G.X_BETA: _I, G.Y_BETA: -_I})),
        ("A_alphabeta", AlgebraElement({G.X_ALPHABETA: one, G.Y_ALPHABETA: one})),
        ("B_alphabeta", AlgebraElement({G.X_ALPHABETA: _I, G.Y_ALPHABETA: -_I})),
    ]
