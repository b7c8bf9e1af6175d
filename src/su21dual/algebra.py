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

from .errors import InvalidParameter


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


# Basis of the real form su(2,1) = {M : M^dagger J + J M = 0}, J =
# diag(1, 1, -1), inside sl(3,C): each element as its generator coefficients
# (re, im), standing for re + im i.  Note the sign asymmetry between the
# compact alpha pair and the noncompact beta pairs.
real_form_basis = {
    "iH_alpha": {Generator.H_ALPHA: (0, 1)},
    "iH_beta": {Generator.H_BETA: (0, 1)},
    "A_alpha": {Generator.X_ALPHA: (1, 0), Generator.Y_ALPHA: (-1, 0)},
    "B_alpha": {Generator.X_ALPHA: (0, 1), Generator.Y_ALPHA: (0, 1)},
    "A_beta": {Generator.X_BETA: (1, 0), Generator.Y_BETA: (1, 0)},
    "B_beta": {Generator.X_BETA: (0, 1), Generator.Y_BETA: (0, -1)},
    "A_alphabeta": {Generator.X_ALPHABETA: (1, 0), Generator.Y_ALPHABETA: (1, 0)},
    "B_alphabeta": {Generator.X_ALPHABETA: (0, 1), Generator.Y_ALPHABETA: (0, -1)},
}
