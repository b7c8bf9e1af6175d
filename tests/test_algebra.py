from fractions import Fraction
from itertools import product

import pytest

from su21dual import AlgebraElement, GaussianRational, Generator, bracket, real_form_basis
from su21dual.algebra import (
    GENERATOR_BRACKETS,
    INDEPENDENT,
    MATRICES,
    decompose_matrix,
    matrix_commutator,
)

G = Generator


def elem(gen):
    return AlgebraElement({gen: 1})


def test_bracket_matches_matrix_commutator_for_all_pairs():
    """The defining 3x3 representation is the oracle for every bracket."""
    for g1, g2 in product(Generator, repeat=2):
        expected = decompose_matrix(matrix_commutator(MATRICES[g1], MATRICES[g2]))
        assert bracket(elem(g1), elem(g2)) == AlgebraElement(expected), (g1, g2)


@pytest.mark.parametrize(
    "g1,g2,expected",
    [
        (G.H_ALPHA, G.X_ALPHA, {G.X_ALPHA: 2}),
        (G.X_ALPHA, G.X_ALPHABETA, {}),
        (G.X_BETA, G.Y_BETA, {G.H_BETA: 1}),
        (G.X_ALPHA, G.X_BETA, {G.X_ALPHABETA: 1}),
        (G.X_ALPHA, G.Y_ALPHA, {G.H_ALPHA: 1}),
        (G.X_ALPHABETA, G.Y_ALPHABETA, {G.H_ALPHA: 1, G.H_BETA: 1}),
    ],
)
def test_named_brackets(g1, g2, expected):
    assert bracket(elem(g1), elem(g2)) == AlgebraElement(expected)


def test_jacobi_identity_all_triples():
    elems = [elem(g) for g in INDEPENDENT]
    for x in elems:
        for y in elems:
            for z in elems:
                total = (
                    bracket(x, bracket(y, z))
                    + bracket(y, bracket(z, x))
                    + bracket(z, bracket(x, y))
                )
                assert not total.terms


def test_antisymmetry_and_bilinearity():
    x, y = elem(G.X_BETA), elem(G.Y_ALPHABETA)
    assert bracket(x, y) == -bracket(y, x)
    two_x = x.scaled(2)
    assert bracket(two_x, y) == bracket(x, y).scaled(2)
    assert bracket(x + y, y) == bracket(x, y)  # [y, y] = 0


def test_center_element_is_dependent():
    z = elem(G.Z)
    assert z == AlgebraElement({G.H_ALPHA: 1, G.H_BETA: 2})
    for g in INDEPENDENT:
        assert bracket(z, elem(g)).terms.keys() <= {g}


def test_real_form_entries():
    i = GaussianRational(0, 1)
    basis = dict(real_form_basis())
    assert basis["A_alphabeta"] == AlgebraElement(
        {G.X_ALPHABETA: 1, G.Y_ALPHABETA: 1}
    )
    assert basis["A_alpha"] == AlgebraElement({G.X_ALPHA: 1, G.Y_ALPHA: -1})
    assert basis["B_beta"] == AlgebraElement({G.X_BETA: i, G.Y_BETA: -i})
    assert basis["B_alpha"] == AlgebraElement({G.X_ALPHA: i, G.Y_ALPHA: i})
    assert len(basis) == 8


def test_real_form_closed_under_bracket():
    """g0 is a real Lie subalgebra: brackets of its basis stay inside its
    real span.  Check by solving membership over the rationals."""
    basis = [e for _, e in real_form_basis()]
    # Real span test: a bracket of real-form elements must equal a rational
    # combination of the eight basis elements.  Set up coordinates over the
    # independent generators with Gaussian rational entries.
    def coords(el):
        return [el.terms.get(g, Fraction(0)) for g in INDEPENDENT]

    import itertools

    for x, y in itertools.combinations(basis, 2):
        target = coords(bracket(x, y))
        # Solve sum_j a_j * basis_j = target for real rational a_j by Gaussian
        # elimination over Q(i) while demanding real solutions.
        cols = [coords(b) for b in basis]
        rows = len(INDEPENDENT)
        aug = [[cols[j][i] for j in range(8)] + [target[i]] for i in range(rows)]
        # split every Q(i) entry into two real rows (real and imaginary parts)
        from su21dual.scalars import imag_part, real_part

        real_aug = []
        for row in aug:
            real_aug.append([real_part(v) for v in row])
            real_aug.append([imag_part(v) for v in row])
        # eliminate
        pivot_row = 0
        n_cols = 8
        for col in range(n_cols):
            pivot = next(
                (r for r in range(pivot_row, len(real_aug)) if real_aug[r][col] != 0),
                None,
            )
            if pivot is None:
                continue
            real_aug[pivot_row], real_aug[pivot] = real_aug[pivot], real_aug[pivot_row]
            piv = real_aug[pivot_row][col]
            real_aug[pivot_row] = [v / piv for v in real_aug[pivot_row]]
            for r in range(len(real_aug)):
                if r != pivot_row and real_aug[r][col] != 0:
                    factor = real_aug[r][col]
                    real_aug[r] = [
                        a - factor * b for a, b in zip(real_aug[r], real_aug[pivot_row])
                    ]
            pivot_row += 1
        for row in real_aug[pivot_row:]:
            assert row[-1] == 0, "bracket left the real span"
