from fractions import Fraction
from itertools import product

import pytest

from su21dual import GaussianRational, Generator, real_form_basis
from su21dual.algebra import (
    GENERATORS,
    INDEPENDENT,
    MATRICES,
    decompose_matrix,
    matrix_commutator,
)

from oracles import AlgebraElement, bracket, real_form_elements

G = Generator


def elem(gen):
    return AlgebraElement({gen: 1})


def test_generators_are_the_names_the_documents_write():
    """The generator order is the order of MATRICES; INDEPENDENT drops Z."""
    assert GENERATORS == ("H_alpha", "H_beta", "Z", "X_alpha", "X_beta", "X_alphabeta",
                          "Y_alpha", "Y_beta", "Y_alphabeta")
    assert G.X_BETA == "X_beta" and GENERATORS == tuple(MATRICES)
    assert INDEPENDENT == GENERATORS[:2] + GENERATORS[3:]


def test_bracket_matches_matrix_commutator_for_all_pairs():
    """The defining 3x3 representation is the oracle for every bracket."""
    for g1, g2 in product(GENERATORS, repeat=2):
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
    # Each case is named by the constants it passes (Generator.X_ALPHA).
    ids=lambda value: f"Generator.{value.upper()}" if isinstance(value, str) else None,
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
    assert real_form_basis["A_alpha"] == {G.X_ALPHA: (1, 0), G.Y_ALPHA: (-1, 0)}
    assert real_form_basis["B_beta"] == {G.X_BETA: (0, 1), G.Y_BETA: (0, -1)}
    i = GaussianRational(0, 1)
    basis = dict(real_form_elements())
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
    basis = [e for _, e in real_form_elements()]
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


def _rank(rows) -> int:
    """Rank over Q of a list of rational vectors, by Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_real_form_table_satisfies_its_definition():
    """Every entry of real_form_basis, as M = sum (re + im i) MATRICES[g],
    satisfies M^dagger J + J M = 0 with J = diag(1, 1, -1), and the eight
    are linearly independent over R, so they span su(2,1).  Closure under
    the bracket alone would also hold for su(3)."""
    J = (1, 1, -1)
    vectors = []
    for name, terms in real_form_basis.items():
        # M[i][j] = (re, im), an entry re + im i.
        m = [[tuple(sum(c[part] * MATRICES[g][i][j] for g, c in terms.items()) for part in (0, 1))
              for j in range(3)] for i in range(3)]
        for i, j in product(range(3), repeat=2):
            # (M^dagger J + J M)[i][j] = conj(M[j][i]) J[j] + J[i] M[i][j]
            (re_ji, im_ji), (re_ij, im_ij) = m[j][i], m[i][j]
            assert (J[j] * re_ji + J[i] * re_ij, -J[j] * im_ji + J[i] * im_ij) == (0, 0), (name, i, j)
        vectors.append([x for row in m for entry in row for x in entry])
    assert len(vectors) == 8
    assert _rank(vectors) == 8
