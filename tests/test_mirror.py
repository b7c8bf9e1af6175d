"""The mirror V(c, 2t) <-> V(c, -2t) and W(r, s) <-> W(r, -s).

The map sigma acts on basis vectors by (n, m, k) -> (n, -m, n+1-k) and on
the generators by

    H_alpha, H_beta, Z -> -H_alpha, -H_beta, -Z,
    X_alpha <-> Y_alpha,   X_alphabeta <-> Y_alphabeta,
    X_beta -> -Y_beta,     Y_beta -> -X_beta.

It preserves the bracket table, and build(V(c, -2t)) is build(V(c, 2t))
carried through sigma field by field, with the same scale and no complex
conjugation; likewise for W(r, -s) and W(r, s).  So the two modules of a
pair share their verdict, have mirrored supports and norms, and carry
labels of opposite sign.  These tests pin each of those statements.
"""

import random
import re
from fractions import Fraction

from su21dual import (
    BasisIndex,
    ConeParams,
    GaussianRational,
    Generator as G,
    VertexParams,
    build,
    c_special,
    c_threshold,
    classify,
    document_norms,
    enumerate_dual,
)
from su21dual.algebra import generator_brackets

from oracles import random_cone_params

F = Fraction

# generator -> (sign, image): sigma(gen) = sign * image.
SIGMA = {
    G.H_ALPHA: (-1, G.H_ALPHA),
    G.H_BETA: (-1, G.H_BETA),
    G.Z: (-1, G.Z),
    G.X_ALPHA: (1, G.Y_ALPHA),
    G.Y_ALPHA: (1, G.X_ALPHA),
    G.X_ALPHABETA: (1, G.Y_ALPHABETA),
    G.Y_ALPHABETA: (1, G.X_ALPHABETA),
    G.X_BETA: (-1, G.Y_BETA),
    G.Y_BETA: (-1, G.X_BETA),
}


def mirror(params):
    """The other module of the pair: V(c, -2t) or W(r, -s)."""
    if isinstance(params, ConeParams):
        return ConeParams(params.c, -params.t)
    return VertexParams(params.r, -params.s)


def mirror_label(label: str) -> str:
    """The label with the sign of its last integer, 2t or s, flipped."""
    return re.sub(r"(-?\d+)\)$", lambda m: f"{-int(m.group(1))})", label)


def assert_mirror_pair(params, max_n: int) -> None:
    """build(mirror(params)) is sigma applied to build(params): the field of
    gen at (dn, dm, dk) and position u is the sign of sigma(gen) times the
    mirror's field of the image generator at (dn, -dm, dn - dk) and the
    position of (n, -m, n + 1 - k), over the same scale, re and im alike.
    A build that raises fails here: nothing is caught."""
    mod, other = build(params, max_n), build(mirror(params), max_n)
    assert other.scale == mod.scale, params
    position = {idx: u for u, idx in enumerate(mod.basis)}
    assert len(position) == len(other.basis), params
    # perm[u] is the position in mod of sigma(other.basis[u]); the last entry
    # keeps the zero past the basis.
    perm = [position[BasisIndex(n, -m, n + 1 - k)] for n, m, k in other.basis] + [len(position)]
    for gen, at in mod.fields.items():
        sign, image = SIGMA[gen]
        mirrored = {
            (dn, -dm, dn - dk): ([sign * re[u] for u in perm], im and [sign * im[u] for u in perm])
            for (dn, dm, dk), (re, im) in at.items()
        }
        assert other.fields[image] == mirrored, (params, gen)


def _cones() -> list:
    """120 seeded cones, 40 of them with nonreal c, then every threshold and
    special value for 0 <= t <= 5, whose supports have walls."""
    rng = random.Random(32)
    cones = [random_cone_params(rng, complex_share=float(i < 40)) for i in range(120)]
    cones += [ConeParams(c_threshold(t), t) for t in range(6)]
    cones += [ConeParams(c_special(l, t), t) for t in range(2, 6) for l in range(t // 2)]
    return cones


def test_sigma_is_an_involution_that_preserves_the_brackets():
    brackets = generator_brackets()
    for gen, (sign, image) in SIGMA.items():
        assert SIGMA[image] == (sign, gen)
    for (g1, g2), value in brackets.items():
        (s1, h1), (s2, h2) = SIGMA[g1], SIGMA[g2]
        image = {SIGMA[g][1]: SIGMA[g][0] * x for g, x in value.items()}
        assert {g: s1 * s2 * x for g, x in brackets[h1, h2].items()} == image, (g1, g2)


def test_cone_modules_mirror_field_by_field():
    cones = _cones()
    nonreal = [p for p in cones if isinstance(p.c, GaussianRational)]
    assert len(cones) >= 100 and len(nonreal) >= 30
    assert any(p.t for p in nonreal)
    for params in cones:
        assert_mirror_pair(params, 9)


def test_vertex_modules_mirror_field_by_field():
    for r in range(2, 9):
        for s in range(-3 * r, 3 * r + 1):
            if (r + s) % 2:
                assert_mirror_pair(VertexParams(r, s), r + 6)


def test_classify_mirrors():
    """Same verdict, label of opposite sign, p_max and q_max swapped."""
    points = [ConeParams(F(num, den), t)
              for t in range(-12, 13) for num in range(-80, 10) for den in (1, 2, 3)]
    points += [ConeParams(GaussianRational(F(-3), F(1, 2)), t) for t in range(-4, 5)]
    points += [VertexParams(r, s) for r in range(2, 40) for s in range(-3 * r, 3 * r + 1)
               if (r + s) % 2]
    for point in points:
        rec, other = classify(point), classify(mirror(point))
        assert other.unitary == rec.unitary, point
        assert other.label == mirror_label(rec.label), point
        support = rec.support
        assert (other.support.p_max, other.support.q_max) == (support.q_max, support.p_max), point


def test_enumerated_labels_are_closed_under_the_mirror():
    labels = {rec.label for rec in enumerate_dual(60, 60)}
    assert {mirror_label(label) for label in labels} == labels


def test_norms_mirror():
    """document_norms of the mirror module at (n, -m) is the module's at
    (n, m), and both are None together."""
    points = [ConeParams(c, t) for t in range(0, 7)
              for c in (c_threshold(t) - 1, c_threshold(t), F(1, 2), GaussianRational(-1, 1))]
    points += [ConeParams(c_special(l, t), t) for t in range(2, 7) for l in range(t // 2)]
    points += [VertexParams(r, s) for r in range(2, 6) for s in range(-r - 2, r + 3) if (r + s) % 2]
    unitary = 0
    for point in points:
        norms = document_norms(build(point, 10))
        other = document_norms(build(mirror(point), 10))
        if norms is None:
            assert other is None, point
            continue
        unitary += 1
        assert other.anchor == (norms.anchor.n, -norms.anchor.m), point
        assert other.base == {(n, -m): v for (n, m), v in norms.base.items()}, point
    assert unitary >= 30
