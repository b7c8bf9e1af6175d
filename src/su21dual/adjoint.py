"""The skew condition of an invariant form, replayed in Python ints.

check_adjoint verifies a unitarity.NormTable: S(u, w) = <C.u, w> + <u, C.w>
is 0 for each C = sum c_g g of algebra.real_form_basis, each c_g a Gaussian
unit, and each pair (u, w = u + delta) of an interior u.  With the squared
norms N cleared of denominators and D the module's scale, D N S is sum_g
c_g L_g + conj(c_g R_g), L_g = g_delta[u] N(w), R_g = g_{-delta}[w] N(u),
lists over the interior.  Two identities, exact for any module and norms,
make each S once.  Mirror: N is real, so S(w, u) = conj S(u, w).  Of +-delta
only the lexicographically positive offset is replayed; its dn >= 0, so
u = w - delta is interior whenever w is, and the pair (w, u) at -delta is
read off (u, w) when w is interior.  Root pair: A and B of a pair differ by
a unit u_g = b_g / a_g per generator.  With A's terms summed by unit into T_v
(u_g for L_g, conj u_g for R_g), S_A = sum T_v and S_B = sum v T_v.  In a
module build makes one T_v is nonzero at each offset, so S_B is a unit
times S_A, and A and B have the same links where each side has one generator.

Two more identities follow from the K-type conventions, for the elements of
the Lie algebra of K, and _compact tests their premises.  Cartan: when
H_alpha and H_beta each hold only the offset (0, 0, 0) and no imaginary
list, iH acts on u by i h(u), h(u) real, and S(u, u) = i h N - i h N = 0
whatever the norms.  Compact alpha pair: when in addition X_alpha holds
only (0, 0, -1) with -(k-1)D and Y_alpha only (0, 0, 1) with -(n-k)D on
every block, and neither an imaginary list, then at u = v^k, w = v^{k+1},
S_A = (n-k)N(k+1) - kN(k) and S_B = -i S_A, which are 0 for the norms
N(k) = base / C(n-1, k-1) that check_adjoint lays out.  Under these premises
the residuals of iH_alpha, iH_beta, A_alpha and B_alpha are not evaluated
(_folds); their links still count, so every report is the full replay's.
When a premise fails, all eight elements are replayed.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import chain, compress, repeat
from operator import itemgetter, mul, neg, or_

from .algebra import Generator, real_form_basis
from .builder import TruncatedModule
from .coefficients import _over
from .errors import InvalidParameter
from .lattice import KType
from .unitarity import NormTable
from .verify import Failure, VerificationReport, _action_form, _combine


# The generators of the complexification of the Lie algebra of K = U(2).
_K = frozenset((Generator.H_ALPHA, Generator.H_BETA, Generator.X_ALPHA, Generator.Y_ALPHA))


def _compact(mod: TruncatedModule, ns: list) -> bool:
    """True when H_alpha and H_beta hold only the offset (0, 0, 0) and no
    imaginary list, and X_alpha holds only (0, 0, -1) with -(k-1)D and
    Y_alpha only (0, 0, 1) with -(n-k)D, k = 1..n on each block of
    dimension n of ns, and no imaginary list: the premises under which the
    elements of _K hold their identities (module docstring)."""
    d, fields = mod.scale, mod.fields
    lists = {Generator.X_ALPHA: ((0, 0, -1), lambda n: range(0, -d * n, -d)),
             Generator.Y_ALPHA: ((0, 0, 1), lambda n: range(d - d * n, d, d))}
    return all(fields[h].keys() == {(0, 0, 0)} and fields[h][0, 0, 0][1] is None
               for h in (Generator.H_ALPHA, Generator.H_BETA)) and all(
        fields[g].keys() == {e} and fields[g][e] == ([*chain.from_iterable(map(values, ns)), 0], None)
        for g, (e, values) in lists.items())


def _folds(first: dict, units: dict, sides: list, weights: tuple, count: int) -> list:
    """The residuals of one group of real-form elements at one offset: the
    L terms (sides[0], times weights[0]) and the conjugated R terms
    (sides[1], times weights[1]) summed by unit into pairs (key, [re, im])
    over the interior, first the first element's coefficients."""
    sums: dict = {}
    for side, weight, s in zip(sides, weights, (1, -1)):
        for gen, z in side:
            sums.setdefault(tuple((a, s * b) for a, b in units[gen]), []).append(
                (first[gen], [x and list(map(mul, x, weight)) for x in z], s))
    return [(key, _combine(terms, count)) for key, terms in sums.items()]


def check_adjoint(mod: TruncatedModule, norms: NormTable) -> VerificationReport:
    """Verify skew-symmetry <C.u, w> + <u, C.w> = 0 for every real-form
    basis element C over all interior pairs, exactly.  Raises
    InvalidParameter when norms has no entry for a K-type of the module,
    and what verify._action_form raises."""
    d, labels, fields, size = mod.scale, mod.basis, mod.fields, len(mod.basis)
    count, shifts, gathers = _action_form(mod, 1, {(0, 0, 0)} | {
        max(e, tuple(map(neg, e))) for at in fields.values() for e in at})
    report = VerificationReport(len(real_form_basis) * count, skipped_boundary=size - count)
    # ||v_{nm}^k||^2 = base[n, m] / C(n-1, k-1): one integer per K-type times one per k.
    blocks = [(n, m) for n, m, k in labels if k == 1]
    base = {kt: norms.base.get(KType(*kt)) for kt in blocks}
    missing = next((kt for kt, value in base.items() if value is None), None)
    if missing:
        raise InvalidParameter(f"the norm table has no entry for {KType(*missing)}")
    binomials = {n: [math.comb(n - 1, k) for k in range(n)] for n in {n for n, _ in base}}
    lcm = math.lcm(*(c for row in binomials.values() for c in row))
    dens = math.lcm(*(value.denominator for value in base.values()))
    shares = {n: [lcm // c for c in row] for n, row in binomials.items()}
    nsq = [*chain.from_iterable(map((value.numerator * (dens // value.denominator)).__mul__, shares[n])
                                for (n, _), value in base.items()), 0]
    nu, den = nsq[:count], d * dens * lcm
    compact = _compact(mod, [n for n, _ in blocks])

    groups: dict = {}
    for name, terms in real_form_basis.items():
        groups.setdefault(frozenset(terms), []).append(name)
    fails: dict = {name: [] for name in real_form_basis}
    for names in groups.values():
        coeffs = [real_form_basis[name] for name in names]
        replay = not compact or not _K.issuperset(coeffs[0])
        # Each element's coefficient over the first's, c conj(a) for units: keys of L terms.
        units = {g: [(cr * ar + ci * ai, ci * ar - cr * ai) for cr, ci in (c[g] for c in coeffs)]
                 for g, (ar, ai) in coeffs[0].items()}
        for delta in {(0, 0, 0)} | {max(e, tuple(map(neg, e))) for g in units for e in fields[g]}:
            shift, back = shifts[delta], tuple(map(neg, delta))
            sides = [[(g, [z and cut(z) for z in fields[g][e]]) for g in units if e in fields[g]]
                     for e, cut in ((delta, itemgetter(slice(count))), (back, gathers[delta]))]
            folds = _folds(coeffs[0], units, sides, (gathers[delta](nsq), nu), count) if replay else []
            for i, name in enumerate(names if folds else ()):
                (ur, ui), (re, im) = (folds[0][0][i], folds[0][1]) if len(folds) == 1 else (
                    (1, 0), _combine([(key[i], z, 1) for key, z in folds], count))
                if any(re or ()) or any(im or ()):
                    for u, x, y in zip(range(count), re or repeat(0), im or repeat(0)):
                        if x or y:
                            x, y, w = ur * x - ui * y, ui * x + ur * y, shift[u]
                            fails[name].append((u, labels[w], _over(x, y, den)))
                            if w < count and any(delta):
                                fails[name].append((w, labels[u], _over(x, -y, den)))
            # w is linked to u when C.u has a term at w or C.w one at u, C's generators summed.
            shared = len(sides[0]) < 2 and len(sides[1]) < 2
            for coeff in (coeffs[:1] if shared else coeffs) if any(delta) else ():
                lanes = [x for side in sides for x in (side[0][1] if len(side) == 1 else _combine(
                    [(coeff[gen], z, 1) for gen, z in side], count)) if x]
                linked = list(reduce(partial(map, or_), lanes or [()]))
                report.checked += (len(names) if shared else 1) * (
                    sum(compress(map(size.__gt__, shift), linked)) +
                    sum(compress(map(count.__gt__, shift), linked)))
    report.failures = [Failure(f"adjoint_{name}", (labels[u], w), total)
                       for name in real_form_basis for u, w, total in sorted(fails[name])]
    return report
