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
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import compress, repeat
from operator import itemgetter, mul, neg, or_

from .algebra import real_form_basis
from .builder import TruncatedModule
from .coefficients import _over
from .errors import InvalidParameter
from .lattice import KType
from .unitarity import NormTable
from .verify import Failure, VerificationReport, _action_form, _combine


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
    base = {kt: norms.base.get(KType(*kt)) for kt in dict.fromkeys(idx[:2] for idx in labels)}
    missing = next((kt for kt, value in base.items() if value is None), None)
    if missing:
        raise InvalidParameter(f"the norm table has no entry for {KType(*missing)}")
    binomials = {n: [math.comb(n - 1, k) for k in range(n)] for n in {n for n, _ in base}}
    lcm = math.lcm(*(c for row in binomials.values() for c in row))
    dens = math.lcm(*(value.denominator for value in base.values()))
    base = {kt: value.numerator * (dens // value.denominator) for kt, value in base.items()}
    nsq = [base[n, m] * (lcm // binomials[n][k - 1]) for n, m, k in labels] + [0]
    nu, den = nsq[:count], d * dens * lcm

    groups: dict = {}
    for name, terms in real_form_basis.items():
        groups.setdefault(frozenset(terms), []).append(name)
    fails: dict = {name: [] for name in real_form_basis}
    for names in groups.values():
        coeffs = [real_form_basis[name] for name in names]
        # Each element's coefficient over the first's, c conj(a) for units: keys of L terms.
        units = {g: [(cr * ar + ci * ai, ci * ar - cr * ai) for cr, ci in (c[g] for c in coeffs)]
                 for g, (ar, ai) in coeffs[0].items()}
        for delta in {(0, 0, 0)} | {max(e, tuple(map(neg, e))) for g in units for e in fields[g]}:
            shift, back, sums = shifts[delta], tuple(map(neg, delta)), {}
            sides = [[(g, [z and cut(z) for z in fields[g][e]]) for g in units if e in fields[g]]
                     for e, cut in ((delta, itemgetter(slice(count))), (back, gathers[delta]))]
            for side, weight, s in zip(sides, (gathers[delta](nsq), nu), (1, -1)):
                for gen, z in side:
                    sums.setdefault(tuple((a, s * b) for a, b in units[gen]), []).append(
                        (coeffs[0][gen], [x and list(map(mul, x, weight)) for x in z], s))
            folds = [(key, _combine(terms, count)) for key, terms in sums.items()]
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
