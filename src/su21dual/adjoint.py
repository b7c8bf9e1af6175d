"""The skew condition of an invariant form, replayed in Python ints.

check_adjoint verifies a unitarity.NormTable: <C.u, w> + <u, C.w> = 0 for
each C = sum c_g g of algebra.real_form_basis, every c_g a Gaussian unit,
and each pair (u, w = u + delta) of an interior u.  With the squared norms
N cleared of their denominators and D the module's scale, D.N times the
sum is the Gaussian integer sum_g c_g L_g + conj(c_g R_g), L_g = g_delta[u]
N(w) and R_g = g_{-delta}[w] N(u).  L_g and R_g are lists over the interior,
made once per generator and offset: an element re-signs, swaps and folds
their parts, A and B of one pair share them and the next pair drops them.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import compress, repeat
from operator import mul, neg, or_

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
    count, shifts, gathers = _action_form(mod, depth=1)
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
    nu, nws = nsq[:count], {delta: gather(nsq) for delta, gather in gathers.items()}

    def products(field: dict) -> dict:  # per offset g_delta[u], g_{-delta}[w], L and R
        out = {}
        for delta in {*field, *(tuple(map(neg, delta)) for delta in field)}:
            here = [z and z[:count] for z in field.get(delta, (None, None))]
            there = [z and gathers[delta](z) for z in field.get(tuple(map(neg, delta)), (None, None))]
            out[delta] = (here, there, [z and list(map(mul, z, nws[delta])) for z in here],
                          [z and list(map(mul, z, nu)) for z in there])
        return out

    lists: dict = {}
    for name, terms in real_form_basis.items():
        lists = {gen: lists.get(gen) or products(fields[gen]) for gen in terms}
        fails = []
        for delta in {(0, 0, 0)}.union(*lists.values()):
            at = [(terms[gen], lists[gen][delta]) for gen in terms if delta in lists[gen]]
            if any(delta):
                # Besides w = u, w is linked to u when it is a basis index and
                # C.u has a term at w or C.w one at u, C's generators summed.
                sides = [[(c, z[side], 1) for c, z in at if z[side][0]] for side in (0, 1)]
                lanes = [z for side in sides for z in (side[0][1] if len(side) == 1 else
                                                       _combine(side, count)) if z]
                report.checked += sum(compress(map(size.__gt__, shifts[delta]),
                                               reduce(partial(map, or_), lanes or [()])))
            re, im = _combine([(c, z, s) for c, (*_, l, r) in at for z, s in ((l, 1), (r, -1))], count)
            if any(re or ()) or any(im or ()):
                fails += [(u, labels[shifts[delta][u]], _over(x, y, d * dens * lcm)) for u, x, y
                          in zip(range(count), re or repeat(0), im or repeat(0)) if x or y]
        report.failures += [Failure(f"adjoint_{name}", (labels[u], w), total)
                            for u, w, total in sorted(fails)]
    return report
