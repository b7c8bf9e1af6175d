"""The four workloads of the su21dual benchmark: inputs, jobs and checks.

A workload turns a seed into a batch of parameter points.  A point is a
plain dict naming the parameters the way the command line does (`c` and
`t`, or `r` and `s`), plus the verdict the benchmark expects where it knows
one.  Only the parameters reach the program.  The threshold formulas below
restate the paper's closed forms so that points can be drawn from fixed
strata (unitary or not, full cone, strip or wedge) without asking the
program; the program's verdicts are then checked against them.

The batch is drawn slot by slot, with the same strata and the same
denominators in every batch, so that batches of different seeds cost about
the same.

Importing this module imports `su21dual`; the caller puts the checkout's
`src` on `sys.path` first.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Optional

from su21dual import (
    ConeParams,
    Su21Error,
    VertexParams,
    build,
    build_norms,
    check_adjoint,
    check_coefficient_relations,
    check_commutators,
    classify,
    enumerate_dual,
    is_unitary,
    parse_label,
    parse_scalar,
    products,
    support_of,
    transition_coeffs,
)
from su21dual.builder import module_from_json_str, module_to_json_str
from su21dual.scalars import GaussianRational

WORKLOADS = ("cone_certify", "unitary_norms", "dual_sweep", "cli_roundtrip")
DEFAULT_SEED = 1
REFERENCE = Path(__file__).resolve().parent / "reference.json"
CLI_TIMEOUT_S = 60
STARTUP_PROBES = 3  # bare CLI starts timed in the traced run


# -- closed forms used to draw the points ------------------------------------


def threshold(t: int) -> Fraction:
    """c(t): real c below it give a unitary full cone V(c, 2t)."""
    k, odd = divmod(abs(t), 2)
    if t == 0:
        return Fraction(0)
    return Fraction(-(k * k + k + 1) if odd else -(k * k + 1), 2)


def special(l: int, t: int) -> Fraction:
    """c(l, t): the cone point whose lowest constituent is the strip U(l, 2t)."""
    k, odd = divmod(abs(t), 2)
    if odd:
        return Fraction(l * l - (2 * k - 1) * l - 2 * k - 1, 2)
    return Fraction(l * l - 2 * (k - 1) * l - 2 * k, 2)


# -- points ------------------------------------------------------------------


def _ratio(rng: random.Random, den: int, lo: int, hi: int) -> Fraction:
    """A reduced a/den in [lo, hi] whose denominator is exactly den."""
    while True:
        a = rng.randint(lo * den, hi * den)
        if gcd(a, den) == 1:
            return Fraction(a, den)


def _text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _complex_text(re_: Fraction, im_: Fraction) -> str:
    sign = "+" if im_ > 0 else "-"
    return f"{_text(re_)}{sign}{_text(abs(im_))}*i"


def cone(c, t: int, expect: Optional[str] = None) -> dict:
    point = {"c": c if isinstance(c, str) else _text(c), "t": t}
    if expect:
        point["expect"] = expect
    return point


def wedge(r: int, s: int, expect: Optional[str] = None) -> dict:
    point = {"r": r, "s": s}
    if expect:
        point["expect"] = expect
    return point


def key(point: dict) -> str:
    if "c" in point:
        return f"V({point['c']},{point['t']})"
    return f"W({point['r']},{point['s']})"


def params(point: dict):
    if "c" in point:
        return ConeParams(parse_scalar(point["c"]), point["t"])
    return VertexParams(point["r"], point["s"])


def cli_args(point: dict) -> list[str]:
    if "c" in point:
        return [f"--c={point['c']}", "--t", str(point["t"])]
    return ["--r", str(point["r"]), "--s", str(point["s"])]


@dataclass
class Batch:
    workload: str
    seed: int
    max_n: int
    points: list[dict]
    enumerate_bounds: Optional[tuple[int, int]] = None  # (t_max, r_max)
    tiny: bool = False


def _signed(rng, t_abs: int) -> int:
    return rng.choice((-1, 1)) * t_abs


def _cone_certify(rng, tiny):
    # Full cones only: c is never a half-integer, so no wall cuts the support
    # and every point has the same basis.  One point in four has nonreal c.
    # Each slot fixes the denominators and |t|, which set the cost.
    real = [
        cone(_ratio(rng, den, -4, 4), _signed(rng, t_abs))
        for den, t_abs in ((3, 2), (5, 3), (7, 5))
    ]
    nonreal = cone(_complex_text(_ratio(rng, 3, -4, 4), _ratio(rng, 5, -4, 4)), _signed(rng, 2))
    if tiny:
        return 4, [real[0], nonreal]
    return 12, real + [nonreal]


def _unitary_norms(rng, tiny):
    def full_cone(den, t_abs):
        t = _signed(rng, t_abs)
        return cone(threshold(t) - _ratio(rng, den, 0, 4), t, "unitary")

    def strip(l, t_abs):
        t = _signed(rng, t_abs)
        return cone(special(l, t), t, "unitary")

    points = [full_cone(5, 4), strip(0, 3), strip(1, 5), wedge(3, rng.choice((-2, 0, 2)), "unitary")]
    if tiny:
        return 5, [points[0], points[1], points[3]]
    return 14, points


def _dual_sweep(rng, tiny):
    # Every half-integer c (thresholds, special values and walls) and one
    # seeded rational inside each interval between them, for each t; the
    # verdict of an interior point is known: unitary exactly below c(t).
    t_range, j_range = range(-8, 9), range(-10, 3)
    r_range, s_range = range(2, 15), range(-20, 21)
    if tiny:
        t_range, j_range, r_range, s_range = (-3, 0, 2), range(-3, 1), (2, 3), range(-4, 5)
    points = []
    for t in t_range:
        for j in j_range:
            points.append(cone(Fraction(j, 2), t))
            if j + 1 in j_range:
                den = rng.choice((3, 5, 7))
                c = Fraction(j, 2) + Fraction(rng.randrange(1, den), 2 * den)
                points.append(cone(c, t, "unitary" if c < threshold(t) else "nonunitary"))
    for r in r_range:
        for s in s_range:
            if (r + s) % 2:
                points.append(wedge(r, s, "unitary" if abs(s) <= r + 1 else "nonunitary"))
    rng.shuffle(points)
    return 30, points


def _cli_roundtrip(rng, tiny):
    points = []
    for expect, sign, den, t_abs in (("unitary", -1, 3, 2), ("nonunitary", 1, 5, 4)):
        t = _signed(rng, t_abs)
        points.append(cone(threshold(t) + sign * _ratio(rng, den, 0, 4), t, expect))
    return (4 if tiny else 14), points


_GENERATORS = {
    "cone_certify": _cone_certify,
    "unitary_norms": _unitary_norms,
    "dual_sweep": _dual_sweep,
    "cli_roundtrip": _cli_roundtrip,
}


def generate(workload: str, seed: int, tiny: bool = False) -> Batch:
    """The batch of a workload: the same seed gives the same points."""
    rng = random.Random(f"{workload}/{seed}")
    max_n, points = _GENERATORS[workload](rng, tiny)
    bounds = None
    if workload == "dual_sweep":
        bounds = (2, 3) if tiny else (8, 14)
    return Batch(workload, seed, max_n, points, bounds, tiny)


# -- jobs --------------------------------------------------------------------
#
# A job is one point's full work.  It returns an outcome dict; keys with a
# dot are per-layer counts, summed over a pass by the worker.


@dataclass
class Context:
    """Where CLI jobs write modules, and how they start the program."""

    src: Path
    scratch: Path

    def cli(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "su21dual.cli", *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(self.src)),
            timeout=CLI_TIMEOUT_S,
        )

    def module_path(self, index: int) -> Path:
        return self.scratch / f"module-{index}.json"


def _verify(p, mod, tr) -> dict:
    with tr.span("verify.commutators"):
        comm = check_commutators(mod)
    with tr.span("verify.relations"):
        rel = check_coefficient_relations(p, mod.max_n, mod.region)
    return {
        "verified": comm.verified and rel.verified,
        "verify.commutator_checks": comm.checked,
        "verify.relation_checks": rel.checked,
        "verify.failures": len(comm.failures) + len(rel.failures),
        "verify.skipped_boundary": comm.skipped_boundary + rel.skipped_boundary,
    }


def _certify(point, batch, index, ctx, tr):
    p = params(point)
    with tr.span("builder.build"):
        mod = build(p, batch.max_n)
    return _verify(p, mod, tr)


def _norms(point, batch, index, ctx, tr):
    p = params(point)
    with tr.span("builder.build"):
        mod = build(p, batch.max_n)
    with tr.span("unitarity.is_unitary"):
        verdict = is_unitary(p, mod.region, max_n=batch.max_n)
    outcome = {"status": verdict.status, f"unitarity.verdicts_{verdict.status}": 1}
    if verdict.is_unitary:
        with tr.span("unitarity.norms"):
            norms = build_norms(mod)
        with tr.span("unitarity.adjoint"):
            report = check_adjoint(mod, norms)
        outcome["unitarity.adjoint_checks"] = report.checked
        outcome["unitarity.adjoint_failures"] = len(report.failures)
    return outcome


def _sweep(point, batch, index, ctx, tr):
    p = params(point)
    with tr.span("classify.classify"):
        record = classify(p)
    with tr.span("classify.support"):
        region = support_of(p)
    with tr.span("unitarity.is_unitary"):
        verdict = is_unitary(p, region)
    return {
        "label": record.label,
        "unitary": record.unitary,
        "status": verdict.status,
        f"unitarity.verdicts_{verdict.status}": 1,
        "classify.points": 1,
        "classify.unitary_points": int(record.unitary),
    }


def _roundtrip(point, batch, index, ctx, tr):
    path = str(ctx.module_path(index))
    with tr.span("cli.build_proc"):
        built = ctx.cli("build", *cli_args(point), "--max-n", str(batch.max_n), "--out", path)
    with tr.span("cli.verify_proc"):
        verified = ctx.cli("verify", path)
    report = json.loads(verified.stdout) if verified.returncode in (0, 1) else {}
    return {
        "build_rc": built.returncode,
        "verify_rc": verified.returncode,
        "checked": report.get("checked"),
        "verified": report.get("verified"),
        "cli.nonzero_exits": int(built.returncode != 0) + int(verified.returncode != 0),
    }


_JOBS = {
    "cone_certify": _certify,
    "unitary_norms": _norms,
    "dual_sweep": _sweep,
    "cli_roundtrip": _roundtrip,
}


def run_item(batch: Batch, index: int, ctx: Context, tr) -> dict:
    return _JOBS[batch.workload](batch.points[index], batch, index, ctx, tr)


def run_tail(batch: Batch, tr) -> Optional[list]:
    """The once-per-pass job that closes a batch: the bounded enumeration,
    as [label, unitary] pairs."""
    if batch.enumerate_bounds is None:
        return None
    with tr.span("classify.enumerate"):
        records = enumerate_dual(*batch.enumerate_bounds)
    return [[rec.label, rec.unitary] for rec in records]


# -- checks ------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _reference_for(batch: Batch, reference: dict) -> dict:
    return {} if batch.tiny else reference.get(batch.workload, {})


def check_item(batch: Batch, index: int, outcome: dict, reference: dict) -> list[str]:
    """Cheap checks of one outcome: reference outcome and invariants."""
    point = batch.points[index]
    errors = []
    expected = _reference_for(batch, reference).get("outcomes", {}).get(key(point))
    if expected is not None and expected != outcome:
        errors.append(f"{key(point)}: outcome {outcome} differs from reference {expected}")
    expect = point.get("expect")
    w = batch.workload
    if w == "cone_certify" and not outcome["verified"]:
        errors.append(f"{key(point)}: {outcome['verify.failures']} relation failures")
    if w == "unitary_norms":
        if outcome["status"] != expect:
            errors.append(f"{key(point)}: verdict {outcome['status']}, expected {expect}")
        elif outcome["unitarity.adjoint_failures"]:
            errors.append(f"{key(point)}: {outcome['unitarity.adjoint_failures']} adjoint failures")
    if w == "dual_sweep":
        if outcome["unitary"] != (outcome["status"] == "unitary"):
            errors.append(
                f"{key(point)}: classify says unitary={outcome['unitary']}, "
                f"is_unitary says {outcome['status']}"
            )
        if expect and outcome["unitary"] != (expect == "unitary"):
            errors.append(f"{key(point)}: unitary={outcome['unitary']}, expected {expect}")
    if w == "cli_roundtrip":
        if outcome["build_rc"] or outcome["verify_rc"] or outcome["verified"] is not True:
            errors.append(
                f"{key(point)}: CLI exits {outcome['build_rc']}/{outcome['verify_rc']}, "
                f"verified={outcome['verified']}"
            )
    return errors


def check_tail(batch: Batch, records: Optional[list], reference: dict) -> list[str]:
    if records is None:
        return []
    errors = [f"enumerate_dual lists nonunitary {label}" for label, unitary in records if not unitary]
    expected = _reference_for(batch, reference).get("enumerate")
    if expected is not None and expected != records:
        errors.append("enumerate_dual records differ from reference")
    for label, _ in records:
        try:
            parse_label(label)
        except Su21Error as exc:
            errors.append(f"label {label!r} does not parse: {exc}")
    return errors


def _scan_scalars(mod, counters: dict) -> None:
    """Action-entry counts and denominator sizes of one module."""
    entries = gaussian = max_den = 0
    lcm = 1
    for rows in mod.rows.values():
        for terms in rows.values():
            for _, value in terms:
                entries += 1
                if isinstance(value, GaussianRational):
                    gaussian += 1
                    dens = (value.re.denominator, value.im.denominator)
                else:
                    dens = (value.denominator,)
                for den in dens:
                    max_den = max(max_den, den)
                    lcm = lcm * den // gcd(lcm, den)
    counters["builder.nonzeros"] += entries
    counters["scalars.gaussian_entries"] += gaussian
    counters["scalars.max_den_bits"] = max(counters["scalars.max_den_bits"], max_den.bit_length())
    counters["scalars.lcm_den_bits"] = max(counters["scalars.lcm_den_bits"], lcm.bit_length())


def _probe_module(p, mod, tr, counters: dict) -> None:
    """Basis size, action entries, and one pass of the coefficient tables
    over the module's K-types."""
    counters["builder.basis"] += len(mod.basis)
    _scan_scalars(mod, counters)
    coords = list(mod.region.coords(mod.max_n))
    with tr.span("coefficients.table"):
        for coord in coords:
            transition_coeffs(p, mod.region.ktype_at(coord))
            products(p, coord)
    counters["coefficients.ktypes"] += len(coords)


def _json_roundtrip(p, mod, tr, counters: dict) -> list[str]:
    with tr.span("unitarity.is_unitary"):
        verdict = is_unitary(p, mod.region, max_n=mod.max_n)
    norms = None
    if verdict.is_unitary:
        with tr.span("unitarity.norms"):
            norms = build_norms(mod)
    with tr.span("builder.json_write"):
        text = module_to_json_str(mod, norms=norms)
    with tr.span("builder.json_parse"):
        parsed = module_from_json_str(text)
    counters["builder.json_bytes"] += len(text.encode("utf-8"))
    if parsed.basis != mod.basis or parsed.rows != mod.rows:
        return ["module JSON does not parse back to the module written"]
    return []


def post_checks(batch: Batch, outcomes: list[dict], ctx: Context, tr, counters: dict) -> dict[int, list[str]]:
    """Checks that need the program again, once per point after the timed
    passes, and, when tracing, the per-layer probes of each point.

    Probe spans carry the item id "probe:<index>" and counts go to
    `counters`; both are per batch.
    """
    errors: dict[int, list[str]] = {}
    w = batch.workload
    for index, point in enumerate(batch.points):
        tr.item = f"probe:{index}"
        found = []
        if w == "dual_sweep":
            label = outcomes[index]["label"]
            again = classify(parse_label(label)).label
            if again != label:
                found.append(f"label {label} parses to a point labelled {again}")
        elif w == "cli_roundtrip":
            found = _cli_post(batch, index, outcomes[index], ctx, tr, counters)
        elif tr.enabled:
            p = params(point)
            _probe_module(p, build(p, batch.max_n), tr, counters)
        if found:
            errors[index] = found
    if w == "cli_roundtrip" and tr.enabled:
        tr.item = "probe:startup"
        for _ in range(STARTUP_PROBES):
            with tr.span("cli.startup"):
                ctx.cli("--help")
    tr.item = None
    return errors


def _cli_post(batch, index, outcome, ctx, tr, counters) -> list[str]:
    """The in-process check count and the norms the CLI must have attached."""
    point = batch.points[index]
    found = []
    p = params(point)
    with tr.span("builder.build"):
        mod = build(p, batch.max_n)
    report = _verify(p, mod, tr)
    in_process = report["verify.commutator_checks"] + report["verify.relation_checks"]
    if outcome["checked"] != in_process:
        found.append(f"{key(point)}: CLI checked {outcome['checked']}, in-process {in_process}")
    path = ctx.module_path(index)
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            has_norms = "norms" in json.load(fh)
        if has_norms != (point["expect"] == "unitary"):
            found.append(f"{key(point)}: norms attached={has_norms}, expected {point['expect']}")
    if tr.enabled:
        for name, value in report.items():
            if "." in name:
                counters[name] += value
        _probe_module(p, mod, tr, counters)
        found += _json_roundtrip(p, mod, tr, counters)
    return found
