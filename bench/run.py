"""The su21dual benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/README.md) on the batch drawn from seed N, in
fresh worker processes, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, measured untraced.  With --trace 1 they
are the per-layer ones: an untraced and a traced worker each get S/2
seconds, the traced one records spans around every call into the program,
and the difference of their pass times is the tracing overhead.

Every time is reported in reference-speed seconds: measured seconds scaled
by how long the reference kernel of `calibrate.py` took on the same CPU
just before and after, against its nominal time (see bench/README.md).
The measured seconds are printed before the result and kept in the record.

Run it from the root of a checkout: the program is imported from `src/`.
Results and spans are also written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cone_certify", "unitary_norms", "dual_sweep", "cli_roundtrip")
SETUP_PROBES = 5  # fresh set-ups before the worker, and as many after
RUN_BUDGET_S = 170  # every invocation must end within 180 s
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "error_rate": "ratio",
    "scalars.gaussian_share": "ratio",
    "scalars.max_den_bits": "bits",
    "scalars.lcm_den_bits": "bits",
    "coefficients.table_s": "s",
    "coefficients.ktypes": "count",
    "builder.build_s": "s",
    "builder.basis": "count",
    "builder.nonzeros": "count",
    "builder.json_write_s": "s",
    "builder.json_bytes": "bytes",
    "builder.json_parse_s": "s",
    "verify.commutators_s": "s",
    "verify.commutator_checks": "count",
    "verify.relations_s": "s",
    "verify.relation_checks": "count",
    "verify.failures": "count",
    "verify.skipped_boundary": "count",
    "verify.checks_per_s": "1/s",
    "unitarity.is_unitary_s": "s",
    "unitarity.verdicts_unitary": "count",
    "unitarity.verdicts_nonunitary": "count",
    "unitarity.verdicts_boundary_reducible": "count",
    "unitarity.norms_s": "s",
    "unitarity.adjoint_s": "s",
    "unitarity.adjoint_checks": "count",
    "unitarity.adjoint_failures": "count",
    "classify.classify_s": "s",
    "classify.support_s": "s",
    "classify.points": "count",
    "classify.unitary_share": "ratio",
    "classify.enumerate_s": "s",
    "classify.enumerate_records": "count",
    "cli.startup_s": "s",
    "cli.build_proc_s": "s",
    "cli.verify_proc_s": "s",
    "cli.nonzero_exits": "count",
    "trace.overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> str:
    """Run `python3 <args>` from the checkout root and return its stdout.

    The child gets its own process group, which is killed if it outlives
    the deadline, so no process of the run survives it.
    """
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def run_worker(workload, seed, seconds, trace, tiny, deadline) -> dict:
    args = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    if tiny:
        args.append("--tiny")
    return json.loads(run_child(args, deadline).strip().splitlines()[-1])


def setup_seconds(deadline) -> tuple[list[float], list[float]]:
    """Measured and reference-speed set-up times of SETUP_PROBES fresh
    processes, taking turns on the CPUs the run may use, each scaled by
    the reference kernel's time on its CPU just before and after it."""
    cores = sorted(os.sched_getaffinity(0))
    measured, scaled = [], []
    try:
        for i in range(SETUP_PROBES):
            core = cores[i % len(cores)]
            os.sched_setaffinity(0, {core})
            calibrate.sample()  # the first run on a new CPU is slow: caches are cold
            kernel = calibrate.measure()
            seconds = float(run_child([str(BENCH / "setup_probe.py"), str(core)], deadline))
            kernel = (kernel + calibrate.measure()) / 2
            measured.append(seconds)
            scaled.append(seconds * calibrate.factor(kernel))
    finally:
        os.sched_setaffinity(0, set(cores))
    return measured, scaled


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, seconds): the highest listed percentile with at least
    TAIL_MIN_BEYOND items above it, by nearest rank; the median when there
    are too few items for any."""
    ordered = sorted(times)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return q, ordered[rank - 1]
    return 50, statistics.median(ordered)


def job_seconds(result: dict, key: str, scaled: bool = True) -> list[float]:
    """Each job's median time over the passes of a run, each time first
    scaled to the reference speed measured around the job."""
    passes = result[key]
    if scaled:
        passes = [[t * calibrate.factor(k) for t, k in zip(times, kernels)]
                  for times, kernels in zip(passes, result["kernel"])]
    return [statistics.median(times) for times in zip(*passes)]


def batch_seconds(result: dict, key: str, scaled: bool = True) -> float:
    """Seconds to run the batch once: the sum of the jobs' medians."""
    return sum(job_seconds(result, key, scaled))


def speed(result: dict) -> float:
    """The run's median scale from measured to reference-speed seconds."""
    return statistics.median(calibrate.factor(k) for kernels in result["kernel"] for k in kernels)


def end_to_end(result: dict, setups: tuple[list[float], list[float]]) -> tuple[dict, str]:
    items = job_seconds(result, "wall")[: result["batch_items"]]
    q, tail_s = tail(items)
    values = {
        "setup_s": statistics.median(setups[1]),
        "wall_s": batch_seconds(result, "wall"),
        "item_s_p50": statistics.median(items),
        "item_s_tail": tail_s,
        "cpu_s": batch_seconds(result, "cpu"),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    note = (f"passes={result['passes']} jobs={result['attempted']} "
            f"item_s_tail=p{q:g} of {len(items)} points; measured seconds: "
            f"setup_s={statistics.median(setups[0]):.4f} "
            f"wall_s={batch_seconds(result, 'wall', scaled=False):.4f} "
            f"cpu_s={batch_seconds(result, 'cpu', scaled=False):.4f}; "
            f"speed factor {speed(result):.3f}")
    return values, note


def per_layer(base: dict, traced: dict) -> tuple[dict, str]:
    # Span times are scaled by the traced run's median speed factor; the
    # overhead compares the two workers at the reference speed.
    factor = speed(traced)
    layers = {name: value * factor if PER_LAYER.get(name) == "s" else value
              for name, value in traced["layers"].items()}
    attempted = base["attempted"] + traced["attempted"]
    layers["error_rate"] = (base["failed"] + traced["failed"]) / attempted
    entries = layers.get("builder.nonzeros", 0)
    layers["scalars.gaussian_share"] = layers.get("scalars.gaussian_entries", 0) / entries if entries else 0.0
    points = layers.get("classify.points", 0)
    layers["classify.unitary_share"] = layers.get("classify.unitary_points", 0) / points if points else 0.0
    verify_s = layers.get("verify.commutators_s", 0) + layers.get("verify.relations_s", 0)
    checks = layers.get("verify.commutator_checks", 0) + layers.get("verify.relation_checks", 0)
    layers["verify.checks_per_s"] = checks / verify_s if verify_s else 0.0
    layers["trace.overhead_s"] = batch_seconds(traced, "wall") - batch_seconds(base, "wall")
    values = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
    timed = {name: v for name, v in values.items() if PER_LAYER[name] == "s" and name != "trace.overhead_s"}
    dominant = max(timed, key=timed.get)
    return values, f"dominant layer by self time: {dominant} ({timed[dominant]:.4f} s per pass)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; a
    checkout that is not a repository has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="su21dual benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "su21dual" / "__init__.py").is_file():
        print(f"error: no su21dual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    env = environment(args)
    print("environment: " + json.dumps(env))
    try:
        if args.trace == 0:
            # Half the set-ups before the worker and half after, so that
            # they sample the machine at both ends of the run.
            before = setup_seconds(deadline)
            workers = [run_worker(args.workload, args.seed, args.seconds, 0, args.tiny, deadline)]
            after = setup_seconds(deadline)
            setups = (before[0] + after[0], before[1] + after[1])
            values, note = end_to_end(workers[0], setups)
            units = END_TO_END
        else:
            half = args.seconds / 2
            workers = [run_worker(args.workload, args.seed, half, trace, args.tiny, deadline) for trace in (0, 1)]
            values, note = per_layer(*workers)
            units = PER_LAYER
    except (ChildFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    errors = [e for w in workers for e in w["errors"]]
    correct = failed == 0 and all(w["error_count"] == 0 for w in workers)
    print(note)
    for error in errors:
        print(f"check failed: {error}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, environment=env, note=note, errors=errors)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
