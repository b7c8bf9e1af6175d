"""Run one benchmark workload in a fresh process and print its raw result.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

The worker draws the seeded batch, then runs whole passes over it, starting
a new pass while less than S seconds have gone by.  Each job is timed on
its own, by wall clock and by CPU time of this process and its waited-for
children, so the benchmark's own checks between jobs are not counted.
Passes take turns on the CPUs the worker may use, one CPU per pass.  The
reference kernel of `calibrate.py` is timed on the pass's CPU before its
first job, again before any job that comes REFERENCE_EVERY_S seconds of
jobs after the last measurement, and at the pass's end; each job is
recorded with the mean of the measurements just before and just after
it, so that `run.py` can scale it to the reference speed.
After the last pass it samples peak memory, runs the checks that call the
program again, and prints one JSON object on stdout.  `bench/run.py` starts it and turns the result into
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MAX_ERRORS = 10  # error messages kept in the result
REFERENCE_EVERY_S = 0.25  # seconds of jobs between reference measurements


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    import spans
    import workloads

    batch = workloads.generate(workload, seed, tiny=tiny)
    reference = workloads.load_reference()
    tracer = spans.Tracer() if trace else spans.NullTracer()
    scratch = OUT / f"scratch-{workload}-{seed}-{int(trace)}-{time.monotonic_ns()}"
    scratch.mkdir(parents=True)
    ctx = workloads.Context(SRC, scratch)
    try:
        return _passes(batch, reference, tracer, ctx, seconds, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _timed(job, *args):
    """(result, wall seconds, CPU seconds) of one job; an exception is the result."""
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        result = job(*args)
    except Exception as exc:  # a job that raises is a failed item, not a crash
        result = {"error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - t0
    return result, wall, cpu_seconds() - cpu0


def _passes(batch, reference, tracer, ctx, seconds, workloads) -> dict:
    walls, cpus = [], []  # per pass: seconds of each job, the tail job last
    kernels = []  # per pass: the reference kernel's time around each job
    first: list[dict] = []
    failed: set[tuple[int, int]] = set()
    errors: list[str] = []
    counts: dict[str, float] = defaultdict(float)
    cores = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        os.sched_setaffinity(0, {cores[passes % len(cores)]})
        wall, cpu, before = [], [], []  # before: index of the measurement before each job
        calibrate.sample()  # the first run on a new CPU is slow: caches are cold
        measured: list[float] = []
        since = math.inf
        for index in range(len(batch.points)):
            if since >= REFERENCE_EVERY_S:
                measured.append(calibrate.measure())
                since = 0.0
            tracer.item = f"{passes}:{index}"
            with tracer.span("item"):
                outcome, dt, dc = _timed(workloads.run_item, batch, index, ctx, tracer)
            wall.append(dt)
            cpu.append(dc)
            before.append(len(measured) - 1)
            since += dt
            if "error" in outcome:
                found = [f"{workloads.key(batch.points[index])}: {outcome['error']}"]
            else:
                found = workloads.check_item(batch, index, outcome, reference)
                for name, value in outcome.items():
                    if "." in name:
                        counts[name] += value
            if passes == 0:
                first.append(outcome)
            elif outcome != first[index]:
                found.append(f"{workloads.key(batch.points[index])}: outcome differs between passes")
            if found:
                failed.add((passes, index))
                errors.extend(found)
        tracer.item = f"{passes}:tail"
        if since >= REFERENCE_EVERY_S:
            measured.append(calibrate.measure())
        records, dt, dc = _timed(workloads.run_tail, batch, tracer)
        if records is not None:
            wall.append(dt)
            cpu.append(dc)
            before.append(len(measured) - 1)
        measured.append(calibrate.measure())
        if isinstance(records, dict):
            errors.append(f"enumerate_dual: {records['error']}")
        elif records is not None:
            errors.extend(workloads.check_tail(batch, records, reference))
            counts["classify.enumerate_records"] += len(records)
        walls.append(wall)
        cpus.append(cpu)
        kernels.append([(measured[m] + measured[m + 1]) / 2 for m in before])
        passes += 1
    peak = peak_rss_mb()

    probe_counts: dict[str, float] = defaultdict(float)
    post, _, _ = _timed(workloads.post_checks, batch, first, ctx, tracer, probe_counts)
    if "error" in post:
        errors.append(f"post-run checks: {post['error']}")
        post = {index: ["post-run checks failed"] for index in range(len(batch.points))}
    for index, found in post.items():
        errors.extend(found)
        failed.update((p, index) for p in range(passes))

    result = {
        "workload": batch.workload,
        "seed": batch.seed,
        "batch_items": len(batch.points),
        "passes": passes,
        "wall": walls,
        "cpu": cpus,
        "kernel": kernels,
        "attempted": passes * len(batch.points),
        "failed": len(failed),
        "error_count": len(errors),
        "errors": errors[:MAX_ERRORS],
        "peak_rss_mb": peak,
    }
    if tracer.enabled:
        result["layers"] = _layers(tracer, passes, counts, probe_counts)
        tracer.dump(OUT / f"spans-{batch.workload}-{batch.seed}.json")
    return result


def _layers(tracer, passes: int, counts: dict, probe_counts: dict) -> dict:
    """Per-layer numbers of one batch: span self time and counts from the
    passes averaged per pass, plus what the probes measured once."""
    in_passes = tracer.self_times(lambda item: item is not None and not item.startswith("probe"))
    in_probes = tracer.self_times(lambda item: item is not None and item.startswith("probe"))
    layers = defaultdict(float)
    for name, total in in_passes.items():
        layers[f"{name}_s"] += total / passes
    for name, total in in_probes.items():
        layers[f"{name}_s"] += total
    for name, total in counts.items():
        layers[name] += total / passes
    for name, value in probe_counts.items():
        layers[name] += value
    startups = tracer.durations("cli.startup")
    if startups:
        layers["cli.startup_s"] = sorted(startups)[len(startups) // 2]
    return dict(layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import su21dual

    if Path(su21dual.__file__).resolve().parent != SRC / "su21dual":
        print(f"error: su21dual imported from {su21dual.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
