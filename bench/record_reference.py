"""Write bench/reference.json: the outcome of every point of each
workload's default-seed batch, as the program at this commit gives it.

    python3 bench/record_reference.py

Every benchmark run compares the outcomes of the points it shares with
this file, so rerun it only for a change that is meant to alter verdicts,
labels, check counts or exit codes, and say so in that change.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def record(name: str, scratch: Path) -> dict:
    batch = workloads.generate(name, workloads.DEFAULT_SEED)
    ctx = workloads.Context(ROOT / "src", scratch)
    tracer = spans.NullTracer()
    outcomes = [workloads.run_item(batch, i, ctx, tracer) for i in range(len(batch.points))]
    tail = workloads.run_tail(batch, tracer)
    errors = [e for i, o in enumerate(outcomes) for e in workloads.check_item(batch, i, o, {})]
    errors += workloads.check_tail(batch, tail, {})
    errors += [e for found in workloads.post_checks(batch, outcomes, ctx, tracer, {}).values() for e in found]
    if errors:
        raise SystemExit(f"{name}: refusing to record a failing batch:\n" + "\n".join(errors[:10]))
    entry = {
        "seed": batch.seed,
        "max_n": batch.max_n,
        "outcomes": {workloads.key(p): o for p, o in zip(batch.points, outcomes)},
    }
    if tail is not None:
        entry["enumerate"] = tail
    return entry


def dumps(reference: dict) -> str:
    """JSON with one line per point, so that a changed outcome shows as a
    one-line diff."""
    blocks = []
    for name, entry in sorted(reference.items()):
        head = [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in sorted(entry.items()) if k != "outcomes"]
        rows = [f"   {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(entry["outcomes"].items())]
        blocks.append(f" {json.dumps(name)}: {{\n" + "\n".join(head) + '\n  "outcomes": {\n' + ",\n".join(rows) + "\n  }\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> None:
    scratch = ROOT / ".bench_out" / "record-scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        reference = {name: record(name, scratch) for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCE.write_text(dumps(reference), encoding="utf-8")


if __name__ == "__main__":
    main()
