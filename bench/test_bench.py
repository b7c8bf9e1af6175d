"""Tests of the benchmark itself, not of su21dual.

    python3 -m pytest bench -q

The smoke runs use --tiny, which shrinks every batch and max_n so that a
run takes a few seconds.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in spec}
    assert all(NAME.fullmatch(name) for name in printed)
    if trace == 0:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_spec_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = workloads.generate(workload, 7)
    assert first.points == workloads.generate(workload, 7).points
    assert first.points != workloads.generate(workload, 8).points


def test_reference_covers_the_default_batch():
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        batch = workloads.generate(workload, workloads.DEFAULT_SEED)
        entry = reference[workload]
        assert entry["max_n"] == batch.max_n
        assert set(entry["outcomes"]) == {workloads.key(p) for p in batch.points}


def test_tail_keeps_ten_items_beyond():
    assert run.tail([float(i) for i in range(1000)]) == (99, 989.0)
    assert run.tail([float(i) for i in range(100)]) == (90, 89.0)
    assert run.tail([1.0, 2.0, 3.0, 4.0]) == (50, 2.5)


def test_times_scale_to_the_reference_speed():
    ref = calibrate.REFERENCE_S
    result = {"wall": [[1.0, 2.0], [2.0, 4.0], [2.0, 2.0]], "kernel": [[ref, ref], [2 * ref, 2 * ref], [2 * ref, ref]]}
    assert run.job_seconds(result, "wall") == [1.0, 2.0]
    assert run.job_seconds(result, "wall", scaled=False) == [2.0, 2.0]
    assert run.speed(result) == 0.75
    assert calibrate.measure() > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "dual_sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
