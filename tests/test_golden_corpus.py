"""Byte identity of the package's outputs on a fixed corpus.

Each group renders its outputs as text, one item per line, and pins the
SHA-256 digest of that text, so a change to any byte of any output fails
the test of the group it touches.  The groups cover classify records on
a cone and wedge grid, is_unitary verdicts at max_n=20, transition
coefficients and products, enumerate_dual(12, 9), four module documents
at max_n=10 with their commutator, relation and adjoint reports, reports
with failures and their discrepancy text, and the exit code, stdout and
written document of CLI runs of classify, unitary, enumerate, spectrum,
build and verify.  Run this file as a script to print each group's digest
and line count; to find what changed in a failing group, dump its lines
on both trees and diff them.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from su21dual import (
    ConeCoord,
    ConeParams,
    Generator,
    KType,
    Region,
    VertexParams,
    build,
    check_adjoint,
    check_coefficient_relations,
    check_commutators,
    classify,
    document_norms,
    enumerate_dual,
    is_unitary,
    products,
    support_of,
    transition_coeffs,
)
from su21dual.builder import module_to_json_str
from su21dual.cli import main
from su21dual.scalars import GaussianRational

from oracles import with_row

F = Fraction

CONE_GRID = [
    ConeParams(F(a, b), t) for b in (1, 2, 4) for a in range(-24, 5) for t in range(-7, 8)
] + [
    ConeParams(GaussianRational(F(a, 2), F(b, 3)), t)
    for a in (-3, 0, 2) for b in (-1, 2) for t in (-2, 0, 3)
]
WEDGE_GRID = [VertexParams(r, s) for r in range(2, 12) for s in range(-15, 16) if (r + s) % 2]
UNITARY_GRID = [ConeParams(F(a, 2), t) for a in range(-16, 3) for t in range(-5, 6)] + [
    VertexParams(r, s) for r in range(2, 8) for s in range(-9, 10) if (r + s) % 2
]
MODULES = [
    ConeParams(F(-1), 0),
    ConeParams(GaussianRational(1, 1), 2),
    VertexParams(4, 3),
    ConeParams(F(-5), 6),
]
MAX_N = 10
CLI_RUNS = [
    ("classify", "--c", "-7/3", "--t", "2"),
    ("classify", "--c", "1+1*i", "--t", "1"),
    ("classify", "--r", "4", "--s", "3"),
    ("unitary", "--c", "-1", "--t", "0", "--max-n", "12"),
    ("unitary", "--c", "1/2", "--t", "0"),
    ("unitary", "--r", "6", "--s", "1", "--max-n", "12"),
    ("enumerate", "--t-max", "3", "--r-max", "4"),
    ("spectrum", "--family", "U(l=1,2t=8)", "--max-n", "7", "--format", "text"),
    ("spectrum", "--family", "U(l=1,2t=-8)", "--max-n", "7", "--format", "svg"),
    ("spectrum", "--family", "W(4,3)", "--max-n", "7", "--format", "svg"),
    ("spectrum", "--family", "Z(5)", "--max-n", "8"),
    ("spectrum", "--family", "U(2)", "--max-n", "6", "--format", "svg"),
    ("build", "--c", "-1", "--t", "0", "--max-n", "6"),
    ("build", "--r", "4", "--s", "3", "--max-n", "7"),
    ("build", "--c", "-5", "--t", "6", "--max-n", "8"),
    ("build", "--c", "1", "--t", "-1", "--max-n", "5"),
]


def _line(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _classify_lines():
    for p in CONE_GRID + WEDGE_GRID:
        yield _line(classify(p).to_json())


def _unitary_lines():
    for p in UNITARY_GRID:
        for region in (support_of(p), Region(p.vertex)):
            yield _line(is_unitary(p, region, max_n=20).to_json())


def _coefficient_lines():
    for p in CONE_GRID[::7] + WEDGE_GRID[::3]:
        v0 = p.vertex
        for coord in (ConeCoord(0, 0), ConeCoord(2, 1), ConeCoord(0, 3), ConeCoord(4, 4)):
            kt = KType(v0.n + coord.p + coord.q, v0.m + 3 * coord.p - 3 * coord.q)
            yield repr((transition_coeffs(p, kt), products(p, coord)))


def _enumerate_lines():
    for rec in enumerate_dual(12, 9):
        yield _line(rec.to_json())


def _modules():
    for p in MODULES:
        mod = build(p, MAX_N)
        yield p, mod, document_norms(mod)


def _document_lines():
    for _, mod, norms in _modules():
        yield module_to_json_str(mod, norms=norms)


def _report_lines():
    for p, mod, norms in _modules():
        yield _line(check_commutators(mod).to_json())
        yield _line(check_coefficient_relations(p, MAX_N, mod.region).to_json())
        if norms is not None:
            yield _line(check_adjoint(mod, norms).to_json())


def _failing_report_lines():
    """Reports with failures: relations on regions whose walls are not the
    support's, and the commutator and adjoint replays of a tampered row."""
    for p, region in [
        (ConeParams(F(-5), 6), Region(KType(1, 12), q_max=1)),
        (ConeParams(F(-1), 0), Region(KType(1, 0), p_max=2)),
        (ConeParams(GaussianRational(1, 1), -3), Region(KType(1, -6), p_max=3, q_max=1)),
        (VertexParams(4, 3), Region(KType(4, 3), p_max=1)),
    ]:
        yield _line(check_coefficient_relations(p, 8, region).to_json())
    for p, mod, norms in _modules():
        if norms is None:
            continue
        (idx, row), *_ = mod.rows[Generator.X_BETA].items()
        mod = with_row(mod, Generator.X_BETA, idx, ((row[0][0], row[0][1] + F(1, 3)),) + row[1:])
        yield _line(check_commutators(mod).to_json())
        yield _line(check_adjoint(mod, norms).to_json())


def _cli_lines():
    """Exit code and stdout of each run; each build's document and the
    exit code and stdout of verify on it."""
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "mod.json")
        for argv in CLI_RUNS:
            runs = [argv + ("--out", out), ("verify", out)] if argv[0] == "build" else [argv]
            for run in runs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(list(run))
                yield f"{' '.join(run)} -> {code}".replace(out, "OUT")
                yield buf.getvalue().replace(out, "OUT")
            if argv[0] == "build":
                yield Path(out).read_text(encoding="utf-8")


GROUPS = {
    "classify": (_classify_lines, "be45a0d61b653ccb154d08b069ae0722b88602a3c76bd9ac9ea414cffdd7f6a7"),
    "is_unitary": (_unitary_lines, "42d854328378d7745f3b671cdfa0fd89bbe796aa9f2bf11946cd852fc312f5ea"),
    "coefficients": (_coefficient_lines, "0cc4c5976fe7784c382d5ad226622957408c9f31990e2251ef92ddbb7025deb5"),
    "enumerate_dual": (_enumerate_lines, "d660088619a6fbc9aadd1f4d8ff5989c5fc669f288c47c436ab15a1fc6b9e897"),
    "module_documents": (_document_lines, "7b61fab860b643c007fbdbc490789fc0441998df39214e01961906c200a802c1"),
    "reports": (_report_lines, "cd17901d0376595a3617c36643da5fe4804663e4ba89a035caec3d47f8be3c84"),
    "failing_reports": (_failing_report_lines, "6c809234376eed213d957cce29aae9d1b101a5896ab722f46ca36df6002e6b35"),
    "cli": (_cli_lines, "4943bf71eeb2eff56df6963587ad5de0a1eeff549451d719fd7f60535746b22e"),
}


def digest(group: str) -> tuple[str, list[str]]:
    lines = list(GROUPS[group][0]())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), lines


@pytest.mark.parametrize("group", list(GROUPS))
def test_golden_corpus(group):
    got, lines = digest(group)
    assert got == GROUPS[group][1], f"{group} output changed; first lines: {lines[:3]}"


if __name__ == "__main__":
    for name in GROUPS:
        sha, lines = digest(name)
        print(name, sha, len(lines))
