import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import su21dual
from su21dual.cli import main

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_classify_vertex(capsys):
    code, doc = run_json(capsys, "classify", "--r", "4", "--s", "3")
    assert code == 0
    assert doc["label"] == "W(4,3)"
    assert doc["unitary"] is True


def test_classify_cone_threshold(capsys):
    code, doc = run_json(capsys, "classify", "--c", "-1/2", "--t", "1")
    assert code == 0
    assert doc["label"] == "U(2)"


def test_classify_roundtrip_through_label(capsys):
    code, doc = run_json(capsys, "classify", "--c", "-7/3", "--t", "2")
    assert code == 0
    code2, doc2 = run_json(capsys, "spectrum", "--family", doc["label"], "--max-n", "4")
    assert code2 == 0
    assert doc2["family"] == doc["label"]


def test_build_verify_cycle(tmp_path, capsys):
    out_file = tmp_path / "mod.json"
    code, doc = run_json(
        capsys, "build", "--c", "-1", "--t", "0", "--max-n", "8", "--out", str(out_file)
    )
    assert code == 0
    assert doc["basis_size"] == sum(n * n for n in range(1, 9))
    saved = json.loads(out_file.read_text())
    assert "norms" in saved  # unitary module gets its inner product attached
    code, report = run_json(capsys, "verify", str(out_file))
    assert code == 0
    assert report["verified"] is True


def test_verify_rejects_tampered_module(tmp_path, capsys):
    out_file = tmp_path / "mod.json"
    run_json(capsys, "build", "--c", "-1", "--t", "0", "--max-n", "5", "--out", str(out_file))
    doc = json.loads(out_file.read_text())
    entry = doc["action"]["X_alphabeta"][0]
    entry["terms"][0][1] = "17"
    out_file.write_text(json.dumps(doc))
    code, report = run_json(capsys, "verify", str(out_file))
    assert code == 1
    assert report["verified"] is False


def test_verify_rejects_one_changed_occurrence_of_a_shared_value(tmp_path, capsys):
    """One of the hundreds of "-1" entries becomes "17": the parse shares
    one value per distinct string pair, so the change must reach that one
    row only, and the replay must see it."""
    out_file = tmp_path / "mod.json"
    run_json(capsys, "build", "--c", "-1", "--t", "0", "--max-n", "12", "--out", str(out_file))
    doc = json.loads(out_file.read_text())
    values = [term[1:] for rows in doc["action"].values() for e in rows for term in e["terms"]]
    assert values.count(["-1", "0"]) >= 200
    (entry,) = [e for e in doc["action"]["X_alpha"] if e["from"] == [5, 0, 2]]
    assert entry["terms"] == [[[5, 0, 1], "-1", "0"]]
    entry["terms"][0][1] = "17"
    out_file.write_text(json.dumps(doc))
    code, report = run_json(capsys, "verify", str(out_file))
    assert code == 1
    assert report["verified"] is False


def _norms_document(tmp_path, capsys):
    """The V(-1,0) document at max_n = 6, parsed, and its path."""
    out_file = tmp_path / "mod.json"
    run_json(capsys, "build", "--c", "-1", "--t", "0", "--max-n", "6", "--out", str(out_file))
    return json.loads(out_file.read_text()), out_file


def test_verify_rejects_tampered_norms(tmp_path, capsys):
    """One squared norm changed from 1/4 to 5: the action still verifies,
    but the stored norms are no longer those of the module."""
    doc, out_file = _norms_document(tmp_path, capsys)
    (entry,) = [e for e in doc["norms"]["base"] if e[0] == [2, -3]]
    assert entry[1] == "1/4"
    entry[1] = "5"
    out_file.write_text(json.dumps(doc))
    assert main(["verify", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "norms" in captured.err


def test_verify_accepts_document_without_norms(tmp_path, capsys):
    doc, out_file = _norms_document(tmp_path, capsys)
    del doc["norms"]
    out_file.write_text(json.dumps(doc))
    code, report = run_json(capsys, "verify", str(out_file))
    assert code == 0
    assert report["verified"] is True


def test_verify_rejects_row_target_outside_basis(tmp_path, capsys):
    out_file = tmp_path / "mod.json"
    run_json(capsys, "build", "--c", "-1", "--t", "0", "--max-n", "6", "--out", str(out_file))
    doc = json.loads(out_file.read_text())
    (entry,) = [e for e in doc["action"]["X_alphabeta"] if e["from"] == [2, 3, 1]]
    entry["terms"][0][0] = [3, 12, 1]
    out_file.write_text(json.dumps(doc))
    assert main(["verify", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "BasisIndex(n=3, m=12, k=1)" in captured.err


def _drop_params_kind(text):
    doc = json.loads(text)
    del doc["params"]["kind"]
    return json.dumps(doc).encode()


def _zero_denominator_term(text):
    doc = json.loads(text)
    doc["action"]["X_alphabeta"][0]["terms"][0][1] = "1/0"
    return json.dumps(doc).encode()


def _set_field(*path, value):
    def corrupt(text):
        doc = json.loads(text)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return json.dumps(doc).encode()

    return corrupt


def _set_action_index(value, *, target=False):
    """Replace the source index, or the first term's target, of the first
    X_alphabeta row: [1, 0, 1] -> [2, 3, 1] in V(-1, 0)."""

    def corrupt(text):
        doc = json.loads(text)
        entry = doc["action"]["X_alphabeta"][0]
        assert entry["from"] == [1, 0, 1] and entry["terms"][0][0] == [2, 3, 1]
        if target:
            entry["terms"][0][0] = value
        else:
            entry["from"] = value
        return json.dumps(doc).encode()

    return corrupt


def _edit_x_alphabeta(edit):
    def corrupt(text):
        doc = json.loads(text)
        edit(doc["action"]["X_alphabeta"])
        return json.dumps(doc).encode()

    return corrupt


def _repeat_first_row(rows):
    """A copy of the first row, with the value 17, placed before it."""
    row = json.loads(json.dumps(rows[0]))
    row["terms"][0][1] = "17"
    rows.insert(0, row)


def _edit_basis(edit):
    def corrupt(text):
        doc = json.loads(text)
        edit(doc["basis"])
        return json.dumps(doc).encode()

    return corrupt


# The documents the malformed cases start from: V(-1,0), and W(4,3) for a
# case that a cone document would reject for another reason (no params.r).
# A [2, 3, 1] row index is already read in H_alpha before the first
# X_alphabeta row, and [1, 0, 1] is in the basis, so an index memo must not
# let True or 2.0 stand for the int they equal.
_CONE = ("--c", "-1", "--t", "0", "--max-n", "3")
_CONE6 = ("--c", "-1", "--t", "0", "--max-n", "6")
_VERTEX = ("--r", "4", "--s", "3", "--max-n", "5")


@pytest.mark.parametrize(
    "source, corrupt",
    [
        (_CONE, lambda text: b"{not json"),
        (_CONE, lambda text: b"\xff{}"),
        (_CONE, _drop_params_kind),
        (_CONE, _zero_denominator_term),
        (_CONE, _set_field("params", "t", value="0")),
        (_CONE, _set_field("max_n", value="6")),
        (_CONE, _set_field("params", "t", value=True)),
        (_CONE, _set_action_index([1, 0, True])),
        (_CONE, _set_action_index([2, 3, True], target=True)),
        (_CONE, _set_action_index([2.0, 3, 1], target=True)),
        (_CONE, _set_action_index([1.0, 0, 1])),
        (_CONE, _set_action_index(["1", 0, 1])),
        (_CONE, _set_field("support", "kind", value="to_json")),
        (_CONE, _set_field("support", "kind", value="__class__")),
        (_CONE, _set_field("support", value={"kind": "vertex_cone", "params": {"r": 3, "s": 0}})),
        (_VERTEX, _set_field("params", "kind", value="bogus")),
        (_CONE6, _set_field("support", value={
            "kind": "box", "params": {"vertex": [1, 0], "p_max": None, "q_max": None},
        })),
        (_CONE6, _edit_basis(lambda basis: basis.pop())),
        (_CONE6, _edit_basis(lambda basis: basis.append({"n": 6, "m": 0, "k": 7}))),
        (_CONE6, _edit_x_alphabeta(_repeat_first_row)),
        (_CONE6, _edit_x_alphabeta(
            lambda rows: rows.append({"from": [9, 9, 1], "terms": [[[10, 12, 1], "5", "0"]]})
        )),
    ],
    ids=[
        "invalid_json", "not_utf8", "no_params_kind", "zero_denominator", "string_t",
        "string_max_n", "bool_t", "bool_from_index", "bool_target_index",
        "float_target_index", "float_from_index", "string_from_index",
        "kind_to_json", "kind_dunder_class", "support_off_the_lowest_ktype",
        "vertex_params_kind_bogus", "support_not_in_canonical_form",
        "basis_without_last_entry", "basis_with_extra_entry",
        "row_from_one_index_twice", "row_from_outside_the_basis",
    ],
)
def test_verify_rejects_malformed_document(tmp_path, capsys, source, corrupt):
    out_file = tmp_path / "mod.json"
    run_json(capsys, "build", *source, "--out", str(out_file))
    out_file.write_bytes(corrupt(out_file.read_text()))
    assert main(["verify", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--c", "1/0", "--t", "0"),
        ("sl2", "classify", "--lambda", "1/0", "--parity", "even"),
    ],
)
def test_zero_denominator_parameter_exits_2(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: zero denominator: '1/0'\n"


def test_unitary_command(capsys):
    code, doc = run_json(capsys, "unitary", "--c", "-1", "--t", "0", "--max-n", "20")
    assert code == 0 and doc["status"] == "unitary"
    code, doc = run_json(capsys, "unitary", "--r", "2", "--s", "5")
    assert code == 0 and doc["status"] == "nonunitary"


def test_unitary_rejects_negative_max_n(capsys):
    assert main(["unitary", "--c=-3", "--t", "0", "--max-n", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_spectrum_json_matches_members(capsys):
    code, doc = run_json(capsys, "spectrum", "--family", "U(2)", "--max-n", "5")
    assert code == 0
    assert doc["ktypes"] == [[1, 2], [2, 5], [3, 8], [4, 11], [5, 14]]


@pytest.mark.parametrize(
    "requested, echoed",
    [
        ("Z(2)", "Z(2)"),
        ("V(c<-1,2t=4)", "V(c<-1,2t=4)"),
        (" V(c<−1,2t=−4) ", "V(c<-1,2t=-4)"),
    ],
)
def test_spectrum_echoes_requested_family(capsys, requested, echoed):
    code, doc = run_json(capsys, "spectrum", "--family", requested, "--max-n", "3")
    assert code == 0
    assert doc["family"] == echoed


def test_closed_stdout_exits_141_without_error():
    env = dict(os.environ, PYTHONPATH=str(Path(su21dual.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "su21dual.cli", "enumerate", "--t-max", "60", "--r-max", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(1) == b"["
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: flushing raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def fileno(self):
        return self._fd

    def flush(self):
        raise BrokenPipeError


@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, collecting):
    """main pauses the cyclic collector while a subcommand runs; on every
    exit path the caller's setting, on or off, comes back."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    assert main(["build", "--c", "-1", "--t", "0", "--max-n", "5", "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    doc["action"]["X_alphabeta"][0]["terms"][0][1] = "17"
    bad.write_text(json.dumps(doc))
    fd = os.open(os.devnull, os.O_WRONLY)
    cases = [
        (["verify", str(good)], 0),
        (["verify", str(bad)], 1),
        (["verify", str(tmp_path / "missing.json")], 2),
        (["classify", "--r", "4", "--s", "3"], 141),
    ]
    was_collecting = gc.isenabled()
    try:
        for argv, code in cases:
            if code == 141:
                monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            gc.enable() if collecting else gc.disable()
            assert main(argv) == code
            assert gc.isenabled() is collecting, argv
    finally:
        gc.enable() if was_collecting else gc.disable()
        os.close(fd)


def _capped_cli(*argv) -> subprocess.CompletedProcess:
    """Run the CLI as a child process with 512 MB of address space and 60 s,
    so that a truncation left unbounded fails instead of filling memory."""
    env = dict(os.environ, PYTHONPATH=str(Path(su21dual.__file__).parents[1]))
    cap = 512 * 2**20
    return subprocess.run(
        [sys.executable, "-m", "su21dual.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


@pytest.mark.parametrize("command", ["build", "unitary", "verify", "enumerate"])
def test_max_n_above_limit_exits_2(capsys, tmp_path, command):
    """A huge max_n is refused with one error line, whether it is a flag or
    the max_n of a module document; V(-2,0) is unitary, so is_unitary
    would replay every coordinate below it.  A huge enumerate bound is
    refused the same way."""
    out = str(tmp_path / "mod.json")
    name = "max_n"
    if command == "enumerate":
        name = "t_max"
        argv = ("enumerate", "--t-max", "100000", "--r-max", "1")
    elif command == "verify":
        assert main(["build", "--c", "-2", "--t", "0", "--max-n", "4", "--out", out]) == 0
        capsys.readouterr()
        doc = json.loads(Path(out).read_text(encoding="utf-8"))
        doc["max_n"] = 100000
        Path(out).write_text(json.dumps(doc), encoding="utf-8")
        argv = ("verify", out)
    else:
        argv = (command, "--c", "-2", "--t", "0", "--max-n", "100000")
        argv += ("--out", out) if command == "build" else ()
    proc = _capped_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(rf"error: {name} must be <= \d+, got 100000\n", proc.stderr)


GOLDEN_TEXT = """\
n=  4 |         ●
n=  3 |      ●
n=  2 |   ●
n=  1 |●
      +----------
       m=2..11
"""

GOLDEN_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="184" height="112">
<circle cx="92" cy="44" r="4" fill="#d62728"><title>V(4,3)</title></circle>
<circle cx="56" cy="32" r="4" fill="#d62728"><title>V(5,0)</title></circle>
<circle cx="128" cy="32" r="4" fill="#d62728"><title>V(5,6)</title></circle>
<circle cx="20" cy="20" r="4" fill="#d62728"><title>V(6,-3)</title></circle>
<circle cx="92" cy="20" r="4" fill="#1f77b4"><title>V(6,3)</title></circle>
<circle cx="164" cy="20" r="4" fill="#d62728"><title>V(6,9)</title></circle>
<text x="20" y="108" font-size="10">m: -3..9, n: 1..6</text>
</svg>
"""


def test_spectrum_text_golden(capsys):
    code, out = run(capsys, "spectrum", "--family", "U(2)", "--max-n", "4", "--format", "text")
    assert code == 0
    assert out == GOLDEN_TEXT


def test_spectrum_svg_golden(capsys):
    code, out = run(capsys, "spectrum", "--family", "W(4,3)", "--max-n", "6", "--format", "svg")
    assert code == 0
    assert out == GOLDEN_SVG


def test_enumerate(capsys):
    code, docs = run_json(capsys, "enumerate", "--t-max", "1", "--r-max", "2")
    assert code == 0
    labels = [d["label"] for d in docs]
    assert "U(0)" in labels and "W(2,1)" in labels
    assert len(labels) == len(set(labels))


def test_sl2_classify(capsys):
    code, doc = run_json(capsys, "sl2", "classify", "--lambda", "3/2*i", "--parity", "even")
    assert code == 0 and doc["kind"] == "principal"
    code, doc = run_json(capsys, "sl2", "classify", "--lambda", "1/2", "--parity", "even")
    assert doc["kind"] == "complementary"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--r", "1", "--s", "2"),  # r too small
        ("classify", "--r", "2", "--s", "2"),  # parity violation
        ("classify", "--c", "nonsense", "--t", "0"),
        ("classify",),  # no parameters at all
        ("build", "--c", "-1", "--t", "0", "--max-n", "0", "--out", "/tmp/x.json"),
        ("spectrum", "--family", "Q(1)", "--max-n", "3"),
        ("frobnicate",),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code = main(list(argv))
    capsys.readouterr()
    assert code == 2
