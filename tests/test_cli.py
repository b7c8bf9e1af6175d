import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import su21dual
from su21dual import ConeParams, VertexParams, build, build_norms, classify, document_norms
from su21dual import builder, cli, unitarity
from su21dual.builder import module_from_json_str, module_to_json_str
from su21dual.cli import main
from su21dual.scalars import GaussianRational, parse_rational, render_rational
from su21dual.verify import check_coefficient_relations, check_commutators

from oracles import cone_params, flip_a_row, small, vertex_params

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
    assert main(["verify", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the stored action differs from the action of params\n"


@pytest.mark.parametrize("max_n", [5, 9])
def test_verify_exits_1_when_the_module_build_makes_fails_a_check(tmp_path, capsys, monkeypatch, max_n):
    """With a wrong row in build's table, build writes a document that is
    build's own, and verify replays the module build makes: it fails the
    replay, exit 1 with the failures in the report, whether that module is
    replayed in full (max_n = 5) or only in its lowest layers (9)."""
    out_file = tmp_path / "mod.json"
    flip_a_row(monkeypatch, 8)  # X_beta's downward row
    run_json(capsys, "build", "--c", "-1", "--t", "0", "--max-n", str(max_n), "--out", str(out_file))
    code, report = run_json(capsys, "verify", str(out_file))
    assert code == 1
    assert report["verified"] is False and report["failures"]


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


@pytest.mark.parametrize("flags, params, max_n", [
    (("--c", "1", "--t", "0"), ConeParams(F(1), 0), 1),
    (("--r", "2", "--s", "5"), VertexParams(2, 5), 2),
    (("--c", "-15/2", "--t", "-8"), ConeParams(F(-15, 2), -8), 3),
], ids=["V(c=1,2t=0)", "W(2,5)", "V(c=-15/2,2t=-16)"])
def test_verify_rejects_norms_on_a_module_that_is_not_unitary(tmp_path, capsys, flags, params,
                                                              max_n):
    """build_norms finds every squared norm below max_n positive on these
    modules, but the certificate calls each of them not unitary: build
    writes no norms, and build's document with that table appended does
    not verify."""
    assert not classify(params).unitary
    path = tmp_path / "mod.json"
    assert run(capsys, "build", *flags, "--max-n", str(max_n), "--out", str(path))[0] == 0
    text = path.read_text(encoding="utf-8")
    assert '"norms"' not in text
    mod = build(params, max_n)
    path.write_text(text[:-1] + builder._tail(build_norms(mod)), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the module of params is not unitary, so its document has no norms\n"
    )


def test_build_runs_no_finite_replay(tmp_path, capsys, monkeypatch):
    """build asks the certificate alone whether the document gets norms:
    neither is_unitary nor the products of its replay run."""

    def refuse(*args, **kwargs):
        pytest.fail("build ran the finite replay")

    monkeypatch.setattr(unitarity, "is_unitary", refuse)
    monkeypatch.setattr(unitarity, "products", refuse)
    out_file = tmp_path / "mod.json"
    code, _ = run(capsys, "build", "--c", "-1", "--t", "0", "--max-n", "6", "--out", str(out_file))
    assert code == 0
    assert "norms" in json.loads(out_file.read_text())


@pytest.mark.parametrize(
    "c, t, max_n, edit, message",
    [
        # Both full cones, and the replays hold for either action.
        ("-3", "0", "6", lambda doc: doc["params"]["c"].update(re="-1"),
         "the stored action differs from the action of params"),
        # The wall at q = 2 moved to q = 3, which max_n = 3 does not reach.
        ("-5", "6", "3", lambda doc: doc["support"]["params"].update(l=3),
         "the stored support differs from the support of params"),
        ("-1", "0", "4", lambda doc: doc["params"]["c"].update(re="-2/2"),
         "malformed module document: params and max_n are not in canonical form"),
        ("-1", "0", "4", lambda doc: doc["basis"][0].update(k=2),
         "malformed module document: basis is not the basis of the support up to max_n"),
        ("-1", "0", "4", lambda doc: doc["norms"]["base"][-1].__setitem__(1, "5"),
         "the stored norms differ from the invariant form of the module"),
        ("-1", "0", "4", lambda doc: "}",
         r"malformed module document: Extra data: line \d+ column \d+ \(char \d+\)"),
    ],
    ids=["rows_of_V(-3,0)_under_V(-1,0)", "strip_wall_moved", "params_not_canonical",
         "basis_entry_changed", "norm_changed", "bytes_after_the_closing_brace"],
)
def test_verify_rejects_a_module_build_does_not_make(tmp_path, capsys, c, t, max_n, edit, message):
    """A document that is not what build writes of its params and max_n,
    in compact form and with indent=1: verify exits 2 with one line that
    names the first part that differs, the same in both layouts.  The
    first two pass every replay and relation."""
    out_file = tmp_path / "mod.json"
    run_json(capsys, "build", "--c", c, "--t", t, "--max-n", max_n, "--out", str(out_file))
    doc = json.loads(out_file.read_text())
    suffix = edit(doc) or ""
    for layout in ({"separators": (",", ":")}, {"indent": 1}):
        out_file.write_text(json.dumps(doc, **layout) + suffix)
        assert main(["verify", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {message}\n", captured.err), (layout, captured.err)


def _leaves(doc, path=(), out=None) -> list:
    """The paths of the int and rational string leaves of a document."""
    out = [] if out is None else out
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            _leaves(value, path + (key,), out)
    elif type(doc) is int or isinstance(doc, str) and re.fullmatch(r"-?\d+(/\d+)?", doc):
        out.append(path)
    return out


def _build_text(params, max_n: int) -> str:
    """The document `build` writes for params and max_n."""
    mod = build(params, max_n)
    return module_to_json_str(mod, norms=document_norms(mod))


def _verify(path) -> tuple:
    """The exit code, stdout and stderr of verify of path."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(cone_params, vertex_params), st.integers(1, 5), st.data())
def test_verify_rejects_any_single_leaf_change(tmp_path_factory, params, max_n, data):
    """A document that build writes, norms included where the module is
    unitary, with one int or rational leaf changed to another value, does
    not verify: verify exits 1 or 2.  The one exception is a document
    build writes itself, as a finite support makes at a larger max_n.
    Each document is written twice: with json.dumps's spaces, which verify
    parses, and in build's compact form, which verify compares byte for
    byte with build's document; both print the same and exit the same."""
    path = tmp_path_factory.getbasetemp() / "leaf.json"
    text = _build_text(params, max(max_n, params.vertex.n))
    doc = json.loads(text)
    assert json.dumps(doc, separators=(",", ":")) == text
    leaves = _leaves(doc)
    *keys, last = leaves[data.draw(st.integers(0, len(leaves) - 1), label="leaf")]
    parent = doc
    for key in keys:
        parent = parent[key]
    if type(parent[last]) is int:
        parent[last] += data.draw(st.integers(-3, 3).filter(bool), label="change")
    else:
        parent[last] = render_rational(parse_rational(parent[last]) + data.draw(small.filter(bool)))
    path.write_text(json.dumps(doc))
    result = _verify(path)
    path.write_text(json.dumps(doc, separators=(",", ":")))
    assert _verify(path) == result, (keys, last)
    if result[0] == 0:
        mod = module_from_json_str(path.read_text())
        assert doc == json.loads(_build_text(mod.params, mod.max_n)), (keys, last)
    else:
        assert result[0] in (1, 2), (keys, last)


_loads = json.loads


def _refuse_parse(text, *args, **kwargs):
    """json.loads of anything but a header: verify read a whole document."""
    if '"action":' in text:
        pytest.fail("verify parsed a document that build wrote")
    return _loads(text, *args, **kwargs)


@pytest.mark.parametrize("params", [
    ConeParams(F(-1), 0),  # full cones: unitary, then not
    ConeParams(F(3), 1),
    ConeParams(GaussianRational(F(1), F(1)), 2),  # nonreal c
    ConeParams(GaussianRational(F(-1, 2), F(3)), -1),
    ConeParams(F(-5, 2), -4),  # unitary strip, p_max = 1
    ConeParams(F(13, 2), -5),  # box, p_max = 6 and q_max = 1
    VertexParams(4, 3),
], ids=repr)
def test_verify_of_a_build_document_takes_the_canonical_path(tmp_path, monkeypatch, params):
    """verify of the one document build writes, of the same document
    with a final newline, and of its variant without norms (which verify
    accepts of a unitary module too), holds build's module without
    parsing the document, and prints and exits as verify of the same
    document written with indent=1, which it reads in compact form; its
    checked count is the in-process count."""
    path = tmp_path / "mod.json"
    for max_n in range(params.vertex.n, 9):
        mod = build(params, max_n)
        text = module_to_json_str(mod, norms=document_norms(mod))
        report = check_commutators(mod).merge(check_coefficient_relations(params, max_n, mod.region))
        for text in dict.fromkeys([text, text + "\n", module_to_json_str(mod)]):
            path.write_text(text)
            with monkeypatch.context() as patch:
                patch.setattr(json, "loads", _refuse_parse)
                result = _verify(path)
            assert result[0] == 0 and json.loads(result[1]) == report.to_json(), (max_n, result)
            path.write_text(json.dumps(json.loads(text), indent=1))
            assert _verify(path) == result, max_n


def test_short_document_claiming_a_large_max_n_builds_nothing(tmp_path, capsys, monkeypatch):
    """A header that build writes for V(-1,0) at max_n = 100, then an empty
    basis and action: verify rejects the basis without building."""
    params = ConeParams(F(-1), 0)
    mod = build(params, 1)
    text = module_to_json_str(mod)
    head = text[:text.index(',"basis":[')].replace('"max_n":1,', '"max_n":100,')
    assert "".join(islice(builder._head_parts(params, 100, mod.region), 2)) == head + ',"basis":['
    path = tmp_path / "mod.json"
    path.write_text(head + ',"basis":[],"action":{}}')
    monkeypatch.setattr(builder, "build", lambda *args: pytest.fail("verify built a module"))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: malformed module document: basis is not the basis of the support up to max_n\n"
    )


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
    assert captured.err == "error: the stored action differs from the action of params\n"


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
        (_CONE, lambda text: b"[" * 100000 + b"]" * 100000),
        (_CONE, _set_field("action", value=[])),
        (_CONE, _set_field("action", value="x")),
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
        "invalid_json", "not_utf8", "nested_too_deeply", "action_list", "action_string",
        "no_params_kind", "zero_denominator", "string_t",
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


# Help, a missing required option, an unknown command, a missing path.
PARSER_CASES = [["--help"], ["build", "--help"], ["sl2", "classify", "--help"],
                ["build", "--c", "-1", "--t", "0", "--max-n", "3"], ["frobnicate"], ["verify"]]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_the_parser_of_one_command_answers_as_the_full_parser(capsys, monkeypatch, argv):
    """main builds only the subparser that argv[0] names, and every
    subparser for --help or an unknown command; either way it writes
    what the parser with every subparser writes, and exits as it does."""
    ours = (main(list(argv)), *capsys.readouterr())
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    assert (main(list(argv)), *capsys.readouterr()) == ours
    assert ours[0] in (0, 2) and any(ours[1:])
    built = list(next(a for a in full(argv[0])._actions if a.dest == "command").choices)
    assert built == ([argv[0]] if argv[0] in cli._COMMANDS else list(cli._COMMANDS))


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
    exit path the caller's setting, on or off, comes back.  The exit 1 is
    verify of a document that build writes with a wrong row in its table."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    assert main(["build", "--c", "-1", "--t", "0", "--max-n", "5", "--out", str(good)]) == 0
    with monkeypatch.context() as patch:
        flip_a_row(patch, 8)
        assert main(["build", "--c", "-1", "--t", "0", "--max-n", "5", "--out", str(bad)]) == 0
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
            if code == 1:
                flip_a_row(monkeypatch, 8)
            if code == 141:
                monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            gc.enable() if collecting else gc.disable()
            assert main(argv) == code
            assert gc.isenabled() is collecting, argv
    finally:
        gc.enable() if was_collecting else gc.disable()
        os.close(fd)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_leaves_no_open_descriptor(monkeypatch):
    """Each exit 141 points stdout at the null device and closes the
    descriptor it opened for that, so repeated calls in one process do not
    grow its open descriptors."""
    fd = os.open(os.devnull, os.O_WRONLY)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
    try:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            assert main(["classify", "--r", "4", "--s", "3"]) == 141
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
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
    the max_n of a module document; V(-2,0) is unitary, so the unitary
    command would replay every coordinate below it.  A huge enumerate bound is
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


# More digits than Python converts from text (sys.get_int_max_str_digits).
LONG = "1" * 4400

# The error for a number with more digits than Python converts to text.
TOO_LONG = f"integer too long to write: more than {sys.get_int_max_str_digits()} digits"

# Usage errors whose whole message test_usage_errors_exit_2 checks.
USAGE_MESSAGES = {
    ("classify", "--c", "1", "--t", "0", "--r", "3", "--s", "2"):
        "give either --c/--t or --r/--s, not both",
    ("classify", "--c", "1"): "cone parameters need both --c and --t",
    ("classify", "--r", "3"): "vertex parameters need both --r and --s",
    ("enumerate", "--t-max", "-1", "--r-max", "0"): "bounds must be nonnegative",
    ("spectrum", "--family", "V(c=1,2t=3)", "--max-n", "3"): "2t must be even, got 3",
    # A witness of V(1/99…9, -20) at K-type dimension 10, whose product has
    # a denominator of 4,301 digits.
    **{(command, "--c", "1/" + "9" * 4299, "--t", "-20"): TOO_LONG
       for command in ("classify", "unitary")},
}

# A 500-digit denominator: the squared norms of this unitary cone at
# max_n 10 hold integers longer than Python converts to text, those at 8 not.
HUGE_NORM_C = "-1/" + "7" * 500


def test_build_of_norms_too_long_to_write_exits_2(tmp_path, capsys):
    out = tmp_path / "mod.json"
    argv = ["build", "--c", HUGE_NORM_C, "--t", "0", "--out", str(out)]
    assert main(argv + ["--max-n", "8"]) == 0
    out.unlink()
    capsys.readouterr()
    code = main(argv + ["--max-n", "10"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {TOO_LONG}\n"
    assert not out.exists()


def test_verify_of_norms_too_long_to_write_exits_2(tmp_path, capsys):
    """verify renders the norms of the module to compare them with the
    stored ones, so any norms section meets the same limit."""
    mod = build(ConeParams(parse_rational(HUGE_NORM_C), 0), 10)
    path = tmp_path / "mod.json"
    path.write_text(module_to_json_str(mod)[:-1] + ',"norms":{}}', encoding="utf-8")
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {TOO_LONG}\n"


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
        ("classify", "--c", LONG, "--t", "0"),
        ("classify", "--c", "1/" + LONG, "--t", "0"),
        ("sl2", "classify", "--lambda", LONG, "--parity", "odd"),
        ("spectrum", "--family", f"W({LONG},2)", "--max-n", "3"),
        ("spectrum", "--family", f"U(l={LONG},2t=4)", "--max-n", "3"),
        ("spectrum", "--family", f"V(c=1,2t={LONG})", "--max-n", "3"),
        *USAGE_MESSAGES,
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error: ") == 1
    if argv in USAGE_MESSAGES:
        assert captured.err == f"error: {USAGE_MESSAGES[argv]}\n"
