import ast
import os
import pkgutil
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import su21dual


def test_every_exported_name_resolves_once():
    """A name left in __all__ after its definition moved away fails here."""
    names = su21dual.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(su21dual, name)] == []
    assert not hasattr(su21dual, "no_such_name")


def test_dir_lists_every_export():
    assert set(su21dual.__all__) <= set(dir(su21dual))


def test_no_export_shares_a_module_name():
    """Importing a submodule binds its name on the package, so an export of
    the same name would turn into the module once that submodule loads."""
    modules = {info.name for info in pkgutil.iter_modules(su21dual.__path__)}
    assert "dual" in modules
    assert modules.isdisjoint(su21dual.__all__)
    from su21dual.dual import ENUMERATE_LIMIT  # noqa: F401
    from su21dual import classify

    assert callable(classify) and classify.__module__ == "su21dual.dual"


def _loaded_modules(tmp_path, *args) -> set[str]:
    """The modules a fresh `python -X importtime *args` loads."""
    env = dict(os.environ, PYTHONPATH=str(Path(su21dual.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(re.findall(r"^import time:.*\|\s*(\S+)$", proc.stderr, re.MULTILINE))


def _package(names: set[str]) -> set[str]:
    return {name for name in names if name.split(".")[0] == "su21dual"}


def test_processes_load_only_the_modules_they_call(tmp_path):
    """A bare import loads no module; build loads the construction and the
    norms but not the replays, verify (of a document with norms) adds the
    replays, verify of one without norms does not load the norms, and
    none of them loads the classification or the rank-one code.
    classify and unitary load neither the algebra, the builder nor the
    replays.  No subcommand that a benchmark or a script runs often loads
    dataclasses or inspect, unless the interpreter itself does."""
    assert _package(_loaded_modules(tmp_path, "-c", "import su21dual")) == {"su21dual"}

    def package(*names):
        return {f"su21dual.{name}" for name in names}

    built = package("algebra", "builder", "coefficients", "errors", "lattice", "scalars", "unitarity")
    expected = {"build": built, "verify": built | package("verify")}
    heavy = {"dataclasses", "inspect"} - _loaded_modules(tmp_path, "-c", "pass")
    build = ["build", "--c", "-1", "--t", "0", "--max-n", "3", "--out", "mod.json"]
    plain = ["build", "--c", "3", "--t", "1", "--max-n", "3", "--out", "plain.json"]
    for argv in (build, ["verify", "mod.json"], plain, ["verify", "plain.json"],
                 ["classify", "--c", "-1", "--t", "0"],
                 ["unitary", "--c", "-1", "--t", "0"],
                 ["sl2", "classify", "--lambda", "1/2", "--parity", "even"]):
        loaded = _loaded_modules(tmp_path, "-m", "su21dual.cli", *argv)
        if argv == ["verify", "plain.json"]:
            # Without norms, verify has no use for the invariant form.
            assert _package(loaded) - {"su21dual"} == expected["verify"] - package("unitarity")
        elif argv[0] in expected:
            assert _package(loaded) - {"su21dual"} == expected[argv[0]], argv
        else:
            assert loaded.isdisjoint(package("algebra", "builder", "verify")), argv
        assert loaded.isdisjoint(heavy), argv


def test_every_module_stays_below_the_parser_token_block():
    """Compiling from source, the parser's token array doubles past 4096
    tokens, which raises a small process's peak memory by about 0.3 MB.
    Tokens are counted as the parser gets them: no encoding, comment or
    non-logical newline token."""
    skipped = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL}
    sizes = {}
    for path in sorted(Path(su21dual.__file__).parent.glob("*.py")):
        with path.open("rb") as f:
            tokens = tokenize.tokenize(f.readline)
            sizes[path.name] = sum(1 for tok in tokens if tok.type not in skipped)
    assert "verify.py" in sizes
    assert {name: size for name, size in sizes.items() if size >= 4096} == {}


def _importers(module: str) -> list[str]:
    """file:line of every import of the top-level module in the package."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(su21dual.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == module for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module
    ]


def test_no_package_module_imports_dataclasses():
    """The value types are NamedTuples and slotted classes: importing
    dataclasses costs a process inspect, ast, dis and tokenize."""
    assert _importers("dataclasses") == []


def test_no_package_module_imports_enum():
    """Generator, Parity and Sl2Kind hold the strings the package writes:
    an enum would add a .value at every output and a hash written in
    Python to every lookup keyed by a name."""
    assert _importers("enum") == []


def test_no_package_module_reads_the_rows_view():
    """The package reads the integer fields, the one store of the action;
    TruncatedModule.rows is a view for the tests and the benchmark."""
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(su21dual.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    ]
    assert readers == []
