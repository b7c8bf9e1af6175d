import os
import pkgutil
import re
import subprocess
import sys
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
    """The su21dual modules a fresh `python -X importtime *args` loads."""
    env = dict(os.environ, PYTHONPATH=str(Path(su21dual.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = re.findall(r"^import time:.*\|\s*(\S+)$", proc.stderr, re.MULTILINE)
    return {name for name in names if name.split(".")[0] == "su21dual"}


def test_processes_load_only_the_modules_they_call(tmp_path):
    """A bare import loads no module, and build and verify (of a document
    with norms) load neither the classification nor the rank-one code."""
    assert _loaded_modules(tmp_path, "-c", "import su21dual") == {"su21dual"}
    needed = {f"su21dual.{name}" for name in
              ("algebra", "builder", "coefficients", "errors", "lattice", "scalars", "unitarity", "verify")}
    build = ["build", "--c", "-1", "--t", "0", "--max-n", "3", "--out", "mod.json"]
    for argv in (build, ["verify", "mod.json"]):
        assert _loaded_modules(tmp_path, "-m", "su21dual.cli", *argv) - {"su21dual"} == needed, argv
