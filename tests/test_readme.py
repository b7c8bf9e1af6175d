"""The commands of README's "Command line" block, run as written."""

import json
import re
import shlex
from pathlib import Path

from su21dual.cli import main

README = Path(__file__).parents[1] / "README.md"


def _commands() -> list[list[str]]:
    """The argv of each `su21dual ...` line of the first sh block under
    "## Command line", without its comment and its `> file` redirect."""
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["su21dual"]:
            if ">" in words:
                del words[words.index(">"):words.index(">") + 2]
            commands.append(words[1:])
    return commands


def test_every_readme_command_runs(tmp_path, monkeypatch, capsys):
    """Each command exits 0, in order (verify reads the file build wrote),
    and the two classify lines say what their comments claim."""
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for argv in _commands():
        assert main(argv) == 0, argv
        outputs[" ".join(argv)] = capsys.readouterr().out
    assert json.loads(outputs["classify --c -1/2 --t 1"])["label"] == "U(2)"
    w43 = json.loads(outputs["classify --r 4 --s 3"])
    assert (w43["label"], w43["unitary"]) == ("W(4,3)", True)
