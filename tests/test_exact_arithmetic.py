"""The package computes in exact arithmetic only: its sources hold no float
or complex literal, never name the float type, and call no math function
outside the integer-valued ones."""

import ast
from pathlib import Path

import su21dual

INTEGER_MATH = {"isqrt", "comb", "lcm", "gcd", "factorial"}
SOURCES = sorted(Path(su21dual.__file__).parent.glob("*.py"))


def inexact_uses(source: str) -> list[str]:
    """One line per float literal, use of the name float, or math function
    outside INTEGER_MATH in the source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"line {node.lineno}: from math import {alias.name}"
                for alias in node.names
                if alias.name not in INTEGER_MATH
            ]
    return found


def test_checker_flags_each_inexact_form():
    source = "\n".join([
        "import math",
        "from math import sqrt, gcd",
        "a = 0.5",
        "b = 2j",
        "c = float('1')",
        "d = list(map(float, ['1']))",
        "e = math.sqrt(2) + math.pi",
        "f = math.isqrt(4) + math.comb(4, 2) + math.factorial(3)",
    ])
    assert sorted(inexact_uses(source)) == [
        "line 2: from math import sqrt",
        "line 3: literal 0.5",
        "line 4: literal 2j",
        "line 5: float",
        "line 6: float",
        "line 7: math.pi",
        "line 7: math.sqrt",
    ]


def test_package_sources_are_exact():
    assert len(SOURCES) >= 10
    found = {
        path.name: uses
        for path in SOURCES
        if (uses := inexact_uses(path.read_text(encoding="utf-8")))
    }
    assert found == {}
