"""No package module or script relies on an ``assert`` statement.

``python -O`` strips assert statements, so a check written as one would
vanish there, together with any work its condition does.  The package
raises explicitly instead, and the scripts print one line to stderr and exit
1; checked with ``ast`` alone.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/symgraph/*.py")) + sorted(ROOT.glob("scripts/*.py"))


def assert_lines(source: str) -> list[int]:
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_the_check_finds_an_assert():
    source = ("def f(x):\n    assert x, 'x'\n    if not x:\n"
              "        raise AssertionError('x')\n    return [y for y in x if y]\n"
              "class C:\n    def g(self):\n        assert self\n")
    assert assert_lines(source) == [2, 8]


def test_the_scripts_are_covered():
    assert {"wave_fronts.py", "plancherel_mass.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_uses_an_assert_statement(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
