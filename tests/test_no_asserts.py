"""No package module relies on an ``assert`` statement.

``python -O`` strips assert statements, so a check written as one would
vanish there, together with any work its condition does.  The package
raises explicitly instead; checked with ``ast`` alone.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symgraph"
MODULES = sorted(PACKAGE.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_the_check_finds_an_assert():
    source = ("def f(x):\n    assert x, 'x'\n    if not x:\n"
              "        raise AssertionError('x')\n    return [y for y in x if y]\n"
              "class C:\n    def g(self):\n        assert self\n")
    assert assert_lines(source) == [2, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_uses_an_assert_statement(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
