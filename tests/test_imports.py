"""No package module imports a name it never uses.

Checked with ``ast`` alone: a name counts as used when the module reads it,
lists it in ``__all__`` or names it in a quoted annotation.  An import whose
line carries ``# noqa: F401`` is kept on purpose.  ``__init__.py`` is left
out, since re-exporting is what it is for.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symgraph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re\nfrom math import gcd, lcm\n"
              "from numpy import array  # noqa: F401\nfrom json import dumps\n"
              "from fractions import Fraction\n"
              "__all__ = ['dumps']\n"
              "def f(x: 'Fraction') -> int:\n    return gcd(x, 2)\n")
    assert unused_imports(source) == ["lcm (line 4)", "os (line 2)", "re (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
