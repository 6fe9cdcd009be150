"""No package module imports a name it never uses, and no private helper
goes unused.

Checked with ``ast`` alone: a name counts as used when the module reads it,
lists it in ``__all__`` or names it in a quoted annotation.  An import whose
line carries ``# noqa: F401`` is kept on purpose.  ``__init__.py`` is left
out, since re-exporting is what it is for.  A private module-level function
or class (a leading underscore, not a dunder) must be named somewhere in the
package outside its own definition, so a refactor cannot leave a dead helper.
"""

import ast
from collections import Counter
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


def unnamed_private_defs(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    named = Counter()
    for tree in trees.values():
        named.update(_names(tree))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and named[node.name] == _names(node)[node.name]):
                dead.append(f"{module}: {node.name}")
    return dead


def _names(tree) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_the_check_finds_an_unused_private_helper():
    sources = {"a.py": ("def _dead(n):\n    return _dead(n - 1) if n else 0\n"
                        "def _kept():\n    return 1\nclass _Shape:\n    pass\n"
                        "def public():\n    return _kept()\n"),
               "b.py": "from . import a\nVALUE = a._Shape\n"}
    assert unnamed_private_defs(sources) == ["a.py: _dead"]


def test_every_private_helper_is_named_outside_its_definition():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unnamed_private_defs(sources) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_check_finds_a_numpy_import():
    source = ("import numpy.linalg\nfrom .words import _walk\n"
              "def f():\n    from numpy import array\n    import math\n")
    assert imported_modules(source) == {"numpy", "math"}


@pytest.mark.parametrize("name", ["algebraic", "transforms", "boundary", "checks"])
def test_exact_layers_import_no_numpy(name):
    # numpy stays in the layers that build arrays: ``words`` (the enumeration
    # walk), ``spectral`` and ``wave``
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert "numpy" not in imported_modules(source)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # pyproject.toml declares numpy alone, and importing scipy.linalg alone
    # took an in-process RSS from 30 to 57 MB
    assert "scipy" not in imported_modules(path.read_text(encoding="utf-8"))
