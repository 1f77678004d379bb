"""Every name a package module imports at module level is used in it.

A stdlib stand-in for a linter's unused-import rule: each module of
``src/posettop`` except ``__init__.py`` (which only re-exports) is parsed
with ``ast``, and a name bound by a module-level ``import`` must occur as
a name somewhere else in the module.  A name inside a quoted annotation
is not seen; the modules use ``from __future__ import annotations``
instead of quotes.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "posettop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"homology.py", "posets.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from itertools import chain, count\nimport os.path\n\nprint(count())\n"
    assert unused_imports(source) == ["chain (line 1)", "os (line 2)"]
