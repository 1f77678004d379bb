"""No package module calls the checked ``Poset(labels, covers)`` constructor.

``Poset(...)`` is the public, validating entry for posets from outside.
Library posets are built through ``Poset._assemble``, ``poset_from_order``
or ``build_poset``, so each module of ``src/posettop`` is parsed with
``ast`` and any call of a name or attribute ``Poset`` is reported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "posettop"
MODULES = sorted(SRC.glob("*.py"))


def poset_calls(source: str) -> list[int]:
    """Line numbers of the calls ``Poset(...)`` and ``<x>.Poset(...)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "Poset":
                lines.append(node.lineno)
    return sorted(lines)


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"posets.py", "constructions.py", "semigroups.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_checked_constructor_call(path):
    assert poset_calls(path.read_text()) == []


def test_the_check_sees_a_call():
    source = ("from posettop import posets\n"
              "P = Poset((), ())\n"
              "Q = posets.Poset._assemble((), [])\n"
              "R = posets.Poset(('a',), ())\n")
    assert poset_calls(source) == [2, 4]
