"""Calls that only some package modules may make, found with ``ast``.

``Poset(...)`` is the public, validating entry for posets from outside.
Library posets are built through ``Poset._assemble``, ``poset_from_order``
or ``build_poset``, so no module of ``src/posettop`` calls a name or
attribute ``Poset``.

``homology._critical_chains`` serves one interval sweep,
``cohen_macaulay._undecided_intervals``, which both the Cohen-Macaulay
and the Koszul tests call, so ``cohen_macaulay.py`` is its only caller.
It is also the only caller of ``homology._place_masks``, which builds the
pass's input, so the linear extension a pass walks is chosen in that one
module.
The verdict helpers assume a nonempty interval, which only that sweep
and ``is_acyclic_over`` guarantee: ``_interval_homology`` and
``homology._morse_summary`` are called from ``cohen_macaulay.py`` only,
and ``_summary_violations`` also from the Koszul test in ``semigroups.py``.

``semigroups._divisibility_order`` reads the divisibility order a
semigroup records as it enumerates, so ``semigroups.py`` is its only
caller and decides divisibility in one place.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "posettop"
MODULES = sorted(SRC.glob("*.py"))


def calls(source: str, callee: str) -> list[int]:
    """Line numbers of the calls ``callee(...)`` and ``<x>.callee(...)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == callee:
                lines.append(node.lineno)
    return sorted(lines)


def poset_calls(source: str) -> list[int]:
    """Line numbers of the calls ``Poset(...)`` and ``<x>.Poset(...)``."""
    return calls(source, "Poset")


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


def test_only_the_interval_sweep_runs_critical_chain_passes():
    callers = {p.name for p in MODULES if calls(p.read_text(), "_critical_chains")}
    assert callers == {"cohen_macaulay.py"}
    assert calls("crit = homology._critical_chains(A, j)\n", "_critical_chains") == [1]


def test_only_the_interval_sweep_builds_place_masks():
    callers = {p.name for p in MODULES if calls(p.read_text(), "_place_masks")}
    assert callers == {"cohen_macaulay.py"}
    assert calls("ext = homology._place_masks(A, A.topo_order())\n", "_place_masks") == [1]


def test_only_semigroups_builds_divisibility_orders():
    callers = {p.name for p in MODULES if calls(p.read_text(), "_divisibility_order")}
    assert callers == {"semigroups.py"}
    assert calls("T = semigroups._divisibility_order(S, 3)\n", "_divisibility_order") == [1]


@pytest.mark.parametrize("callee, allowed", [
    ("_summary_violations", {"cohen_macaulay.py", "semigroups.py"}),
    ("_interval_homology", {"cohen_macaulay.py"}),
    ("_morse_summary", {"cohen_macaulay.py"}),
])
def test_verdict_helpers_take_only_sweep_intervals(callee, allowed):
    callers = {p.name for p in MODULES if calls(p.read_text(), callee)}
    assert callers and callers <= allowed
