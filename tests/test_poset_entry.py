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
module.  The homology engine lays out every order complex on the places
of a ``topo_order()``: the sweep's extension in
``cohen_macaulay._interval_homology``, and a whole poset's up-closure by
place (``homology._places``) in ``homology._cell_complex``.  Neither reads
``above_masks()``, which numbers by index, and they are the only callers
of the chain-tree layout ``homology._chain_cells`` (through
``_chain_homology`` for the sweep).
The verdict helpers assume a nonempty interval, which only that sweep
and ``cohen_macaulay._order_homology`` guarantee: ``_interval_homology``
and ``homology._morse_summary`` are called from ``cohen_macaulay.py``
only, and ``_summary_violations`` also from the Koszul test in
``semigroups.py``.

``_order_homology`` is the one route to the homology of a whole poset's
order complex through critical chains: ``cohen_macaulay.py``
(``is_acyclic_over``) and ``verification.py`` (the word-ideal, Rees and
subword blocks) call it, and in ``verification.py`` the homology engine's
``integral_homology`` is used only inside ``_oracle_block``, which checks
that engine.

The sweep builds no poset or complex per interval: where critical chains
leave an interval open, ``_interval_homology`` hands the interval's place
masks to ``homology._chain_homology``, so ``cohen_macaulay.py`` names none of
``order_complex``, ``integral_homology`` or ``_induced_by_indices``.

``semigroups._divisibility_order`` reads the divisibility order a
semigroup records as it enumerates, so ``semigroups.py`` is its only
caller and decides divisibility in one place.  That enumeration,
``HomogeneousSemigroup._grow``, is the one place in ``semigroups.py`` that
adds a generator to an element: ``operator.add`` is used nowhere else
there, and no semigroup lists vectors by ``combinations_with_replacement``.
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


def scoped_uses(source: str, name: str, module: str) -> list[str]:
    """The enclosing ``Class.function`` of each use of ``name``, bare or as
    ``module.name``; ``""`` for a use at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name
                    and isinstance(child.value, ast.Name) and child.value.id == module):
                found.append(".".join(scope))
            visit(child, scope)
    visit(ast.parse(source), ())
    return found


def names(source: str) -> set[str]:
    """Every name ``source`` imports, reads or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


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
    # the cell complex builds only the up half, on the same places
    assert {p.name for p in MODULES if calls(p.read_text(), "_places")} == {"homology.py"}
    source = (SRC / "homology.py").read_text()
    assert set(scoped_uses(source, "_places", "homology")) == {"_place_masks", "_cell_complex"}


def function_source(source: str, name: str) -> str:
    """The source of the function ``name`` defined in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return ast.unparse(node)
    raise LookupError(name)


@pytest.mark.parametrize("module, function", [
    ("homology.py", "_cell_complex"),
    ("cohen_macaulay.py", "_interval_homology"),
])
def test_order_complexes_are_laid_out_on_places(module, function):
    assert "above_masks" not in names(function_source((SRC / module).read_text(), function))


def test_only_place_layouts_reach_the_chain_tree():
    source = (SRC / "homology.py").read_text()
    uses = set(scoped_uses(source, "_chain_cells", "homology"))
    assert uses == {"_chain_homology", "_cell_complex"}
    assert {p.name for p in MODULES if calls(p.read_text(), "_chain_cells")} == {"homology.py"}
    callers = {p.name for p in MODULES if calls(p.read_text(), "_chain_homology")}
    assert callers == {"cohen_macaulay.py"}
    source = (SRC / "cohen_macaulay.py").read_text()
    assert set(scoped_uses(source, "_chain_homology", "homology")) == {"_interval_homology"}
    probe = ("def _cell_complex(K):\n"
             "    return _chain_cells(K.source_poset.above_masks(), -1)\n")
    assert "above_masks" in names(function_source(probe, "_cell_complex"))


def test_only_semigroups_builds_divisibility_orders():
    callers = {p.name for p in MODULES if calls(p.read_text(), "_divisibility_order")}
    assert callers == {"semigroups.py"}
    assert calls("T = semigroups._divisibility_order(S, 3)\n", "_divisibility_order") == [1]


def test_only_the_layer_walk_adds_vectors():
    source = (SRC / "semigroups.py").read_text()
    assert set(scoped_uses(source, "add", "operator")) == {"HomogeneousSemigroup._grow"}
    assert scoped_uses(source, "combinations_with_replacement", "itertools") == []
    probe = ("import itertools, operator\n"
             "from operator import add\n"
             "class C:\n"
             "    def f(self, x, g):\n"
             "        return tuple(map(add, x, g)), list(map(operator.add, x, g))\n"
             "def h(d, seen):\n"
             "    seen.add(d)\n"
             "    return itertools.combinations_with_replacement(range(d), d)\n")
    assert scoped_uses(probe, "add", "operator") == ["C.f", "C.f"]
    assert scoped_uses(probe, "combinations_with_replacement", "itertools") == ["h"]


def test_whole_posets_take_the_critical_chain_route():
    callers = {p.name for p in MODULES if calls(p.read_text(), "_order_homology")}
    assert callers == {"cohen_macaulay.py", "verification.py"}
    source = (SRC / "verification.py").read_text()
    assert set(scoped_uses(source, "integral_homology", "homology")) == {"_oracle_block"}


def test_the_sweep_rebuilds_no_interval():
    rebuilders = {"order_complex", "integral_homology", "_induced_by_indices"}
    assert names((SRC / "cohen_macaulay.py").read_text()).isdisjoint(rebuilders)
    probe = ("from .complexes import order_complex\n"
             "def f(A, m):\n"
             "    return homology.integral_homology(posets._induced_by_indices(A, m))\n")
    assert names(probe) >= rebuilders


@pytest.mark.parametrize("callee, allowed", [
    ("_summary_violations", {"cohen_macaulay.py", "semigroups.py"}),
    ("_interval_homology", {"cohen_macaulay.py"}),
    ("_morse_summary", {"cohen_macaulay.py"}),
])
def test_verdict_helpers_take_only_sweep_intervals(callee, allowed):
    callers = {p.name for p in MODULES if calls(p.read_text(), callee)}
    assert callers and callers <= allowed
