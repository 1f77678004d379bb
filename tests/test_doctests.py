"""The examples in the package's docstrings run and give what they show."""

import doctest
import importlib
import pkgutil

import posettop


def test_docstring_examples():
    failed = attempted = 0
    for info in pkgutil.iter_modules(posettop.__path__):
        module = importlib.import_module(f"posettop.{info.name}")
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 37
