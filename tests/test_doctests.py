"""Run the docstring examples of every bigdescents module."""

import doctest
import importlib
import pkgutil

import pytest

import bigdescents

MODULES = ["bigdescents"] + sorted(
    f"bigdescents.{info.name}"
    for info in pkgutil.iter_modules(bigdescents.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} failed"


def test_examples_exist():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted
                    for name in MODULES)
    assert attempted >= 13
