"""Exactness certificates are hard errors, also under ``python -O``."""

import ast
from pathlib import Path

import pytest

import bigdescents
from bigdescents import conjectures, genfun
from bigdescents.errors import InexactDivisionError

PACKAGE = Path(bigdescents.__file__).parent


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} certifies with assert at lines {lines}"


def test_counting_formulas_reject_a_remainder(monkeypatch):
    monkeypatch.setattr(genfun, "binom", lambda a, b: 1)
    with pytest.raises(InexactDivisionError):
        genfun.b123(4, 0)       # 2/5
    with pytest.raises(InexactDivisionError):
        genfun.narayana(3, 1)   # 1/2


def test_radical_rejects_a_remainder(monkeypatch):
    monkeypatch.setattr(conjectures, "poly_gcd", lambda a, b: conjectures.poly([1, 1]))
    with pytest.raises(InexactDivisionError):
        conjectures.radical(conjectures.poly([1, 0, 1]))
