"""Exactness certificates are hard errors, also under ``python -O``."""

import ast
from pathlib import Path

import pytest

import bigdescents
from bigdescents import genfun
from bigdescents.errors import InexactDivisionError

PACKAGE = Path(bigdescents.__file__).parent


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} certifies with assert at lines {lines}"


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def _raises(path: Path, exc: str) -> list[str]:
    """The qualified names of the functions in `path` that raise `exc`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and _raised_name(child) == exc:
                found.append(f"{path.stem}.{'.'.join(scope)}")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def _raisers(exc: str) -> list[str]:
    return [name for path in sorted(PACKAGE.rglob("*.py"))
            for name in _raises(path, exc)]


def test_one_function_refuses_over_guard_jobs():
    assert _raisers("BudgetError") == ["config.Limits.check"]


def test_one_function_certifies_schur_expansions():
    assert _raisers("ArithmeticError") == ["symfunc.schur_expand"]


def test_a_cycle_stays_inside_the_series_type():
    # a coefficient that needs itself is a _Cycle of the series type; only
    # the solver and composition turn what they cannot settle into
    # DivergenceError
    assert _raisers("_Cycle") == ["algebra.TruncatedSeries.__getitem__"]
    assert _raisers("DivergenceError") == ["algebra.series_compose",
                                           "genfun._solve"]


def test_counting_formulas_reject_a_remainder(monkeypatch):
    monkeypatch.setattr(genfun, "binom", lambda a, b: 1)
    with pytest.raises(InexactDivisionError):
        genfun.b123(4, 0)       # 2/5
    with pytest.raises(InexactDivisionError):
        genfun.narayana(3, 1)   # 1/2

