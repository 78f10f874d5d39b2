"""Module boundaries, read from the source: no polydc module imports a private
name from another, the sequence constructions invert one series only, and no
serving function evaluates the DC sums through the memoized alt-bar route."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polydc"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "polydc")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports private names: {private}"


def _identifiers(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name referenced under node."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def test_sequences_serving_path_inverts_one_series():
    # Genocchi and poly-Genocchi numbers come from the Euler numbers and the
    # Stirling weights; series composition is a test oracle only.
    tree = ast.parse((PACKAGE / "sequences.py").read_text(encoding="utf-8"))
    assert not _identifiers(tree) & {"series_compose", "log1p_series", "series_mul"}
    inverting = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and "series_reciprocal" in _identifiers(node)
    ]
    assert inverting == ["euler_numbers"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_calls_the_alt_bar_cache(path):
    # The DC sums and the reciprocity right sides read integer moments; the
    # memoized Ê route grew without bound in long-lived processes.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call) and "_euler_alt_bar" in _identifiers(call.func)
            for call in ast.walk(node)
        )
    ]
    assert callers == [], f"{path.name}: {callers} call _euler_alt_bar"
