"""Certification must not depend on asserts, which `python -O` strips."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sumprod"


def _assertion_nodes(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node


def test_no_assert_in_src():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in _assertion_nodes(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], f"use CertificationFailed instead of assert: {found}"


def test_guard_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('y')\nraise AssertionError\nraise ValueError")
    assert [type(n).__name__ for n in _assertion_nodes(tree)] == ["Assert", "Raise", "Raise"]
