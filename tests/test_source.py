"""Checks on the library's source text rather than its behaviour."""

import ast
from pathlib import Path

import wondermodels

SRC = Path(wondermodels.__file__).resolve().parent


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so every invariant must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
