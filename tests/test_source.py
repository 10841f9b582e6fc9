"""Checks on the library's source text rather than its behaviour."""

import ast
from collections import Counter
from pathlib import Path

import wondermodels

SRC = Path(wondermodels.__file__).resolve().parent


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so every invariant must raise
    found = []
    for path, tree in _trees():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports_in_the_library():
    # __init__.py imports to re-export; every other module imports to use
    found = []
    for path, tree in _trees():
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert found == []


def _references(tree):
    """Names a tree refers to: as a Name, an Attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_orphaned_private_helpers_in_the_library():
    # a private helper or method that nothing else in the library refers
    # to, such as one a refactor has left behind, is dead code; tests do
    # not count
    trees = list(_trees())
    refs = Counter(name for _, tree in trees for name in _references(tree))
    found = []
    for path, tree in trees:
        methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body]
        for node in tree.body + methods:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                own = sum(name == node.name for name in _references(node))
                if refs[node.name] == own:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


def test_one_substitution_step_in_the_formula_layer():
    # every z -> d/dt (and its t-integration) goes through one step, so the
    # source truncation rule is written once
    tree = ast.parse((SRC / "formulas.py").read_text())
    calls = Counter(node.func.id for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name))
    assert calls["subst_z_derivative"] == 1
    assert calls["integrate_t"] == 1


def test_one_d_value_rule():
    # the d-value is read off the universe's dimensions by lattice.d_value
    # alone, so the walk's veto and validation share one rule: no other
    # function defines a d-value or reads dims
    found = []
    for path, tree in _trees():
        for func in ast.walk(tree):
            if (not isinstance(func, ast.FunctionDef)
                    or (path.name, func.name) == ("lattice.py", "d_value")):
                continue
            if "d_value" in func.name:
                found.append(f"{path.name}:{func.lineno} {func.name}")
            found += [f"{path.name}:{node.lineno} reads dims" for node in ast.walk(func)
                      if isinstance(node, ast.Attribute) and node.attr == "dims"]
    assert found == []


def test_a_grade_bound_is_only_forwarded():
    # builders and kernel calls pass on the bound they were given, so the
    # one place that sets a grade bound is _substituted's call of its source:
    # dumps and readouts get every grade
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                found += [f"{path.name}:{node.lineno}" for kw in node.keywords
                          if kw.arg == "bound" and not (isinstance(kw.value, ast.Name)
                                                        and kw.value.id == "bound")]
    assert found == []
