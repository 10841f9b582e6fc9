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
    # every z -> d/dt (and its t-integration) in the library, selftest's
    # misread series too, goes through one step, formulas._substituted, so
    # the source truncation rule is written once
    calls = Counter()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("subst_z_derivative", "integrate_t"):
                    calls[name, path.name] += 1
    assert calls == {("subst_z_derivative", "formulas.py"): 1,
                     ("integrate_t", "formulas.py"): 1}


def test_series_are_built_from_integer_slices_outside_the_kernel():
    # the Fraction-dict constructor, monomial and the Fraction view of the
    # terms belong to series.py and the tests: every other module builds a
    # series from integer slices and reads its slices
    found = []
    for path, tree in _trees():
        if path.name == "series.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("TruncatedSeries", "T"):
                    found.append(f"{path.name}:{node.lineno} calls {name}")
            elif isinstance(node, ast.Attribute) and node.attr in ("monomial", "terms"):
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert found == []


def test_tilde_gamma_is_one_kernel_call():
    # 2/(1-2t)^2 folds into the exp's argument, so the type B block series
    # is one exp and no product, inverse or rescaling
    tree = ast.parse((SRC / "formulas.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "tilde_gamma")
    kernel = {"mul", "exp", "invert_one_minus", "scale", "add"}
    calls = [node.func.id for node in ast.walk(func) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in kernel]
    assert calls == ["exp"]


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


def _scopes(tree):
    """(name, node, parameters) for each top-level function and method of
    a module, and for each other top-level statement, named <module>."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    yield m.name, m, {a.arg for a in ast.walk(m.args) if isinstance(a, ast.arg)}
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node, {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        else:
            yield "<module>", node, set()


WINDOW = ("bound", "start")


def test_a_grade_bound_is_only_forwarded():
    # builders and kernel calls pass on the grade bound and the slice
    # start they were given, so the only calls that set a window are the
    # readouts' calls of their builders, one each: each readout states
    # its window there, and dumps get every slice and grade
    setters, laundered = [], []
    for path, tree in _trees():
        for name, scope, own in _scopes(tree):
            # a forwarded name is a parameter of the function or of a lambda
            # in it, and only the function's own ones may be normalised
            params = {a.arg for a in ast.walk(scope) if isinstance(a, ast.arg)}
            stored = {node.id for node in ast.walk(scope)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            for node in ast.walk(scope):
                # enumerate's start is a counter, not a window
                if not isinstance(node, ast.Call) or (isinstance(node.func, ast.Name)
                                                      and node.func.id == "enumerate"):
                    continue
                window = [kw for kw in node.keywords if kw.arg in WINDOW]
                if any(not (isinstance(kw.value, ast.Name) and kw.value.id == kw.arg)
                       for kw in window):
                    setters.append((path.name, name, node.lineno))
                    continue
                laundered += [f"{path.name}:{node.lineno} {kw.arg}" for kw in window
                              if kw.arg not in params or kw.arg in stored - own]
    assert [where[:2] for where in setters] == [
        ("formulas.py", readout) for readout in
        ("_substituted", "phi_slice", "fvector_typeA", "fvector_from_fcy", "euler_from_bd")]
    assert laundered == []


def test_no_library_module_imports_dataclasses():
    # the value classes stand on lattice.Record, so start-up never loads
    # dataclasses (see test_cli's start-up test)
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []
