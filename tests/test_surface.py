"""The library holds only what the commands and the acceptance suite reach.

``__init__`` holds only its docstring and ``__version__``: library names
are imported from their modules, so there is one import path per name.
Top-level definitions of ``src/repstat`` are walked from the roots: every
name ``cli.py`` references, every name ``tests/test_acceptance.py``
imports from the package, and every name a module-level statement that
is neither a definition nor an import references.  Names are matched across modules, which is conservative: a
definition counts as used when any reachable code names it.
"""

import ast
from pathlib import Path

import repstat

SRC = Path(repstat.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# perfbench/tracer.py patches both of these by name, so they stay defined
# although no command runs them; they move to tests/ together with the
# benchmark change that drops those patches (ROADMAP item 1).
# TruncatedSeries.__mul__: the class is the tests' feit_fine oracle.
# _int_series_mul: the tests' oracle for the slice kernels of gauss_identity_check.
ALLOWED_UNREACHED = {"TruncatedSeries", "_int_series_mul"}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node):
    """Every identifier ``node`` mentions, as a bare name or an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _defined(stmt):
    """Names a top-level statement binds as a definition (empty if none)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def unreached_definitions():
    refs: dict[str, set[str]] = {}
    roots = set()
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        if path.name == "cli.py":
            roots |= _names(tree)
        for stmt in tree.body:
            names = _defined(stmt)
            if names:
                for name in names:
                    refs.setdefault(name, set()).update(_names(stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    for stmt in _parse(ACCEPTANCE).body:
        if isinstance(stmt, ast.ImportFrom) and (stmt.module or "").startswith("repstat"):
            roots |= {alias.name for alias in stmt.names}
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(refs.get(name, ()))
    return sorted(set(refs) - reached)


def test_every_definition_is_reached():
    # Equality, so the exception is dropped here once it is reached or gone.
    assert unreached_definitions() == sorted(ALLOWED_UNREACHED)


def test_package_holds_only_docstring_and_version():
    body = _parse(SRC / "__init__.py").body
    shape = [type(stmt).__name__ for stmt in body]
    assert shape == ["Expr", "Assign"]
    doc, version = body
    assert isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str)
    assert [ast.unparse(t) for t in version.targets] == ["__version__"]
    assert isinstance(version.value, ast.Constant) and isinstance(version.value.value, str)


def test_no_assert_statements():
    # python -O strips assert, so a check resting on one would vanish.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_acceptance_imports_only_public_names():
    # The acceptance suite pins the library's public surface, not its internals.
    private = [
        f"{stmt.module}.{alias.name}"
        for stmt in ast.walk(_parse(ACCEPTANCE))
        if isinstance(stmt, ast.ImportFrom) and (stmt.module or "").startswith("repstat")
        for alias in stmt.names
        if alias.name.startswith("_")
    ]
    assert private == []
