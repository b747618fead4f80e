"""Checks on the package source itself: no unused imports (in the tests
too), an export list that matches the package's imports, a lean start-up,
one matrix type."""

import ast
import subprocess
import sys
from pathlib import Path

import liecomposite

PACKAGE = Path(liecomposite.__file__).parent
TESTS = Path(__file__).resolve().parent

# (module, name) pairs imported but not used in the module, each with its reason
ALLOWED_UNUSED = {
    # perfbench/tests/test_perfbench.py asserts findim.nullspace is linalg.nullspace
    ("findim", "nullspace"),
}

# modules the package no longer needs at start-up; each costs the benchmark's
# set-up time and peak memory when a command imports it
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# the one place a ZMatrix and rows of scalars meet: a representation's input
MATRIX_TYPE_BRANCHES = {("findim", "FinDimRep.__init__")}


def imported_names(tree: ast.AST) -> set[str]:
    """Names a module binds by import (``from __future__`` aside)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``from __future__`` aside)."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported_names(tree) - used)


def zmatrix_branches(tree: ast.AST, scope: str = "") -> set[str]:
    """Qualified names of the functions that call isinstance(..., ZMatrix)."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found |= zmatrix_branches(node, f"{scope}{node.name}.")
            continue
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "isinstance"
                and len(call.args) == 2
                and any(getattr(n, "id", None) == "ZMatrix" for n in ast.walk(call.args[1]))
            ):
                found.add(scope.rstrip(".") or "<module>")
    return found


def test_no_unused_imports_in_src():
    found = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert found == ALLOWED_UNUSED


def test_no_unused_imports_in_tests():
    found = {
        (path.name, name)
        for path in sorted(TESTS.glob("*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert found == set()


def test_public_names_are_the_package_imports():
    # __init__ only re-exports, so its unused-import check is this one:
    # every exported name resolves, and nothing is imported but not exported
    exported = liecomposite.__all__
    assert len(set(exported)) == len(exported)
    assert all(hasattr(liecomposite, name) for name in exported)
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert set(exported) == imported_names(tree)


def test_cli_import_leaves_heavy_modules_unloaded():
    probe = (
        "import sys; import liecomposite.cli; "
        f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
    )
    assert result.stdout.split() == []


def test_zmatrix_is_the_one_matrix_type():
    # a second, list-of-lists matrix path would show as a type test
    found = {
        (module, name)
        for module in ("linalg", "findim")
        for name in zmatrix_branches(ast.parse((PACKAGE / f"{module}.py").read_text("utf-8")))
    }
    assert found == MATRIX_TYPE_BRANCHES
