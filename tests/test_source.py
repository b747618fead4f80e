"""Checks on the package source itself: no unused imports, an export list
that matches the package's imports, a lean start-up."""

import ast
import subprocess
import sys
from pathlib import Path

import liecomposite

PACKAGE = Path(liecomposite.__file__).parent

# (module, name) pairs imported but not used in the module, each with its reason
ALLOWED_UNUSED = {
    # perfbench/tests/test_perfbench.py asserts findim.nullspace is linalg.nullspace
    ("findim", "nullspace"),
}

# modules the package no longer needs at start-up; each costs the benchmark's
# set-up time and peak memory when a command imports it
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


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


def test_no_unused_imports_in_src():
    found = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert found == ALLOWED_UNUSED


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
