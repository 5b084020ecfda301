"""Unused imports in the package, by an ast walk (no linter is a dependency)."""

import ast
import pathlib

import fraclap

PACKAGE = pathlib.Path(fraclap.__file__).parent


def _unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that no expression of
    the module reads (from __future__ imports aside)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_unused_import_check_flags_only_unread_names():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom x import a, b\nprint(a, os.sep)\n"
    assert _unused_imports(source) == ["b (line 3)", "system (line 2)"]


def test_package_modules_read_every_import():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
