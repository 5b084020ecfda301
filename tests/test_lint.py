"""Unused imports and unread private names in the package, by an ast walk (no
linter is a dependency)."""

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


def _private_names(source: str) -> dict:
    """Private top-level names (`_x`, dunders aside) that the module binds by
    def, class or assignment, with their lines."""
    bound = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        bound.update({name: node.lineno for name in names if name.startswith("_") and not name.startswith("__")})
    return bound


def _unread_private_names(sources: dict) -> list:
    """The private top-level names of the modules in `sources` (module name ->
    source) that no expression of any of them reads, bare or as an attribute."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name} (line {line})" for module, source in sources.items()
                  for name, line in _private_names(source).items() if name not in read)


def test_unread_private_name_check_flags_only_unread_names():
    sources = {
        "a": "_used = 1\n_dead, _pair = 2, 3\ndef _helper():\n    return _used\nclass _Gone:\n    pass\n__all__ = []\n",
        "b": "from . import a\nprint(a._helper, _local, _pair)\n_local = 3\n",
    }
    assert _unread_private_names(sources) == ["a._Gone (line 5)", "a._dead (line 2)"]


def test_package_reads_every_private_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(sources) == []
