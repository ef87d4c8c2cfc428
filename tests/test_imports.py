"""Every module of the package, of scripts/ and of tests/ reads each name it
imports.

A name bound by an import must be read somewhere in its module; an import
kept on purpose carries `# noqa: F401` on its line. In the package and
scripts/, imports sit at module top: none is made inside a function."""

import ast
import os

import pytest

REPO = os.path.join(os.path.dirname(__file__), os.pardir)


def _modules(*dirs):
    return sorted(os.path.join(REPO, *d, name) for d in dirs
                  for name in os.listdir(os.path.join(REPO, *d)) if name.endswith(".py"))


MODULES = _modules(("src", "cardioclip"), ("scripts",))
IMPORTING = MODULES + _modules(("tests",))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    return ast.parse(source), source.splitlines()


def _imported(tree, lines):
    """(name, line) for each name an import binds, except `__future__`
    features and lines marked `# noqa: F401`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno


@pytest.mark.parametrize("path", IMPORTING, ids=lambda p: os.path.relpath(p, REPO))
def test_every_imported_name_is_read(path):
    tree, lines = _parse(path)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = [f"line {line}: {name}" for name, line in _imported(tree, lines) if name not in read]
    assert unread == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: os.path.relpath(p, REPO))
def test_no_import_inside_a_function(path):
    tree, _ = _parse(path)
    nested = [f"line {node.lineno} in {fn.name}"
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
