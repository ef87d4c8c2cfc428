"""Every module of the package and of scripts/ reads each name it imports.

A name bound by an import must be read somewhere in its module; an import
kept on purpose carries `# noqa: F401` on its line. Imports sit at module
top: none is made inside a function."""

import ast
import os

import pytest

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
MODULES = sorted(
    os.path.join(d, name)
    for d in (os.path.join(REPO, "src", "cardioclip"), os.path.join(REPO, "scripts"))
    for name in os.listdir(d) if name.endswith(".py")
)
IDS = [os.path.relpath(p, REPO) for p in MODULES]


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


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_every_imported_name_is_read(path):
    tree, lines = _parse(path)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = [f"line {line}: {name}" for name, line in _imported(tree, lines) if name not in read]
    assert unread == []


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_no_import_inside_a_function(path):
    tree, _ = _parse(path)
    nested = [f"line {node.lineno} in {fn.name}"
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
