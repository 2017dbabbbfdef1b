"""Rules that the package's source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

import hqcnn
from test_benchmark_hooks import HOOKS

MODULES = sorted(Path(hqcnn.__file__).parent.glob("*.py"))
# The package's __init__ imports names in order to export them.
IMPORTING = [p for p in MODULES if p.name != "__init__.py"]


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_exception_is_swallowed(path):
    # An except clause whose body is only `pass` hides the error it
    # catches: a handler must act on it, or the clause must go.
    swallowed = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ExceptHandler)
        and all(isinstance(stmt, ast.Pass) for stmt in node.body)
    ]
    assert swallowed == [], f"{path.name}: except clauses that only pass at lines {swallowed}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_handler_catches_every_exception(path):
    # A bare `except:`, or one that catches Exception or BaseException,
    # treats a bug like the failure it was written for. A handler names
    # the errors it expects.
    everything = {None, "Exception", "BaseException"}
    broad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(kind, "id", kind) in everything for kind in caught):
                broad.append(node.lineno)
    assert broad == [], f"{path.name}: handlers that catch every exception at lines {broad}"


@pytest.mark.parametrize("path", IMPORTING, ids=[p.name for p in IMPORTING])
def test_every_unread_import_is_a_hooked_shim(path):
    # A name that a module imports and never reads is dead, unless
    # perfbench/layers.py hooks it on that module by name: an import shim,
    # which goes when the hook does. The imports marked `noqa: F401` are
    # the shims, and bind nothing else.
    tree = _tree(path)
    lines = path.read_text().splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unread = set(imported) - read
    hooked = {attr for module, attr in HOOKS if module == path.stem}
    assert unread <= hooked, f"{path.name}: unread imports not hooked: {sorted(unread - hooked)}"
    marked = {name for name, lineno in imported.items() if "noqa: F401" in lines[lineno - 1]}
    assert marked == unread, f"{path.name}: noqa marks {sorted(marked)}, not {sorted(unread)}"
