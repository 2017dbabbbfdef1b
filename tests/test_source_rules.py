"""Rules that the package's source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

import hqcnn

MODULES = sorted(Path(hqcnn.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_exception_is_swallowed(path):
    # An except clause whose body is only `pass` hides the error it
    # catches: a handler must act on it, or the clause must go.
    tree = ast.parse(path.read_text(), filename=str(path))
    swallowed = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and all(isinstance(stmt, ast.Pass) for stmt in node.body)
    ]
    assert swallowed == [], f"{path.name}: except clauses that only pass at lines {swallowed}"
