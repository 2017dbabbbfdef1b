"""The benchmark's traced run (``perfbench/run.py --trace 1``) replaces
package functions by name, as listed in ``perfbench/layers.py``. This
test reads that file without importing it and checks that every name it
hooks still exists, so that renaming or deleting one fails here and not
only in the benchmark's own smoke test."""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _hooks():
    """(module, attribute) pairs that layers.py wraps: its KERNELS keys,
    looked up on ``network``, and every ``tracer.wrap(module, "attr", ...)``
    call with a literal attribute name."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    modules = {}
    hooks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hqcnn":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"hqcnn.{alias.name}"
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "KERNELS" for t in node.targets)
        ):
            hooks += [("network", key.value) for key in node.value.keys]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
        ):
            hooks.append((node.args[0].id, node.args[1].value))
    return modules, hooks


MODULES, HOOKS = _hooks()


def test_layers_file_names_hooks():
    assert set(MODULES) == {"cli", "network", "optimize", "oracle"}
    assert ("network", "_ry_rows") in HOOKS
    assert ("optimize", "_forward_rows") in HOOKS
    assert len(HOOKS) >= 20


@pytest.mark.parametrize("module, attr", HOOKS)
def test_every_hooked_name_exists(module, attr):
    target = importlib.import_module(MODULES[module])
    assert callable(getattr(target, attr, None)), f"{module}.{attr} is gone"
