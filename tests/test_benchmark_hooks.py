"""The benchmark's traced run (``perfbench/run.py --trace 1``) replaces
package functions by name, as listed in ``perfbench/layers.py``. This
test reads that file without importing it and checks that every name it
hooks still exists, so that renaming or deleting one fails here and not
only in the benchmark's own smoke test."""

import ast
import importlib
from pathlib import Path

import pytest

from hqcnn import cli, optimize

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


def test_compare_at_four_qubits_calls_neither_cost_nor_gradient(tmp_path, monkeypatch):
    # The compare-tfim4 workload times every call of optimize.cost and
    # optimize.gradient, and perfbench/run.py reads ops_per_s from wall
    # time only while it sees none; any call would switch it to its
    # fast-call model. So a 4-qubit compare must train and score without
    # calling either: each round's grouped pass answers its points.
    def forbidden(*args, **kwargs):
        raise AssertionError("optimize.cost or optimize.gradient was called")

    monkeypatch.setattr(optimize, "cost", forbidden)
    monkeypatch.setattr(optimize, "gradient", forbidden)
    data = tmp_path / "data"
    cli.gen_synthetic(data, 4, cli.DEFAULT_TRAIN_GRID + cli.DEFAULT_TEST_GRID)
    config = cli.ExperimentConfig(
        dataset_dir=data,
        output_dir=tmp_path / "out",
        variant="both",
        seeds=(0, 1),
        settings=optimize.OptimizerSettings(max_iterations=5),
    )
    cli.run_compare(config)
    assert (tmp_path / "out" / "compare.txt").is_file()
