"""Where the traced run hooks into hqcnn, and the per-layer metrics it reports.

Each hook replaces the name through which one layer calls the next, in
the namespace of the caller, so a layer is counted at the boundary the
program actually crosses:

* gate kernels as the network calls them (``network._h_rows``, ...);
* the single-row forward and expectation as ``cost`` calls them, the
  batched ones as ``gradient`` calls them;
* the optimizer as ``train`` and the CLI call it;
* the oracle, ``to_dense`` and the Lanczos matvec as the CLI, the oracle
  and the benchmark call them;
* dataset loading and parsing as the CLI calls them.

``cli.evaluate`` is the post-training forward and expectation that
``run_compare`` makes; those calls also count under their own layers.
"""

from __future__ import annotations

from hqcnn import cli, network, optimize, oracle

from tracer import Tracer

KERNELS = {
    "_h_rows": "statevector.h",
    "_ry_rows": "statevector.ry",
    "_cnot_rows": "statevector.cnot",
    "_expect_z_rows": "statevector.expect_z",
}


def _rows(index):
    return lambda args: int(args[index].shape[0])


def instrument(tracer: Tracer) -> None:
    for attr, name in KERNELS.items():
        # Amplitude bytes each kernel call reads, computed from the array size.
        tracer.wrap(network, attr, name, size=lambda args: int(args[0].nbytes), span=False)
    tracer.wrap(optimize, "forward", "network.forward")
    tracer.wrap(optimize, "expectation", "pauli.expectation")
    tracer.wrap(optimize, "_forward_rows", "network.forward_rows", size=_rows(2))
    tracer.wrap(optimize, "_expectation_rows", "pauli.expectation_rows", size=_rows(1))
    tracer.wrap(optimize, "cost", "optimize.cost")
    tracer.wrap(optimize, "gradient", "optimize.gradient")
    tracer.wrap(optimize, "bfgs_minimize", "optimize.bfgs")
    tracer.wrap(optimize, "train", "optimize.train")
    tracer.wrap(cli, "train", "optimize.train")
    tracer.wrap(cli, "forward", "network.forward", also="cli.evaluate")
    tracer.wrap(cli, "expectation", "pauli.expectation", also="cli.evaluate")
    tracer.wrap(cli, "ground_energy", "oracle.ground_energy")
    tracer.wrap(cli, "load_dataset", "cli.load_dataset")
    tracer.wrap(cli, "parse_hamiltonian", "pauli.parse_hamiltonian")
    tracer.wrap(oracle, "ground_energy", "oracle.ground_energy")
    tracer.wrap(oracle, "ground_energy_iterative", "oracle.ground_energy_iterative")
    tracer.wrap(oracle, "to_dense", "pauli.to_dense")
    tracer.wrap(oracle, "_apply_hamiltonian_rows", "pauli.apply_hamiltonian_rows")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tracer: Tracer, units) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); layers a workload
    never calls read 0."""
    layer = tracer.layer
    out: dict[str, tuple[float, str]] = {}

    def calls_and_time(name: str) -> None:
        out[f"{name}.calls"] = (layer(name).calls, "count")
        out[f"{name}.s"] = (layer(name).total_s, "s")

    for name in KERNELS.values():
        calls_and_time(name)
    out["statevector.amp_bytes_computed"] = (
        sum(layer(name).size for name in KERNELS.values()),
        "B",
    )
    calls_and_time("network.forward")
    rows = layer("network.forward_rows")
    calls_and_time("network.forward_rows")
    out["network.forward_rows.rows"] = (rows.size, "count")
    out["network.s_per_row"] = (_ratio(rows.total_s, rows.size), "s/row")
    calls_and_time("pauli.expectation")
    calls_and_time("pauli.expectation_rows")
    out["pauli.expectation_rows.rows"] = (layer("pauli.expectation_rows").size, "count")
    calls_and_time("pauli.to_dense")
    calls_and_time("pauli.apply_hamiltonian_rows")
    calls_and_time("pauli.parse_hamiltonian")

    trainings = [t for unit in units for t in unit.trainings]
    iterations = sum(t[0] for t in trainings)
    calls_and_time("optimize.train")
    calls_and_time("optimize.cost")
    calls_and_time("optimize.gradient")
    out["optimize.bfgs.iterations"] = (iterations, "count")
    out["optimize.bfgs.self_s"] = (layer("optimize.bfgs").self_s, "s")
    evals = layer("optimize.cost").calls + layer("optimize.gradient").calls
    out["optimize.evals_per_iter"] = (_ratio(evals, iterations), "evals/iter")
    out["optimize.converged_frac"] = (
        _ratio(sum(t[1] for t in trainings), len(trainings)),
        "frac",
    )
    out["optimize.final_cost_gap"] = (
        _ratio(sum(t[2] for t in trainings), len(trainings)),
        "energy",
    )

    calls_and_time("oracle.ground_energy")
    out["oracle.eigvalsh_s"] = (layer("oracle.ground_energy").self_s, "s")
    iterative = layer("oracle.ground_energy_iterative")
    calls_and_time("oracle.ground_energy_iterative")
    out["oracle.matvecs_per_solve"] = (
        _ratio(layer("pauli.apply_hamiltonian_rows").calls, iterative.calls),
        "matvecs/solve",
    )

    calls_and_time("cli.load_dataset")
    out["cli.evaluate.s"] = (layer("cli.evaluate").total_s, "s")
    for variant in ("with", "without"):
        errors = [u.test_errors[f"{variant}_measurements"] for u in units if u.test_errors]
        out[f"cli.compare.test_error_{variant}"] = (
            _ratio(sum(errors), len(errors)),
            "energy",
        )
    return out
