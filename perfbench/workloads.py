"""The benchmark's workloads.

Each workload generates its inputs from the workload seed, sets the
program up (``setup``), and then offers a plan: a list of work units, each
a call into hqcnn whose outputs are checked right after it returns. A unit
reports how many operations it attempted and how many failed, and how
many ``ops`` it completed; ``ops_per_s`` is ops over the unit's wall time.
A workload whose ops are made of short calls also times those calls one
by one when measured (``time_calls``), so that ``run.py`` can read their
speed from the fastest of them (see ``run.fast_ops_per_s``).

A training operation (one seed of one variant) fails if it raises,
returns a non-finite cost, or predicts an energy below the exact ground
energy by more than ``TOLERANCE``, which would break the variational
bound. An oracle operation (one Hamiltonian) fails if the dense and the
Lanczos routes differ by more than ``TOLERANCE``.
"""

from __future__ import annotations

import csv
import math
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from hqcnn import cli, network, optimize, oracle, pauli
from hqcnn.network import NetworkSpec, Variant

TOLERANCE = 1e-9


@dataclass
class UnitResult:
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    # (iterations, converged, final cost minus the summed exact energies)
    trainings: list[tuple[int, bool, float]] = field(default_factory=list)
    # mean summed test error per variant value
    test_errors: dict[str, float] = field(default_factory=dict)


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


class Workload:
    name = ""
    op = ""  # what ops_per_s counts: "bfgs_iters", "gradients" or "solves"

    def __init__(self, seed: int, tiny: bool, work_dir: Path, pause=nullcontext):
        self.seed = seed
        self.tiny = tiny
        self.data_dir = work_dir / "data"
        self.out_dir = work_dir / "out"
        self.pause = pause

    def setup(self) -> None:
        raise NotImplementedError

    def plan(self) -> list:
        raise NotImplementedError

    def time_calls(self) -> dict[str, list[float]]:
        """Start timing the workload's short calls; returns the per-kind
        lists of call durations that the timed phase fills (none here)."""
        return {}

    def _reference(self, entries) -> dict[float, float]:
        """Exact ground energies for the checks, by the Lanczos route."""
        with self.pause():
            return {a: oracle.ground_energy_iterative(h) for a, h in entries}

    def _energy_ok(self, energy: float, a: float) -> bool:
        return math.isfinite(energy) and energy >= self.reference[a] - TOLERANCE


class CompareTfim4(Workload):
    name = "compare-tfim4"
    op = "bfgs_iters"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n = 2 if self.tiny else 4
        self.seeds = tuple(self.seed + i for i in range(2 if self.tiny else 4))
        self.max_iterations = 3 if self.tiny else 500

    def setup(self) -> None:
        train_grid, test_grid = cli.DEFAULT_TRAIN_GRID, cli.DEFAULT_TEST_GRID
        cli.gen_synthetic(self.data_dir, self.n, train_grid + test_grid)
        train_ds = cli.load_dataset(self.data_dir, train_grid)
        test_ds = cli.load_dataset(self.data_dir, test_grid)
        self.config = cli.ExperimentConfig(
            dataset_dir=self.data_dir,
            output_dir=self.out_dir,
            variant="both",
            seeds=self.seeds,
            settings=optimize.OptimizerSettings(max_iterations=self.max_iterations),
        )
        problem = optimize.TrainingProblem(
            NetworkSpec(self.n, Variant.WITH_MEASUREMENTS), train_ds.entries
        )
        self.n_points = len(train_ds.entries) + len(test_ds.entries)
        self.reference = self._reference(train_ds.entries + test_ds.entries)
        self.train_exact = sum(self.reference[a] for a, _ in train_ds.entries)
        with self.pause():
            x = optimize.init_params(problem.network.n_params, 0)
            optimize.cost(x, problem)
            optimize.gradient(x, problem)
            oracle.ground_energy(train_ds.entries[0][1])

    def plan(self) -> list:
        return [self.run]

    def time_calls(self) -> dict[str, list[float]]:
        """Time every cost and gradient call, by kind and network variant;
        these calls of a few milliseconds are most of a compare's time."""
        calls: dict[str, list[float]] = {}
        clock = time.perf_counter
        for name in ("cost", "gradient"):
            fn = getattr(optimize, name)

            def timed(params, problem, *args, _fn=fn, _name=name, **kwargs):
                start = clock()
                try:
                    return _fn(params, problem, *args, **kwargs)
                finally:
                    key = f"{_name}.{problem.network.variant.value}"
                    calls.setdefault(key, []).append(clock() - start)

            setattr(optimize, name, timed)
        return calls

    def run(self) -> UnitResult:
        result = UnitResult(attempted=2 * len(self.seeds))
        try:
            manifest = cli.run_compare(self.config)
        except Exception as exc:
            _report(exc)
            result.failed = result.attempted
            return result
        with self.pause():
            for section in manifest.sections:
                rows = self._rows(section.variant)
                result.test_errors[section.variant.value] = section.test_error_mean
                for outcome in section.outcomes:
                    ok = math.isfinite(outcome.final_cost) and self._rows_ok(
                        rows.get(outcome.seed, [])
                    )
                    result.failed += not ok
                    result.ops += outcome.iterations
                    result.trainings.append(
                        (
                            outcome.iterations,
                            outcome.converged,
                            outcome.final_cost - self.train_exact,
                        )
                    )
        return result

    def _rows(self, variant: Variant) -> dict[int, list[dict[str, str]]]:
        by_seed: dict[int, list[dict[str, str]]] = {}
        path = self.out_dir / f"results_{variant.value}.csv"
        with path.open(encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                by_seed.setdefault(int(row["seed"]), []).append(row)
        return by_seed

    def _rows_ok(self, rows: list[dict[str, str]]) -> bool:
        if len(rows) != self.n_points:
            return False
        for row in rows:
            a = float(row["bond_length"])
            exact = float(row["energy_exact"])
            if a not in self.reference or abs(exact - self.reference[a]) > TOLERANCE:
                return False
            if not self._energy_ok(float(row["energy_predicted"]), a):
                return False
        return True


class TrainTfim8(Workload):
    name = "train-tfim8"
    op = "gradients"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n = 2 if self.tiny else 8
        self.seeds = (self.seed, self.seed + 1)
        self.settings = optimize.OptimizerSettings(max_iterations=3 if self.tiny else 10)

    def setup(self) -> None:
        grid = cli.DEFAULT_TRAIN_GRID
        cli.gen_synthetic(self.data_dir, self.n, grid)
        dataset = cli.load_dataset(self.data_dir, grid)
        self.problem = optimize.TrainingProblem(
            NetworkSpec(self.n, Variant.WITH_MEASUREMENTS), dataset.entries
        )
        self.reference = self._reference(dataset.entries)
        self.train_exact = sum(self.reference.values())
        with self.pause():
            x = optimize.init_params(self.problem.network.n_params, 0)
            optimize.cost(x, self.problem)
            optimize.gradient(x, self.problem)
        # ops are gradient evaluations, which the iteration cap does not fix
        # (line searches add some); one count per ~1 s call costs nothing.
        self.gradients = 0
        gradient = optimize.gradient

        def counted(*args, **kwargs):
            self.gradients += 1
            return gradient(*args, **kwargs)

        optimize.gradient = counted

    def plan(self) -> list:
        return [partial(self.run, seed) for seed in self.seeds]

    def run(self, seed: int) -> UnitResult:
        result = UnitResult(attempted=1)
        before = self.gradients
        try:
            model = optimize.train(self.problem, seed, self.settings)
        except Exception as exc:
            _report(exc)
            result.failed = 1
            return result
        with self.pause():
            ok = math.isfinite(model.final_cost)
            for a, h in self.problem.training_set:
                psi = network.forward(self.problem.network, a, model.parameters)
                ok = ok and self._energy_ok(pauli.expectation(h, psi), a)
        result.failed = int(not ok)
        result.ops = self.gradients - before
        result.trainings.append(
            (model.iterations_used, model.converged, model.final_cost - self.train_exact)
        )
        return result


class OracleTfim10(Workload):
    name = "oracle-tfim10"
    op = "solves"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n = 2 if self.tiny else 10
        offset = float(np.random.default_rng(self.seed).uniform(0.0, 0.25))
        self.fields = tuple(0.2 + offset + 0.25 * i for i in range(2 if self.tiny else 8))

    def setup(self) -> None:
        cli.gen_synthetic(self.data_dir, self.n, self.fields)
        self.dataset = cli.load_dataset(self.data_dir, self.fields)
        with self.pause():
            h = self.dataset.entries[0][1]
            oracle.ground_energy(h)
            oracle.ground_energy_iterative(h)

    def plan(self) -> list:
        return [partial(self.solve, h) for _, h in self.dataset.entries]

    def solve(self, h: pauli.PauliHamiltonian) -> UnitResult:
        result = UnitResult(attempted=1, ops=1)
        try:
            dense = oracle.ground_energy(h)
            lanczos = oracle.ground_energy_iterative(h)
        except Exception as exc:
            _report(exc)
            result.failed = 1
            return result
        ok = math.isfinite(dense) and abs(dense - lanczos) <= TOLERANCE
        result.failed = int(not ok)
        return result


WORKLOADS = {w.name: w for w in (CompareTfim4, TrainTfim8, OracleTfim10)}
