"""Command-line harness: datasets, configuration, runs, and outputs.

Subcommands
-----------
gen-synthetic   write a transverse-field Ising .ham family for benchmarks
diag            exact ground energies for a set of bond lengths (CSV)
train           fit one seed and print the outcome
curve           train per seed, evaluate train+test points, write CSV+manifest
compare         run both network variants on identical seeds and splits
gradcheck       adjoint gradient against central differences, and the
                step-halving check of the central differences

Config file grammar (flat key: value lines, '#' comments, unknown keys
rejected, numbers ASCII as in .ham files)::

    dataset_dir: data/tfim4
    output_dir: out/run1
    variant: with_measurements        # with_measurements | without_measurements | both
    train_bond_lengths: 0.2 0.6 1.0 1.4 1.8
    test_bond_lengths: 0.4 0.8 1.2 1.6 2.0
    seeds: 0 1 2 3                    # distinct non-negative integers
    label: tfim4                      # label column of compare.txt (default: dataset_dir's name)
    max_iterations: 500
    gradient_norm_tolerance: 1e-5
    finite_difference_step: 1e-6

Only dataset_dir and output_dir are required; the grids, seeds, and
optimizer settings above are the defaults. A grid lists each bond length
once, and no bond length is in both grids; bond lengths within 1e-9
count as equal. Training uses the exact adjoint gradient, so
finite_difference_step governs only gradcheck.

Outputs use '.' decimal points, '\\n' line endings, and shortest
round-trip float formatting, so a rerun with the same config is
byte-identical. The manifest carries a timestamp; set SOURCE_DATE_EPOCH
(seconds since the epoch) to pin it for reproducible reruns. Every
subcommand checks SOURCE_DATE_EPOCH before it starts: a value that is
not an integer, or not a representable date, is a config error.

curve and compare score a trained model on the training pass: the
predicted energies of a split are one batched real forward pass over its
points, scored against its Hamiltonians, compiled once per variant. The
train energies are those of the pass training ended on, so per seed they
sum exactly (numpy's sum, in point order) to the final cost.

Exit codes: 0 success, 1 usage or config error, 2 data error,
3 numerical failure (a non-finite objective, gradient, gradient-check
deviation or error mean or std, or an eigensolver failure), 4 out of
memory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .network import NetworkSpec, Variant
from .optimize import NumericalError, OptimizerSettings, TrainingProblem
from .optimize import energies, gradient_deviations, init_params, train
from .oracle import EigensolverError, ground_energy
from .pauli import (
    HamParseError,
    PauliHamiltonian,
    PauliTerm,
    _NEGATIVE_REAL,
    ascii_float,
    ascii_int,
    format_hamiltonian,
    parse_hamiltonian,
)
from .statevector import MAX_QUBITS

# Not called here: imported so that perfbench/layers.py can hook them by name.
from .network import forward  # noqa: F401
from .pauli import expectation  # noqa: F401

BOND_LENGTH_TOLERANCE = 1e-9

DEFAULT_TRAIN_GRID = (0.2, 0.6, 1.0, 1.4, 1.8)
DEFAULT_TEST_GRID = (0.4, 0.8, 1.2, 1.6, 2.0)
DEFAULT_SEEDS = (0, 1, 2, 3)

CSV_HEADER = "bond_length,split,energy_predicted,energy_exact,abs_error,seed"


class ConfigError(ValueError):
    """Bad command line or configuration file."""


class DataError(ValueError):
    """Bad or missing dataset content."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_dir: Path
    output_dir: Path
    variant: str = Variant.WITH_MEASUREMENTS.value
    train_bond_lengths: tuple[float, ...] = DEFAULT_TRAIN_GRID
    test_bond_lengths: tuple[float, ...] = DEFAULT_TEST_GRID
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    settings: OptimizerSettings = OptimizerSettings()
    label: str = ""

    def __post_init__(self) -> None:
        allowed = {v.value for v in Variant} | {"both"}
        if self.variant not in allowed:
            raise ConfigError(
                f"variant must be one of {sorted(allowed)}, got {self.variant!r}"
            )
        if not self.train_bond_lengths:
            raise ConfigError("train_bond_lengths must be non-empty")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        for i, seed in enumerate(self.seeds):
            if seed < 0:
                raise ConfigError(f"seeds must be non-negative, got {seed}")
            if seed in self.seeds[:i]:
                raise ConfigError(f"seeds must be distinct, got {seed} twice")
        for a in self.train_bond_lengths + self.test_bond_lengths:
            if not math.isfinite(a):
                raise ConfigError(f"bond lengths must be finite, got {a}")
        for key in ("train_bond_lengths", "test_bond_lengths"):
            if (a := _repeated_bond_length(getattr(self, key))) is not None:
                raise ConfigError(f"{key} must be distinct, got {a!r} twice")
        for t in self.train_bond_lengths:
            for s in self.test_bond_lengths:
                if abs(t - s) <= BOND_LENGTH_TOLERANCE:
                    raise ConfigError(
                        f"bond length {t!r} appears in both train and test lists"
                    )
        if not self.label:
            object.__setattr__(self, "label", self.dataset_dir.name or "dataset")


def _repeated_bond_length(bond_lengths) -> float | None:
    """The first bond length within BOND_LENGTH_TOLERANCE of an earlier
    one, or None."""
    for i, a in enumerate(bond_lengths):
        for b in bond_lengths[:i]:
            if abs(a - b) <= BOND_LENGTH_TOLERANCE:
                return a
    return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key: value config grammar; see the module docstring."""
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected 'key: value', got {line!r}")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"config line {lineno}: empty value for {key!r}")
        seen[key] = value

    dataset_dir = seen.pop("dataset_dir", None)
    output_dir = seen.pop("output_dir", None)
    if dataset_dir is None or output_dir is None:
        raise ConfigError("config must set dataset_dir and output_dir")
    kwargs = {"dataset_dir": Path(dataset_dir), "output_dir": Path(output_dir)}
    settings_kwargs = {}
    for key, parse, target in (
        ("variant", None, kwargs),
        ("label", None, kwargs),
        ("train_bond_lengths", _parse_float_list, kwargs),
        ("test_bond_lengths", _parse_float_list, kwargs),
        ("seeds", _parse_int_list, kwargs),
        ("max_iterations", _parse_int, settings_kwargs),
        ("gradient_norm_tolerance", _parse_float, settings_kwargs),
        ("finite_difference_step", _parse_float, settings_kwargs),
    ):
        if (value := seen.pop(key, None)) is not None:
            target[key] = value if parse is None else parse(value, key)
    if seen:
        raise ConfigError(f"unknown config keys: {sorted(seen)}")
    try:
        kwargs["settings"] = OptimizerSettings(**settings_kwargs)
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: Path) -> ExperimentConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _parse_float(token: str, key: str) -> float:
    try:
        value = ascii_float(token)
    except ValueError:
        raise ConfigError(f"{key}: invalid number {token!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: non-finite value {token!r}")
    return value


def _parse_int(token: str, key: str) -> int:
    try:
        return ascii_int(token)
    except ValueError:
        raise ConfigError(f"{key}: invalid integer {token!r}") from None


def _parse_float_list(value: str, key: str) -> tuple[float, ...]:
    return tuple(_parse_float(tok, key) for tok in value.split())


def _parse_int_list(value: str, key: str) -> tuple[int, ...]:
    return tuple(_parse_int(tok, key) for tok in value.split())


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveDataset:
    """Bond-length-keyed Hamiltonians, sorted ascending; n_qubits is None
    only for the empty dataset."""

    entries: tuple[tuple[float, PauliHamiltonian], ...]
    n_qubits: int | None


def _scan_dataset(directory: Path) -> list[tuple[float, PauliHamiltonian, Path]]:
    """(bond_length, Hamiltonian, path) of every .ham file in the directory
    that has a bond_length, in file-name order. Files without one are
    skipped, each reported by path on stderr; a file on more than
    ``MAX_QUBITS`` qubits is a DataError, because no route can solve or
    train it."""
    if not directory.is_dir():
        raise DataError(f"dataset directory {directory} does not exist")
    available: list[tuple[float, PauliHamiltonian, Path]] = []
    for path in sorted(directory.glob("*.ham")):
        try:
            h = parse_hamiltonian(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        except (HamParseError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: {exc}") from exc
        if h.n_qubits > MAX_QUBITS:
            raise DataError(f"{path}: {h.n_qubits} qubits, limit is {MAX_QUBITS}")
        if h.bond_length is None:
            print(f"skipped {path}: no bond_length", file=sys.stderr)
        else:
            available.append((h.bond_length, h, path))
    return available


def load_dataset(directory: Path, bond_lengths) -> CurveDataset:
    """Match each requested bond length to exactly one .ham file in the
    directory (tolerance 1e-9 on the file's bond_length field)."""
    directory = Path(directory)
    return _match_dataset(_scan_dataset(directory), bond_lengths, directory)


def _match_dataset(available, bond_lengths, directory: Path) -> CurveDataset:
    """The dataset of the requested bond lengths, each matched to exactly
    one of the scanned files ``available`` of ``directory``."""
    requested = [float(a) for a in bond_lengths]
    chosen: list[tuple[float, PauliHamiltonian]] = []
    for a in requested:
        matches = [
            (b, h, p) for b, h, p in available if abs(b - a) <= BOND_LENGTH_TOLERANCE
        ]
        if not matches:
            raise DataError(f"no .ham file with bond_length {a!r} in {directory}")
        if len(matches) > 1:
            names = ", ".join(str(p.name) for _, _, p in matches)
            raise DataError(f"bond length {a!r} matches multiple files: {names}")
        chosen.append((matches[0][0], matches[0][1]))
    # Checked after the matching, which reports near-equal files first.
    if (a := _repeated_bond_length(requested)) is not None:
        raise DataError(f"bond length {a!r} requested twice")
    if not chosen:
        return CurveDataset((), None)
    counts = {h.n_qubits for _, h in chosen}
    if len(counts) > 1:
        raise DataError(f"mixed qubit counts in dataset: {sorted(counts)}")
    chosen.sort(key=lambda pair: pair[0])
    return CurveDataset(tuple(chosen), counts.pop())


def transverse_field_ising(n_qubits: int, field: float) -> PauliHamiltonian:
    """Open-chain H(a) = -sum_i Z_i Z_{i+1} - a sum_i X_i, tagged with the
    field strength a as its bond_length key."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    if not math.isfinite(field):
        raise ValueError(f"field must be finite, got {field}")
    terms: list[PauliTerm] = []
    for i in range(n_qubits - 1):
        axes = ["I"] * n_qubits
        axes[i] = axes[i + 1] = "Z"
        terms.append(PauliTerm.from_string(-1.0, "".join(axes)))
    for i in range(n_qubits):
        axes = ["I"] * n_qubits
        axes[i] = "X"
        terms.append(PauliTerm.from_string(-field, "".join(axes)))
    return PauliHamiltonian(n_qubits, tuple(terms), bond_length=float(field))


def gen_synthetic(directory: Path, n_qubits: int, bond_lengths) -> list[Path]:
    """Write one .ham file per bond length; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for a in bond_lengths:
        h = transverse_field_ising(n_qubits, float(a))
        path = directory / f"tfim_{n_qubits}q_{float(a)!r}.ham"
        path.write_text(format_hamiltonian(h), encoding="utf-8")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    final_cost: float
    iterations: int
    converged: bool
    sum_train_error: float
    sum_test_error: float


@dataclass(frozen=True)
class VariantSummary:
    variant: Variant
    outcomes: tuple[SeedOutcome, ...]
    train_error_mean: float
    train_error_std: float
    test_error_mean: float
    test_error_std: float


@dataclass(frozen=True)
class RunManifest:
    run: str
    version: str
    timestamp: str
    config: ExperimentConfig
    n_qubits: int
    sections: tuple[VariantSummary, ...]


def _run_timestamp() -> str:
    """Current UTC time, or SOURCE_DATE_EPOCH when set (reproducible runs)."""
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    if pinned is not None:
        try:
            moment = datetime.fromtimestamp(ascii_int(pinned), tz=timezone.utc)
        except (ValueError, OverflowError, OSError) as exc:
            raise ConfigError(f"bad SOURCE_DATE_EPOCH {pinned!r}: {exc}") from exc
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _run_one_variant(
    variant: Variant,
    config: ExperimentConfig,
    train_ds: CurveDataset,
    test_ds: CurveDataset,
    exact_train: list[float],
    exact_test: list[float],
) -> tuple[VariantSummary, list[str]]:
    """Train each seed, evaluate all points; returns the summary and the
    CSV rows (train rows then test rows, ascending bond length, per seed).

    Each non-empty split is one ``TrainingProblem``, so its Hamiltonians
    compile once. The train energies come from the pass that ``train``'s
    final cost kept; the test split costs one batched pass per seed."""
    assert train_ds.n_qubits is not None
    net = NetworkSpec(train_ds.n_qubits, variant)
    splits = [
        (split, TrainingProblem(net, dataset.entries), exact_values)
        for split, dataset, exact_values in (
            ("train", train_ds, exact_train),
            ("test", test_ds, exact_test),
        )
        if dataset.entries
    ]
    train_problem = splits[0][1]  # the train split is never empty
    outcomes: list[SeedOutcome] = []
    rows: list[str] = []
    for seed in config.seeds:
        model = train(train_problem, seed, config.settings)
        sums = {"train": 0.0, "test": 0.0}
        for split, problem, exact_values in splits:
            predicted = energies(model.parameters, problem)
            for (a, _), energy, exact in zip(
                problem.training_set, predicted, exact_values
            ):
                energy = float(energy)
                error = abs(energy - exact)
                sums[split] += error
                rows.append(
                    f"{a!r},{split},{energy!r},{exact!r},{error!r},{seed}"
                )
        outcomes.append(
            SeedOutcome(
                seed=seed,
                final_cost=model.final_cost,
                iterations=model.iterations_used,
                converged=model.converged,
                sum_train_error=sums["train"],
                sum_test_error=sums["test"],
            )
        )
    train_sums = [o.sum_train_error for o in outcomes]
    test_sums = [o.sum_test_error for o in outcomes]
    statistics = [float(f(sums)) for sums in (train_sums, test_sums) for f in (np.mean, np.std)]
    if not all(map(math.isfinite, statistics)):
        raise NumericalError(
            f"{variant.value}: non-finite mean or std of the summed errors: "
            "train {!r} +/- {!r}, test {!r} +/- {!r}".format(*statistics)
        )
    summary = VariantSummary(variant, tuple(outcomes), *statistics)
    return summary, rows


def _load_splits(config: ExperimentConfig) -> tuple[CurveDataset, CurveDataset]:
    """Train and test datasets from one scan of the dataset directory."""
    available = _scan_dataset(config.dataset_dir)
    train_ds = _match_dataset(available, config.train_bond_lengths, config.dataset_dir)
    test_ds = _match_dataset(available, config.test_bond_lengths, config.dataset_dir)
    if (
        test_ds.n_qubits is not None
        and train_ds.n_qubits is not None
        and test_ds.n_qubits != train_ds.n_qubits
    ):
        raise DataError(
            f"train files have {train_ds.n_qubits} qubits, "
            f"test files have {test_ds.n_qubits}"
        )
    return train_ds, test_ds


def _config_echo(config: ExperimentConfig) -> list[str]:
    s = config.settings
    return [
        f"dataset_dir: {config.dataset_dir}",
        f"output_dir: {config.output_dir}",
        f"label: {config.label}",
        f"variant: {config.variant}",
        "train_bond_lengths: " + " ".join(repr(a) for a in config.train_bond_lengths),
        "test_bond_lengths: " + " ".join(repr(a) for a in config.test_bond_lengths),
        "seeds: " + " ".join(str(s) for s in config.seeds),
        f"max_iterations: {s.max_iterations}",
        f"gradient_norm_tolerance: {s.gradient_norm_tolerance!r}",
        f"finite_difference_step: {s.finite_difference_step!r}",
    ]


def render_manifest(manifest: RunManifest) -> str:
    lines = [
        f"run: {manifest.run}",
        f"version: {manifest.version}",
        f"timestamp: {manifest.timestamp}",
        f"n_qubits: {manifest.n_qubits}",
    ]
    lines += _config_echo(manifest.config)
    for section in manifest.sections:
        lines.append(f"[{section.variant.value}]")
        for o in section.outcomes:
            lines.append(
                f"seed {o.seed}: final_cost={o.final_cost!r} "
                f"iterations={o.iterations} converged={str(o.converged).lower()} "
                f"sum_train_error={o.sum_train_error!r} "
                f"sum_test_error={o.sum_test_error!r}"
            )
        lines.append(
            f"sum_train_error: mean={section.train_error_mean!r} "
            f"std={section.train_error_std!r}"
        )
        lines.append(
            f"sum_test_error: mean={section.test_error_mean!r} "
            f"std={section.test_error_std!r}"
        )
    return "\n".join(lines) + "\n"


def render_compare_table(manifest: RunManifest) -> str:
    """Two-row ablation table: mean +/- std of the summed errors per variant."""
    header = (
        f"{'variant':<24} {'label':<12} "
        f"{'sum_train_error':<24} {'sum_test_error':<24}"
    )
    lines = [header]
    for section in manifest.sections:
        train_col = f"{section.train_error_mean:.6f} +/- {section.train_error_std:.6f}"
        test_col = f"{section.test_error_mean:.6f} +/- {section.test_error_std:.6f}"
        lines.append(
            f"{section.variant.value:<24} {manifest.config.label:<12} "
            f"{train_col:<24} {test_col:<24}"
        )
    return "\n".join(lines) + "\n"


def _write_output(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _run(config: ExperimentConfig, run: str, variants: tuple[Variant, ...]) -> RunManifest:
    """Train and evaluate each variant on one load of the splits and one
    set of exact energies; write the outputs once every variant is done.
    A curve writes results.csv, a compare one results_<variant>.csv per
    variant and compare.txt; both write manifest.txt."""
    timestamp = _run_timestamp()
    train_ds, test_ds = _load_splits(config)
    exact_train = [_exact_energy(a, h) for a, h in train_ds.entries]
    exact_test = [_exact_energy(a, h) for a, h in test_ds.entries]
    results = [
        _run_one_variant(variant, config, train_ds, test_ds, exact_train, exact_test)
        for variant in variants
    ]
    manifest = RunManifest(
        run=run,
        version=__version__,
        timestamp=timestamp,
        config=config,
        n_qubits=train_ds.n_qubits or 0,
        sections=tuple(summary for summary, _ in results),
    )
    outputs = {}
    for summary, rows in results:
        name = "results.csv" if run == "curve" else f"results_{summary.variant.value}.csv"
        outputs[name] = "\n".join([CSV_HEADER] + rows) + "\n"
    if run == "compare":
        outputs["compare.txt"] = render_compare_table(manifest)
    outputs["manifest.txt"] = render_manifest(manifest)
    for name, text in outputs.items():
        _write_output(config.output_dir / name, text)
    return manifest


def run_curve(config: ExperimentConfig) -> RunManifest:
    """Train per seed on the configured variant, evaluate every train and
    test point, and write results.csv plus manifest.txt to output_dir."""
    if config.variant == "both":
        raise ConfigError("curve needs a single variant, not 'both'")
    return _run(config, "curve", (Variant(config.variant),))


def run_compare(config: ExperimentConfig) -> RunManifest:
    """Run both variants on identical seeds and splits; write one CSV per
    variant, the ablation table (compare.txt), and manifest.txt."""
    if config.variant != "both":
        raise ConfigError("compare needs 'variant: both' so both networks run")
    if len(config.seeds) < 2:
        raise ConfigError("compare needs at least 2 seeds")
    return _run(config, "compare", (Variant.WITH_MEASUREMENTS, Variant.WITHOUT_MEASUREMENTS))


def _exact_energy(bond_length: float, h: PauliHamiltonian) -> float:
    """``ground_energy`` of h; an eigensolver failure names ``bond_length``."""
    try:
        return ground_energy(h)
    except EigensolverError as exc:
        raise EigensolverError(f"bond length {bond_length!r}: {exc}") from exc


def run_diag(dataset: CurveDataset) -> str:
    """CSV of exact ground energies, one row per dataset entry."""
    lines = ["bond_length,ground_energy"]
    for a, h in dataset.entries:
        lines.append(f"{a!r},{_exact_energy(a, h)!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A '-' token is a value, not an option, if it reads as a negative
        # number: by the package's grammar, so -1e-3 is one.
        self._negative_number_matcher = _NEGATIVE_REAL

    def error(self, message: str):  # route usage errors to exit code 1
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hqcnn",
        description="Hybrid quantum-classical network for ground-state energy curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write a transverse-field Ising .ham family")
    p.add_argument("--out-dir", required=True, type=Path)
    p.add_argument("--n-qubits", required=True, type=ascii_int)
    p.add_argument("--bond-lengths", required=True, type=ascii_float, nargs="+")

    p = sub.add_parser("diag", help="exact ground energies as CSV")
    p.add_argument("--dataset-dir", required=True, type=Path)
    p.add_argument("--bond-lengths", required=True, type=ascii_float, nargs="*")
    p.add_argument("--output", type=Path, help="CSV path (default: stdout)")

    p = sub.add_parser("train", help="fit one seed and print the outcome")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--seed", type=ascii_int, help="override (default: first config seed)")
    p.add_argument("--params-out", type=Path, help="write fitted angles, one per line")

    p = sub.add_parser("curve", help="train per seed and write results.csv + manifest.txt")
    p.add_argument("--config", required=True, type=Path)

    p = sub.add_parser("compare", help="run both variants; write ablation table")
    p.add_argument("--config", required=True, type=Path)

    p = sub.add_parser("gradcheck", help="check the gradient against central differences")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--seed", type=ascii_int, help="override (default: first config seed)")
    return parser


def _check_bond_length_flag(bond_lengths) -> None:
    """``--bond-lengths`` values must be finite and distinct; either fault
    is a config error."""
    for a in bond_lengths:
        if not math.isfinite(a):
            raise ConfigError(f"--bond-lengths must be finite, got {a}")
    if (a := _repeated_bond_length(bond_lengths)) is not None:
        raise ConfigError(f"--bond-lengths must be distinct, got {a!r} twice")


def _cmd_gen_synthetic(args) -> None:
    if not 1 <= args.n_qubits <= MAX_QUBITS:
        raise ConfigError(
            f"--n-qubits must be in [1, {MAX_QUBITS}], got {args.n_qubits}"
        )
    _check_bond_length_flag(args.bond_lengths)
    written = gen_synthetic(args.out_dir, args.n_qubits, args.bond_lengths)
    print(f"wrote {len(written)} files to {args.out_dir}")


def _cmd_diag(args) -> None:
    _check_bond_length_flag(args.bond_lengths)
    available = _scan_dataset(args.dataset_dir)
    bond_lengths = args.bond_lengths
    if not bond_lengths:  # no values: every file in the directory
        bond_lengths = sorted({a for a, _, _ in available})
        if not bond_lengths:
            raise DataError(f"no .ham file with a bond_length in {args.dataset_dir}")
    dataset = _match_dataset(available, bond_lengths, args.dataset_dir)
    text = run_diag(dataset)
    if args.output is None:
        sys.stdout.write(text)
    else:
        _write_output(args.output, text)
        print(f"wrote {args.output}")


def _training_setup(args, where: str) -> tuple[ExperimentConfig, int, TrainingProblem]:
    """Config, seed and training problem of a single-variant subcommand."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    config = load_config(args.config)
    if config.variant == "both":
        raise ConfigError(f"{where} needs a single variant, not 'both'")
    seed = args.seed if args.seed is not None else config.seeds[0]
    train_ds = load_dataset(config.dataset_dir, config.train_bond_lengths)
    net = NetworkSpec(train_ds.n_qubits, Variant(config.variant))
    return config, seed, TrainingProblem(net, train_ds.entries)


def _cmd_train(args) -> None:
    config, seed, problem = _training_setup(args, "train")
    model = train(problem, seed, config.settings)
    print(
        f"seed {seed}: final_cost={model.final_cost!r} "
        f"iterations={model.iterations_used} "
        f"converged={str(model.converged).lower()}"
    )
    if args.params_out is not None:
        _write_output(
            args.params_out,
            "\n".join(repr(float(v)) for v in model.parameters) + "\n",
        )
        print(f"wrote {args.params_out}")


def _cmd_curve(args) -> None:
    config = load_config(args.config)
    manifest = run_curve(config)
    section = manifest.sections[0]
    print(
        f"curve done: sum_train_error mean={section.train_error_mean!r} "
        f"sum_test_error mean={section.test_error_mean!r}"
    )
    print(f"wrote {config.output_dir / 'results.csv'}")
    print(f"wrote {config.output_dir / 'manifest.txt'}")


def _cmd_compare(args) -> None:
    config = load_config(args.config)
    manifest = run_compare(config)
    sys.stdout.write(render_compare_table(manifest))
    print(f"wrote {config.output_dir / 'compare.txt'}")


def _cmd_gradcheck(args) -> None:
    config, seed, problem = _training_setup(args, "gradcheck")
    params = init_params(problem.network.n_params, seed)
    adjoint, step = gradient_deviations(
        params, problem, config.settings.finite_difference_step
    )
    print(f"max relative deviation (adjoint vs FD): {adjoint!r}")
    print(f"max relative gradient deviation (h vs h/2): {step!r}")


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "diag": _cmd_diag,
    "train": _cmd_train,
    "curve": _cmd_curve,
    "compare": _cmd_compare,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _run_timestamp()  # a bad SOURCE_DATE_EPOCH fails before any work
        _COMMANDS[args.command](args)
        return 0
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, HamParseError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, EigensolverError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
