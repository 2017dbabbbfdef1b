import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dense_ref as ref
import hqcnn.cli as cli
import hqcnn.network as network
import hqcnn.optimize as optimize
import hqcnn.oracle as oracle
import hqcnn.pauli as pauli
from hqcnn.cli import (
    ConfigError,
    DataError,
    ExperimentConfig,
    gen_synthetic,
    load_dataset,
    main,
    parse_config,
    run_curve,
    run_compare,
    run_diag,
    transverse_field_ising,
)
from hqcnn.network import NetworkSpec, Variant
from hqcnn.optimize import (
    NumericalError,
    OptimizerSettings,
    TrainingProblem,
    finite_difference_gradient,
    gradient,
    init_params,
)
from hqcnn.oracle import ground_energy
from hqcnn.pauli import parse_hamiltonian
from hqcnn.statevector import MAX_QUBITS


@pytest.fixture
def tfim2_dir(tmp_path):
    d = tmp_path / "data"
    gen_synthetic(d, 2, [0.5, 1.0, 1.5, 2.0])
    return d


def _fast_config(dataset_dir, output_dir, **overrides):
    base = dict(
        dataset_dir=dataset_dir,
        output_dir=output_dir,
        variant="with_measurements",
        train_bond_lengths=(0.5, 1.5),
        test_bond_lengths=(1.0,),
        seeds=(0, 1),
        settings=OptimizerSettings(max_iterations=30),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_minimal_config_uses_defaults(self):
        cfg = parse_config("dataset_dir: data\noutput_dir: out\n")
        assert cfg.train_bond_lengths == cli.DEFAULT_TRAIN_GRID
        assert cfg.test_bond_lengths == cli.DEFAULT_TEST_GRID
        assert cfg.seeds == cli.DEFAULT_SEEDS
        assert cfg.variant == "with_measurements"
        assert cfg.settings == OptimizerSettings()
        assert cfg.label == "data"

    def test_full_config(self):
        text = (
            "dataset_dir: d\noutput_dir: o\nvariant: both\nlabel: tfim\n"
            "train_bond_lengths: 0.5 1.5\ntest_bond_lengths: 1.0\n"
            "seeds: 3 4\nmax_iterations: 99\n"
            "gradient_norm_tolerance: 1e-4\nfinite_difference_step: 1e-7\n"
            "# trailing comment\n"
        )
        cfg = parse_config(text)
        assert cfg.variant == "both"
        assert cfg.label == "tfim"
        assert cfg.train_bond_lengths == (0.5, 1.5)
        assert cfg.seeds == (3, 4)
        assert cfg.settings == OptimizerSettings(99, 1e-4, 1e-7)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError):
            parse_config("output_dir: out\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config("dataset_dir: d\noutput_dir: o\nshots: 100\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("dataset_dir: d\ndataset_dir: e\noutput_dir: o\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config("dataset_dir: d\noutput_dir: o\nseeds: x\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("seeds: 0 \u0662", "seeds: invalid integer '\u0662'"),
            ("max_iterations: 1_0", "max_iterations: invalid integer '1_0'"),
            ("train_bond_lengths: 0.5 1_0", "train_bond_lengths: invalid number '1_0'"),
            ("gradient_norm_tolerance: \u0661e-5", "gradient_norm_tolerance: invalid number"),
        ],
    )
    def test_numbers_are_ascii(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(f"dataset_dir: d\noutput_dir: o\n{line}\n")

    def test_train_test_overlap_rejected(self):
        text = (
            "dataset_dir: d\noutput_dir: o\n"
            "train_bond_lengths: 0.5 1.0\ntest_bond_lengths: 1.0\n"
        )
        with pytest.raises(ConfigError, match="both train and test"):
            parse_config(text)

    def test_bad_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            parse_config("dataset_dir: d\noutput_dir: o\nvariant: hybrid\n")


class TestSyntheticFamily:
    def test_two_qubit_terms(self):
        h = transverse_field_ising(2, 1.0)
        got = {(t.coefficient, t.axis_string) for t in h.terms}
        assert got == {(-1.0, "ZZ"), (-1.0, "XI"), (-1.0, "IX")}
        # ZZ coupling rows come before the field rows
        assert h.terms[0].axis_string == "ZZ"

    def test_zero_field_ground_energy(self):
        assert ground_energy(transverse_field_ising(2, 0.0)) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_files_round_trip(self, tmp_path):
        paths = gen_synthetic(tmp_path, 3, [0.2, 1.0])
        assert len(paths) == 2
        for path in paths:
            h = parse_hamiltonian(path.read_text())
            assert h.n_qubits == 3
            assert h.bond_length is not None
            assert len(h.terms) == 2 + 3


class TestLoadDataset:
    def test_selects_requested_subset(self, tfim2_dir):
        ds = load_dataset(tfim2_dir, [1.5, 0.5])
        assert ds.n_qubits == 2
        assert [a for a, _ in ds.entries] == [0.5, 1.5]  # sorted ascending

    def test_empty_request(self, tfim2_dir):
        ds = load_dataset(tfim2_dir, [])
        assert ds.entries == ()
        assert ds.n_qubits is None

    def test_missing_bond_length_names_it(self, tfim2_dir):
        with pytest.raises(DataError, match="0.7"):
            load_dataset(tfim2_dir, [0.7])

    def test_duplicate_file_match(self, tfim2_dir):
        extra = transverse_field_ising(2, 1.0)
        (tfim2_dir / "dup.ham").write_text(cli.format_hamiltonian(extra))
        with pytest.raises(DataError, match=r"^bond length 1\.0 matches multiple files: "):
            load_dataset(tfim2_dir, [1.0])

    def test_mixed_qubit_counts(self, tfim2_dir):
        gen_synthetic(tfim2_dir, 3, [0.25])
        with pytest.raises(DataError, match="mixed qubit counts"):
            load_dataset(tfim2_dir, [0.25, 0.5])

    def test_duplicate_request(self, tfim2_dir):
        with pytest.raises(DataError, match=r"^bond length 0\.5 requested twice$"):
            load_dataset(tfim2_dir, [0.5, 0.5])

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="does not exist"):
            load_dataset(tmp_path / "nope", [0.5])

    def test_malformed_file_reported_with_name(self, tfim2_dir):
        (tfim2_dir / "broken.ham").write_text("qubits: 2\nterm: 1.0 QQ\n")
        with pytest.raises(DataError, match="broken.ham"):
            load_dataset(tfim2_dir, [0.5])


class TestDiag:
    def test_matches_oracle(self, tfim2_dir):
        ds = load_dataset(tfim2_dir, [0.5, 1.0])
        text = run_diag(ds)
        lines = text.strip().split("\n")
        assert lines[0] == "bond_length,ground_energy"
        for line, (a, h) in zip(lines[1:], ds.entries):
            a_str, e_str = line.split(",")
            assert float(a_str) == a
            assert float(e_str) == ground_energy(h)

    def test_empty_dataset(self):
        assert run_diag(cli.CurveDataset((), None)) == "bond_length,ground_energy\n"


class TestRunCurve:
    def test_csv_and_manifest(self, tfim2_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out = tmp_path / "out"
        config = _fast_config(tfim2_dir, out)
        manifest = run_curve(config)

        csv_lines = (out / "results.csv").read_text().strip().split("\n")
        assert csv_lines[0] == cli.CSV_HEADER
        rows = [line.split(",") for line in csv_lines[1:]]
        # 2 seeds x (2 train + 1 test)
        assert len(rows) == 6
        assert {r[1] for r in rows} == {"train", "test"}
        train_lengths = {r[0] for r in rows if r[1] == "train"}
        test_lengths = {r[0] for r in rows if r[1] == "test"}
        assert not train_lengths & test_lengths  # split hygiene

        # manifest sums equal CSV column sums, accumulated in row order
        sums: dict[tuple[int, str], float] = {}
        for r in rows:
            key = (int(r[5]), r[1])
            sums[key] = sums.get(key, 0.0) + float(r[4])
        for outcome in manifest.sections[0].outcomes:
            assert sums[(outcome.seed, "train")] == pytest.approx(
                outcome.sum_train_error, abs=1e-12
            )
            assert sums[(outcome.seed, "test")] == pytest.approx(
                outcome.sum_test_error, abs=1e-12
            )

        manifest_text = (out / "manifest.txt").read_text()
        assert "timestamp: 2023-11-14T22:13:20Z" in manifest_text
        for outcome in manifest.sections[0].outcomes:
            assert f"sum_train_error={outcome.sum_train_error!r}" in manifest_text

        # energies respect the variational bound
        for r in rows:
            assert float(r[2]) >= float(r[3]) - 1e-9

    def test_file_without_bond_length_reported_once(self, tfim2_dir, tmp_path, capsys):
        # The train and test splits come from one scan of the directory.
        path = tfim2_dir / "unlabelled.ham"
        path.write_text("qubits: 2\nterm: 1.0 ZZ\n")
        settings = OptimizerSettings(max_iterations=2)
        run_curve(_fast_config(tfim2_dir, tmp_path / "out", seeds=(0,), settings=settings))
        assert capsys.readouterr().err.count(f"skipped {path}: no bond_length") == 1

    def test_rerun_is_byte_identical(self, tfim2_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out = tmp_path / "out"
        config = _fast_config(
            tfim2_dir, out, seeds=(0,), settings=OptimizerSettings(max_iterations=20)
        )
        run_curve(config)
        first_csv = (out / "results.csv").read_bytes()
        first_manifest = (out / "manifest.txt").read_bytes()
        run_curve(config)
        assert (out / "results.csv").read_bytes() == first_csv
        assert (out / "manifest.txt").read_bytes() == first_manifest

    def test_rejects_both_variant(self, tfim2_dir, tmp_path):
        config = _fast_config(tfim2_dir, tmp_path / "o", variant="both")
        with pytest.raises(ConfigError, match="single variant"):
            run_curve(config)


class TestRunCompare:
    def test_requires_both_variant(self, tfim2_dir, tmp_path):
        config = _fast_config(tfim2_dir, tmp_path / "o")
        with pytest.raises(ConfigError, match="both"):
            run_compare(config)

    def test_requires_two_seeds(self, tfim2_dir, tmp_path):
        config = _fast_config(tfim2_dir, tmp_path / "o", variant="both", seeds=(0,))
        with pytest.raises(ConfigError, match="2 seeds"):
            run_compare(config)

    def test_outputs(self, tfim2_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out = tmp_path / "cmp"
        config = _fast_config(
            tfim2_dir,
            out,
            variant="both",
            settings=OptimizerSettings(max_iterations=15),
        )
        manifest = run_compare(config)
        assert [s.variant.value for s in manifest.sections] == [
            "with_measurements",
            "without_measurements",
        ]
        table = (out / "compare.txt").read_text()
        assert "with_measurements" in table
        assert "+/-" in table
        assert (out / "results_with_measurements.csv").exists()
        assert (out / "results_without_measurements.csv").exists()
        # identical seeds for the two variants
        seeds = [tuple(o.seed for o in s.outcomes) for s in manifest.sections]
        assert seeds[0] == seeds[1]


class TestScoring:
    """curve and compare score a trained model with ``optimize.energies``
    on one TrainingProblem per split, never with the single-state path."""

    @staticmethod
    def _csv_rows(path):
        return [line.split(",") for line in path.read_text().strip().split("\n")[1:]]

    def test_train_energies_sum_to_final_cost(self, tfim2_dir, tmp_path):
        out = tmp_path / "out"
        manifest = run_curve(_fast_config(tfim2_dir, out))
        rows = self._csv_rows(out / "results.csv")
        for outcome in manifest.sections[0].outcomes:
            predicted = [
                float(r[2]) for r in rows if r[1] == "train" and int(r[5]) == outcome.seed
            ]
            assert len(predicted) == 2
            assert float(np.sum(np.array(predicted))) == outcome.final_cost

    def test_never_calls_single_state_path(self, tfim2_dir, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("single-state path called")

        monkeypatch.setattr(cli, "forward", refuse)
        monkeypatch.setattr(cli, "expectation", refuse)
        settings = OptimizerSettings(max_iterations=5)
        run_compare(_fast_config(tfim2_dir, tmp_path / "c", variant="both", settings=settings))
        run_curve(_fast_config(tfim2_dir, tmp_path / "o", settings=settings))

    @pytest.mark.parametrize(
        "variant, test_bond_lengths, sizes",
        [("both", (1.0,), [2, 1, 2, 1]), ("with_measurements", (), [2])],
    )
    def test_compiles_each_split_once_per_variant(
        self, variant, test_bond_lengths, sizes, tfim2_dir, tmp_path, monkeypatch
    ):
        compiled = []
        compile_hamiltonians = pauli.compile_hamiltonians

        def spy(hamiltonians):
            hamiltonians = tuple(hamiltonians)
            compiled.append(len(hamiltonians))
            return compile_hamiltonians(hamiltonians)

        monkeypatch.setattr(pauli, "compile_hamiltonians", spy)
        monkeypatch.setattr(optimize, "compile_hamiltonians", spy)
        config = _fast_config(
            tfim2_dir,
            tmp_path / "o",
            variant=variant,
            test_bond_lengths=test_bond_lengths,
            settings=OptimizerSettings(max_iterations=5),
        )
        (run_compare if variant == "both" else run_curve)(config)
        assert compiled == sizes

    @pytest.mark.parametrize(
        "variant, test_bond_lengths, after_training",
        [("both", (1.0,), [(1.0,)]), ("with_measurements", (), [])],
    )
    def test_one_test_pass_per_seed_after_training(
        self, variant, test_bond_lengths, after_training, tfim2_dir, tmp_path, monkeypatch
    ):
        events = []
        train = cli.train

        def spy_train(*args, **kwargs):
            events.append("train")
            model = train(*args, **kwargs)
            events.append("trained")
            return model

        # A pass runs on the encoded columns of its bond lengths; the
        # encodings are kept, so each is traced back to its bond lengths.
        # Both the dense and the tile path run through _forward_pass.
        bond_lengths = {}
        input_rows, forward_pass = network._input_rows, network._forward_pass

        def spy_inputs(net, inputs):
            encoded = input_rows(net, inputs)
            bond_lengths[id(encoded)] = (encoded, tuple(float(a) for a in inputs))
            return encoded

        def spy_pass(net, encoded, *args):
            kept, inputs = bond_lengths[id(encoded)]
            assert kept is encoded
            events.append(inputs)
            return forward_pass(net, encoded, *args)

        monkeypatch.setattr(cli, "train", spy_train)
        monkeypatch.setattr(network, "_input_rows", spy_inputs)
        monkeypatch.setattr(optimize, "_input_rows", spy_inputs)
        monkeypatch.setattr(network, "_forward_pass", spy_pass)
        monkeypatch.setattr(optimize, "_forward_pass", spy_pass)
        config = _fast_config(
            tfim2_dir,
            tmp_path / "o",
            variant=variant,
            test_bond_lengths=test_bond_lengths,
            settings=OptimizerSettings(max_iterations=5),
        )
        (run_compare if variant == "both" else run_curve)(config)
        # The passes between the end of one training and the start of the
        # next (or the end of the run) score the trained model.
        scoring = []
        for i, event in enumerate(events):
            if event == "trained":
                rest = events[i + 1 :]
                scoring.append(rest[: rest.index("train")] if "train" in rest else rest)
        assert len(scoring) == len(config.seeds) * (2 if variant == "both" else 1)
        assert all(passes == after_training for passes in scoring)

    def test_without_test_split_writes_train_rows_only(self, tfim2_dir, tmp_path):
        out = tmp_path / "out"
        config = _fast_config(
            tfim2_dir, out, test_bond_lengths=(), settings=OptimizerSettings(max_iterations=5)
        )
        manifest = run_curve(config)
        rows = self._csv_rows(out / "results.csv")
        assert [(r[0], r[1], r[5]) for r in rows] == [
            ("0.5", "train", "0"),
            ("1.5", "train", "0"),
            ("0.5", "train", "1"),
            ("1.5", "train", "1"),
        ]
        for outcome in manifest.sections[0].outcomes:
            assert outcome.sum_test_error == 0.0
        assert manifest.sections[0].test_error_mean == 0.0
        assert (out / "manifest.txt").read_text().count("sum_test_error=0.0\n") == 2


def _cli_subprocess(argv, module="hqcnn.cli", **env):
    """Run ``python -m <module>`` on the package sources in a fresh
    interpreter, so that import-time behaviour is covered too."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    environment = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **env)
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=environment,
        timeout=120,
    )


class TestMain:
    def test_usage_error_exit_1(self, capsys):
        assert main(["curve"]) == 1

    def test_unknown_command_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0

    def test_gen_and_diag_happy_path(self, tmp_path, capsys):
        data = tmp_path / "d"
        assert (
            main(
                [
                    "gen-synthetic",
                    "--out-dir",
                    str(data),
                    "--n-qubits",
                    "2",
                    "--bond-lengths",
                    "0.5",
                    "1.0",
                ]
            )
            == 0
        )
        assert main(["diag", "--dataset-dir", str(data), "--bond-lengths", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "bond_length,ground_energy" in out

    def test_diag_without_values_loads_whole_directory(self, tmp_path, capsys):
        data = tmp_path / "d"
        gen_synthetic(data, 2, [1.0, 0.5])
        assert main(["diag", "--dataset-dir", str(data), "--bond-lengths"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "bond_length,ground_energy"
        assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "1.0"]
        for line in lines[1:]:
            a, energy = (float(x) for x in line.split(","))
            assert energy == ground_energy(transverse_field_ising(2, a))

    def test_diag_above_dense_limit_uses_lanczos(self, tmp_path, capsys):
        # 13 qubits is past to_dense's 12-qubit cap; the free-fermion
        # energy is an independent reference.
        data = tmp_path / "d"
        gen_synthetic(data, 13, [1.3])
        assert main(["diag", "--dataset-dir", str(data), "--bond-lengths", "1.3"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        a, energy = (float(x) for x in row.split(","))
        exact = ref.tfim_ground_energy(13, 1.3)
        assert a == 1.3
        assert energy == pytest.approx(exact, abs=1e-9)

    def test_diag_output_file(self, tmp_path):
        data = tmp_path / "d"
        gen_synthetic(data, 2, [0.5])
        target = tmp_path / "diag.csv"
        code = main(
            [
                "diag",
                "--dataset-dir",
                str(data),
                "--bond-lengths",
                "0.5",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        assert target.read_text().startswith("bond_length,ground_energy")

    def test_data_error_exit_2(self, tmp_path, capsys):
        data = tmp_path / "d"
        gen_synthetic(data, 2, [0.5])
        assert main(["diag", "--dataset-dir", str(data), "--bond-lengths", "0.9"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_config_error_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("dataset_dir: d\noutput_dir: o\nwat: 1\n")
        assert main(["curve", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_numerical_error_exit_3(self, tmp_path, monkeypatch, capsys):
        def boom(args):
            raise NumericalError("introduced for the exit-code path")

        monkeypatch.setitem(cli._COMMANDS, "diag", boom)
        code = main(["diag", "--dataset-dir", str(tmp_path), "--bond-lengths"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 GiB for an array", ""])
    def test_out_of_memory_exit_4(self, tmp_path, monkeypatch, capsys, message):
        # Stands in for an allocation that fails near the 20-qubit limit;
        # nothing large is allocated.
        def boom(args):
            raise MemoryError(message)

        monkeypatch.setitem(cli._COMMANDS, "diag", boom)
        code = main(["diag", "--dataset-dir", str(tmp_path), "--bond-lengths"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert message in err

    def test_train_subcommand(self, tfim2_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"dataset_dir: {tfim2_dir}\noutput_dir: {tmp_path / 'o'}\n"
            "train_bond_lengths: 0.5 1.5\ntest_bond_lengths: 1.0\n"
            "seeds: 0\nmax_iterations: 20\n"
        )
        params_file = tmp_path / "params.txt"
        code = main(
            ["train", "--config", str(cfg), "--params-out", str(params_file)]
        )
        assert code == 0
        assert "final_cost=" in capsys.readouterr().out
        values = [float(line) for line in params_file.read_text().split()]
        assert len(values) == 8

    def test_gradcheck_subcommand(self, tfim2_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"dataset_dir: {tfim2_dir}\noutput_dir: {tmp_path / 'o'}\n"
            "train_bond_lengths: 0.5 1.5\ntest_bond_lengths: 1.0\nseeds: 0\n"
        )
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        deviation = float(out.strip().rsplit(" ", 1)[-1])
        assert deviation < 1e-4
        first = out.split("\n")[0]
        assert first.startswith("max relative deviation (adjoint vs FD): ")
        assert float(first.rsplit(" ", 1)[-1]) < 1e-6

    @pytest.mark.parametrize("n_qubits", ["0", "25"])
    def test_gen_synthetic_rejects_qubit_count(self, n_qubits, tmp_path, capsys):
        data = tmp_path / "d"
        code = main(
            [
                "gen-synthetic",
                "--out-dir",
                str(data),
                "--n-qubits",
                n_qubits,
                "--bond-lengths",
                "0.5",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not data.exists()

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_gen_synthetic_rejects_non_finite_bond_length(self, bad, tmp_path, capsys):
        data = tmp_path / "d"
        code = main(
            [
                "gen-synthetic",
                "--out-dir",
                str(data),
                "--n-qubits",
                "2",
                "--bond-lengths",
                "0.3",
                bad,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --bond-lengths must be finite")
        assert "Traceback" not in err
        assert not data.exists()

    def test_negative_config_seed_exit_1(self, tfim2_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "o"
        cfg.write_text(
            f"dataset_dir: {tfim2_dir}\noutput_dir: {out}\n"
            "train_bond_lengths: 0.5 1.5\ntest_bond_lengths: 1.0\nseeds: -1 2\n"
        )
        assert main(["curve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: seeds must be non-negative, got -1")
        assert "Traceback" not in err
        assert not out.exists()

    def test_duplicate_config_seed_exit_1(self, tfim2_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "o"
        cfg.write_text(
            f"dataset_dir: {tfim2_dir}\noutput_dir: {out}\nvariant: both\n"
            "train_bond_lengths: 0.5 1.5\ntest_bond_lengths: 1.0\nseeds: 3 3\n"
        )
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: seeds must be distinct, got 3 twice")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "train, test, key",
        [
            ("0.5 1.5 0.5", "1.0", "train_bond_lengths"),
            ("0.5 1.5", "1.0 1.0000000000001", "test_bond_lengths"),
        ],
    )
    def test_repeated_config_bond_length_exit_1(
        self, train, test, key, tfim2_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "o"
        cfg.write_text(
            f"dataset_dir: {tfim2_dir}\noutput_dir: {out}\n"
            f"train_bond_lengths: {train}\ntest_bond_lengths: {test}\nseeds: 0\n"
        )
        assert main(["curve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be distinct")
        assert "Traceback" not in err
        assert not out.exists()

    def test_gen_synthetic_rejects_repeated_bond_length(self, tmp_path, capsys):
        data = tmp_path / "d"
        code = main(
            [
                "gen-synthetic",
                "--out-dir",
                str(data),
                "--n-qubits",
                "2",
                "--bond-lengths",
                "0.5",
                "0.5",
                "0.5000000000001",
            ]
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert err.startswith("config error: --bond-lengths must be distinct, got 0.5 twice")
        assert "Traceback" not in err
        assert "wrote" not in out
        assert not data.exists()

    @pytest.mark.parametrize(
        "values, message",
        [
            (["0.5", "0.5"], "--bond-lengths must be distinct, got 0.5 twice"),
            (["0.5", "nan"], "--bond-lengths must be finite, got nan"),
        ],
    )
    def test_diag_rejects_repeated_or_non_finite_bond_length(
        self, values, message, tfim2_dir, tmp_path, capsys
    ):
        output = tmp_path / "energies.csv"
        argv = ["diag", "--dataset-dir", str(tfim2_dir), "--output", str(output)]
        assert main(argv + ["--bond-lengths", *values]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: {message}")
        assert "Traceback" not in err
        assert out == ""
        assert not output.exists()

    def test_python_dash_m_runs_the_command_line(self, tmp_path):
        # ``python -m hqcnn`` on the sources, no install: the exit code
        # and message are those of cli.main.
        argv = ["diag", "--dataset-dir", str(tmp_path), "--bond-lengths", "0.5", "0.5"]
        result = _cli_subprocess(argv, module="hqcnn")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("config error: --bond-lengths must be distinct")

    @pytest.mark.parametrize("command", ["diag", "compare"])
    def test_commands_import_no_scipy(self, command, tmp_path):
        # Importing scipy.sparse.linalg alone costs about 0.2 s of start-up
        # and 30 MB. diag on 13 qubits takes the Lanczos route, compare the
        # dense oracle and training. Python's import profile lists every
        # module the command imports.
        data = tmp_path / "d"
        if command == "diag":
            gen_synthetic(data, 13, (1.3,))
            argv = ["diag", "--dataset-dir", str(data), "--bond-lengths"]
        else:
            gen_synthetic(data, 2, (0.5, 1.0, 1.5))
            cfg = tmp_path / "c.cfg"
            cfg.write_text(
                f"dataset_dir: {data}\noutput_dir: {tmp_path / 'o'}\nvariant: both\n"
                "train_bond_lengths: 0.5 1.5\ntest_bond_lengths: 1.0\n"
                "seeds: 0 1\nmax_iterations: 5\n"
            )
            argv = ["compare", "--config", str(cfg)]
        result = _cli_subprocess(argv, module="hqcnn", PYTHONPROFILEIMPORTTIME="1")
        assert result.returncode == 0, result.stderr
        imported = [line.split("|")[-1].strip() for line in result.stderr.splitlines()]
        assert "hqcnn.oracle" in imported
        assert not [name for name in imported if name.split(".")[0] == "scipy"]
        if command == "diag":
            assert len(result.stdout.splitlines()) == 2  # header and one energy
        else:
            assert (tmp_path / "o" / "compare.txt").exists()

    def test_diag_reports_an_unconverged_lanczos_in_one_line(
        self, tmp_path, monkeypatch, capsys
    ):
        data = tmp_path / "d"
        gen_synthetic(data, 13, (1.3,))  # past the dense cap: Lanczos
        monkeypatch.setattr(oracle, "_MAX_RESTARTS", 1)
        assert main(["diag", "--dataset-dir", str(data), "--bond-lengths"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "numerical failure: bond length 1.3: Lanczos did not converge after 1 restart(s)"
        ]

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_negative_seed_flag_exit_1(self, command, tfim2_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "o"
        cfg.write_text(
            f"dataset_dir: {tfim2_dir}\noutput_dir: {out}\n"
            "train_bond_lengths: 0.5 1.5\ntest_bond_lengths: 1.0\nseeds: 0\n"
        )
        argv = [command, "--config", str(cfg), "--seed", "-1"]
        params_file = tmp_path / "params.txt"
        if command == "train":
            argv += ["--params-out", str(params_file)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: --seed must be non-negative, got -1")
        assert "Traceback" not in captured.err
        assert not params_file.exists() and not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (
                ["gen-synthetic", "--out-dir", "o", "--n-qubits", "\u0662", "--bond-lengths", "1"],
                "--n-qubits",
            ),
            (
                ["gen-synthetic", "--out-dir", "o", "--n-qubits", "2", "--bond-lengths", "1_0"],
                "--bond-lengths",
            ),
            (["diag", "--dataset-dir", "o", "--bond-lengths", "0.5", "\u0661"], "--bond-lengths"),
            (["train", "--config", "c.cfg", "--seed", "1_0"], "--seed"),
        ],
    )
    def test_number_flags_are_ascii(self, argv, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: argument {flag}: invalid")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_diag_of_every_file_names_near_equal_files(self, tmp_path, capsys):
        # With no values diag requests each file's bond length once.
        for name, a in (("a.ham", 0.5), ("b.ham", 0.5000000001)):
            (tmp_path / name).write_text(cli.format_hamiltonian(transverse_field_ising(1, a)))
        assert main(["diag", "--dataset-dir", str(tmp_path), "--bond-lengths"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "data error: bond length 0.5 matches multiple files: a.ham, b.ham\n"

    def test_negative_bond_lengths_in_scientific_notation(self, tmp_path, capsys):
        # _Parser sets this private attribute of argparse.
        assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
        values = ["0.5", "-1e-3", "-.5E2"]
        gen = ["gen-synthetic", "--out-dir", str(tmp_path), "--n-qubits", "2", "--bond-lengths"]
        assert main(gen + values) == 0
        assert len(list(tmp_path.glob("*.ham"))) == 3
        capsys.readouterr()
        assert main(["diag", "--dataset-dir", str(tmp_path), "--bond-lengths", *values]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [-50.0, -0.001, 0.5]

    @pytest.mark.parametrize(
        "token, message",
        [("-x", "unrecognized arguments: -x"), ("-inf", "--bond-lengths must be finite")],
    )
    def test_dash_tokens_that_are_not_finite_numbers(self, token, message, tmp_path, capsys):
        argv = ["gen-synthetic", "--out-dir", str(tmp_path / "o"), "--n-qubits", "2"]
        assert main(argv + ["--bond-lengths", "0.5", token]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and message in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_diag_reports_files_without_bond_length(self, tmp_path, capsys):
        data = tmp_path / "d"
        data.mkdir()
        path = data / "unlabelled.ham"
        path.write_text("qubits: 1\nterm: 1.0 Z\n")
        assert main(["diag", "--dataset-dir", str(data), "--bond-lengths"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"skipped {path}: no bond_length" in captured.err
        assert "data error: no .ham file with a bond_length" in captured.err

    def test_diag_rejects_register_above_max_qubits(self, tmp_path, capsys):
        # One short line of text: the file is refused when it is scanned,
        # before anything of size 2**n exists.
        data = tmp_path / "d"
        data.mkdir()
        n = MAX_QUBITS + 1
        (data / "big.ham").write_text(f"qubits: {n}\nbond_length: 1.0\nterm: 1.0 {'Z' * n}\n")
        assert main(["diag", "--dataset-dir", str(data), "--bond-lengths", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error:")
        assert f"{n} qubits, limit is {MAX_QUBITS}" in captured.err
        assert "Traceback" not in captured.err

    def test_diag_eigensolver_failure_exit_3(self, tmp_path, capsys):
        # Two 1e308 ZZ terms overflow the dense matrix. A 3-qubit TFIM at
        # field 1e308 has finite entries and the eigenvalue -3e308, which
        # diag used to print as -inf with exit 0. Each directory also holds
        # a healthy file, solved first; the message names the failing one.
        overflow = tmp_path / "overflow"
        overflow.mkdir()
        (overflow / "zz.ham").write_text(
            "qubits: 2\nbond_length: 1.0\nterm: 1e308 ZZ\nterm: 1e308 ZZ\n"
        )
        gen_synthetic(overflow, 2, [0.5])
        field = tmp_path / "field"
        gen_synthetic(field, 3, [0.5, 1e308])
        for data, failing in ((overflow, 1.0), (field, 1e308)):
            assert main(["diag", "--dataset-dir", str(data), "--bond-lengths"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"numerical failure: bond length {failing!r}: ")
            assert captured.err.count("\n") == 1

    def test_gradcheck_non_finite_deviation_exit_3(self, tmp_path):
        # At field 1e308 the sum of |c_i| overflows and both deviations
        # came out nan, printed with exit 0. A fresh interpreter, since
        # the suite turns the numpy warnings on the way into errors.
        gen_synthetic(tmp_path / "d", 2, [1e308])
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"dataset_dir: {tmp_path / 'd'}\noutput_dir: {tmp_path / 'o'}\n"
            "train_bond_lengths: 1e308\ntest_bond_lengths: 0.5\nseeds: 0\n"
        )
        result = _cli_subprocess(["gradcheck", "--config", str(cfg)], module="hqcnn")
        assert result.returncode == 3
        assert result.stdout == ""
        assert "numerical failure: gradient check gave non-finite deviations" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("variant", ["both", "with_measurements"])
    def test_non_finite_error_statistics_exit_3(self, variant, tmp_path):
        # Every energy is finite, but the spread of the summed errors
        # overflows: compare and curve printed std=inf with exit 0.
        gen_synthetic(tmp_path / "d", 2, [1e300, 2e300, 3e300])
        out = tmp_path / "o"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"dataset_dir: {tmp_path / 'd'}\noutput_dir: {out}\nvariant: {variant}\n"
            "train_bond_lengths: 1e300 3e300\ntest_bond_lengths: 2e300\n"
            "seeds: 0 1\nmax_iterations: 20\n"
        )
        command = "compare" if variant == "both" else "curve"
        result = _cli_subprocess([command, "--config", str(cfg)], module="hqcnn")
        assert result.returncode == 3
        assert result.stdout == ""
        assert "numerical failure: with_measurements: non-finite mean or std" in result.stderr
        assert "Traceback" not in result.stderr
        assert not list(tmp_path.glob("**/results*.csv"))
        assert not out.exists()

    def test_diag_without_values_reports_skipped_file_once(self, tmp_path, capsys):
        data = tmp_path / "d"
        gen_synthetic(data, 1, [0.5])
        path = data / "unlabelled.ham"
        path.write_text("qubits: 1\nterm: 1.0 Z\n")
        assert main(["diag", "--dataset-dir", str(data), "--bond-lengths"]) == 0
        assert capsys.readouterr().err.count(f"skipped {path}: no bond_length") == 1

    def test_non_utf8_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "o"
        cfg.write_bytes(b"dataset_dir: d\xff\noutput_dir: " + bytes(out) + b"\n")
        assert main(["curve", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot read config {cfg}:")
        assert "utf-8" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_non_utf8_ham_file_exit_2(self, tmp_path, capsys):
        data = tmp_path / "d"
        gen_synthetic(data, 2, [0.5])
        path = data / "latin1.ham"
        path.write_bytes(b"qubits: 2\nbond_length: 1.0\nterm: 1.0 ZZ # \xff\n")
        assert main(["diag", "--dataset-dir", str(data), "--bond-lengths"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {path}:")
        assert "utf-8" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["compare", "gen-synthetic"])
    @pytest.mark.parametrize("epoch", ["bogus", "300000000000"])
    def test_bad_source_date_epoch_fails_before_any_work(
        self, epoch, command, tfim2_dir, tmp_path
    ):
        out = tmp_path / "o"
        if command == "compare":
            cfg = tmp_path / "c.cfg"
            cfg.write_text(
                f"dataset_dir: {tfim2_dir}\noutput_dir: {out}\nvariant: both\n"
                "train_bond_lengths: 0.5 1.5\ntest_bond_lengths: 1.0\n"
                "seeds: 0 1\nmax_iterations: 5\n"
            )
            argv = ["compare", "--config", str(cfg)]
        else:
            argv = ["gen-synthetic", "--out-dir", str(out), "--n-qubits", "2"]
            argv += ["--bond-lengths", "0.5"]
        result = _cli_subprocess(argv, SOURCE_DATE_EPOCH=epoch)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith(f"config error: bad SOURCE_DATE_EPOCH {epoch!r}")
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_gradcheck_runs_two_central_difference_gradients(
        self, tfim2_dir, tmp_path, monkeypatch, capsys
    ):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"dataset_dir: {tfim2_dir}\noutput_dir: {tmp_path / 'o'}\n"
            "train_bond_lengths: 0.5 1.5\ntest_bond_lengths: 1.0\nseeds: 0\n"
        )
        steps = []

        def spy(params, problem, step=1e-6):
            steps.append(step)
            return finite_difference_gradient(params, problem, step)

        monkeypatch.setattr(optimize, "finite_difference_gradient", spy)
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        assert steps == [1e-6, 5e-7]
        # The two lines, as printed before they shared one gradient at h.
        problem = TrainingProblem(
            NetworkSpec(2, Variant.WITH_MEASUREMENTS),
            load_dataset(tfim2_dir, (0.5, 1.5)).entries,
        )
        params = init_params(problem.network.n_params, 0)
        at_h = finite_difference_gradient(params, problem, 1e-6)
        at_half_h = finite_difference_gradient(params, problem, 5e-7)
        adjoint = optimize._relative_deviation(gradient(params, problem), at_h)
        step = optimize._relative_deviation(at_h, at_half_h)
        assert capsys.readouterr().out == (
            f"max relative deviation (adjoint vs FD): {adjoint!r}\n"
            f"max relative gradient deviation (h vs h/2): {step!r}\n"
        )
