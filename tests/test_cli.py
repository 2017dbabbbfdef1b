import numpy as np
import pytest

import hqcnn.cli as cli
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
from hqcnn.optimize import NumericalError, OptimizerSettings
from hqcnn.oracle import ground_energy
from hqcnn.pauli import parse_hamiltonian


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
        with pytest.raises(DataError, match="multiple"):
            load_dataset(tfim2_dir, [1.0])

    def test_mixed_qubit_counts(self, tfim2_dir):
        gen_synthetic(tfim2_dir, 3, [0.25])
        with pytest.raises(DataError, match="mixed qubit counts"):
            load_dataset(tfim2_dir, [0.25, 0.5])

    def test_duplicate_request(self, tfim2_dir):
        with pytest.raises(DataError, match="twice"):
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
        # 13 qubits is past to_dense's 12-qubit cap. The open-chain TFIM
        # ground energy is minus the sum of the singular values of the
        # bidiagonal matrix with the field on the diagonal and the unit
        # coupling above it (free fermions), an independent reference.
        data = tmp_path / "d"
        gen_synthetic(data, 13, [1.3])
        assert main(["diag", "--dataset-dir", str(data), "--bond-lengths", "1.3"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        a, energy = (float(x) for x in row.split(","))
        coupling = np.diag(np.full(13, 1.3)) + np.diag(np.ones(12), 1)
        exact = -float(np.linalg.svd(coupling, compute_uv=False).sum())
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
