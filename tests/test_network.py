from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_ref as ref
import hqcnn.network as network
import hqcnn.optimize as optimize
import hqcnn.statevector as statevector
from hqcnn.network import _forward_rows
from hqcnn.network import (
    EncodingSpec,
    MeasureSpec,
    NetworkSpec,
    PqcSpec,
    Variant,
    entangler_pattern,
    forward,
)
from hqcnn.pauli import expectation
from hqcnn.cli import transverse_field_ising
from hqcnn.statevector import StateVector, apply_cnot, apply_h, norm, zero_state


class TestEntanglerPattern:
    def test_reference_patterns(self):
        assert entangler_pattern(4) == [(0, 1), (2, 3), (1, 2)]
        assert entangler_pattern(3) == [(0, 1), (1, 2)]
        assert entangler_pattern(2) == [(0, 1)]
        assert entangler_pattern(1) == []

    def test_chain_endpoints_by_parity(self):
        for n in range(2, 9):
            pairs = entangler_pattern(n)
            evens = [p for p in pairs if p[0] % 2 == 0]
            odds = [p for p in pairs if p[0] % 2 == 1]
            # even chain first, then odd chain
            assert pairs == evens + odds
            if n % 2 == 0:
                assert evens[-1] == (n - 2, n - 1)
                if odds:
                    assert odds[-1] == (n - 3, n - 2)
            else:
                assert evens[-1] == (n - 3, n - 2)
                assert odds[-1] == (n - 2, n - 1)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            entangler_pattern(0)


class TestSpecs:
    def test_parameter_counts(self):
        for n, k in ((4, 32), (8, 128)):
            for variant in Variant:
                assert NetworkSpec(n, variant).n_params == k

    def test_block_sequences(self):
        with_blocks = NetworkSpec(3, Variant.WITH_MEASUREMENTS).blocks()
        assert [type(b) for b in with_blocks] == [
            EncodingSpec,
            PqcSpec,
            MeasureSpec,
            EncodingSpec,
            PqcSpec,
        ]
        assert with_blocks[0].scale == 1.0
        assert with_blocks[3].scale == pytest.approx(np.pi)
        assert with_blocks[1] == PqcSpec(3, 3, 0)
        assert with_blocks[4] == PqcSpec(3, 3, 9)
        without_blocks = NetworkSpec(3, Variant.WITHOUT_MEASUREMENTS).blocks()
        assert without_blocks == (EncodingSpec(1.0), PqcSpec(3, 6, 0))

    def test_blocks_cover_the_parameter_vector(self):
        for n in (1, 2, 4, 5):
            for variant in Variant:
                spec = NetworkSpec(n, variant)
                consumed = sum(
                    b.n_params for b in spec.blocks() if isinstance(b, PqcSpec)
                )
                assert consumed == spec.n_params

    def test_equal_specs_give_equal_blocks(self):
        for variant in Variant:
            spec = NetworkSpec(3, variant)
            assert spec.blocks() == spec.blocks()
            assert NetworkSpec(3, variant).blocks() == spec.blocks()

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            EncodingSpec(0.0)
        with pytest.raises(ValueError):
            EncodingSpec(float("nan"))
        with pytest.raises(ValueError):
            PqcSpec(0, 1, 0)
        with pytest.raises(ValueError):
            PqcSpec(2, 1, -1)
        with pytest.raises(ValueError):
            NetworkSpec(0, Variant.WITH_MEASUREMENTS)
        with pytest.raises(ValueError):
            NetworkSpec(2, "with_measurements")

    def test_block_above_the_qubit_limit_is_rejected(self):
        limit = statevector.MAX_QUBITS
        assert PqcSpec(limit, 1, 0).n_qubits == limit
        with pytest.raises(ValueError, match="n_qubits must be in"):
            PqcSpec(limit + 1, 1, 0)

    def test_network_above_the_qubit_limit_is_rejected(self):
        limit = statevector.MAX_QUBITS
        assert NetworkSpec(limit, Variant.WITH_MEASUREMENTS).n_qubits == limit
        for variant in Variant:
            with pytest.raises(ValueError, match="n_qubits must be in"):
                NetworkSpec(limit + 1, variant)


def _pqc_block(cols, n, params):
    """The trainable block whose layers read ``params``, n angles per
    layer, on ``cols``, as the tile path runs it."""
    return network._pqc_block(cols, n, network._ry_tiles(*network._angle_factors(params), n))


class TestEncoding:
    def test_zero_inputs_give_plus_states(self):
        cols = network._encoded_rows(np.zeros((1, 3)))
        assert np.allclose(cols[:, 0], np.full(8, 1 / np.sqrt(8)), atol=1e-12)

    def test_single_qubit_sigma_z_law(self):
        grid = np.linspace(-np.pi, np.pi, 13)
        z = network._expect_z_rows(network._encoded_rows(grid[:, None]), 1)[:, 0]
        assert np.allclose(z, -np.sin(grid), rtol=0.0, atol=1e-12)

    def test_pi_scale_matches_direct_rotation(self):
        got = network._encoded_rows(network._READOUT_SCALE * np.ones((1, 2)))[:, 0]
        per_qubit = ref.ry(np.pi) @ ref.H @ np.array([1, 0], dtype=complex)
        assert np.allclose(got, np.kron(per_qubit, per_qubit), atol=1e-12)


class TestPqc:
    def test_zero_params_equal_pure_cnot_ladder(self, rng):
        v = ref.random_state(rng, 3)
        got = _pqc_block(v[:, None], 3, np.zeros(6))[:, 0]
        want = StateVector(3, v.copy())
        for _ in range(2):
            for c, t in entangler_pattern(3):
                want = apply_cnot(want, c, t)
        assert np.allclose(got, want.amplitudes, atol=1e-12)

    def test_two_qubit_hand_trace(self):
        got = _pqc_block(zero_state(2).amplitudes[:, None], 2, [np.pi, 0.0])[:, 0]
        assert np.allclose(got, [0, 0, 1, 0], atol=1e-12)

    def test_norm_preserved(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            layers = int(rng.integers(1, 2 * n + 1))
            params = rng.normal(0, 1.5, n * layers)
            got = _pqc_block(ref.random_state(rng, n)[:, None], n, params)[:, 0]
            assert norm(StateVector(n, got)) == pytest.approx(1.0, abs=1e-12)


def _readout(psi: StateVector) -> np.ndarray:
    """Per-qubit <sigma_z> of psi, by the readout kernel of the network."""
    return network._expect_z_rows(psi.amplitudes[:, None], psi.n_qubits)[0]


class TestMeasureLayer:
    def test_zero_state(self):
        assert np.allclose(_readout(zero_state(3)), [1, 1, 1], atol=1e-15)

    def test_uniform_superposition(self):
        psi = zero_state(3)
        for q in range(3):
            psi = apply_h(psi, q)
        assert np.allclose(_readout(psi), [0, 0, 0], atol=1e-12)

    def test_bell_state(self):
        bell = apply_cnot(apply_h(zero_state(2), 0), 0, 1)
        assert np.allclose(_readout(bell), [0, 0], atol=1e-12)

    def test_values_in_range(self, rng):
        for _ in range(20):
            m = _readout(StateVector(3, ref.random_state(rng, 3)))
            assert np.all(m >= -1 - 1e-12) and np.all(m <= 1 + 1e-12)


class TestForward:
    def test_hand_trace_all_zero_params(self):
        net = NetworkSpec(2, Variant.WITH_MEASUREMENTS)
        psi = forward(net, 0.0, np.zeros(8))
        assert np.allclose(_readout(psi), [0.0, 0.0], atol=1e-12)

    def test_matches_dense_reference(self, rng):
        for variant, flag in (
            (Variant.WITH_MEASUREMENTS, True),
            (Variant.WITHOUT_MEASUREMENTS, False),
        ):
            for _ in range(8):
                n = int(rng.integers(1, 4))
                net = NetworkSpec(n, variant)
                params = rng.normal(0, 1.0, net.n_params)
                a = float(rng.uniform(-2, 2))
                got = forward(net, a, params)
                want = ref.forward(n, flag, a, params)
                assert np.allclose(got.amplitudes, want, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        with_measurements=st.booleans(),
        batch=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_real_rows_match_dense_reference(self, n, with_measurements, batch, seed):
        # One bond length per column and one parameter vector shared by
        # all of them, as cost and gradient run them.
        variant = (
            Variant.WITH_MEASUREMENTS if with_measurements else Variant.WITHOUT_MEASUREMENTS
        )
        net = NetworkSpec(n, variant)
        rng = np.random.default_rng(seed)
        params = rng.normal(0, 1.5, net.n_params)
        inputs = rng.uniform(-3, 3, batch)
        cols = _forward_rows(net, inputs, params)
        assert cols.dtype == np.float64
        assert cols.shape == (1 << n, batch)
        for b in range(batch):
            want = ref.forward(n, with_measurements, inputs[b], params)
            assert np.max(np.abs(cols[:, b] - want)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_public_blocks_compose_to_forward(self, rng, n, variant):
        # No pass reads blocks(); interpreted with the kernels of the tile
        # path, the description must agree with forward.
        net = NetworkSpec(n, variant)
        params = rng.normal(0, 1.5, net.n_params)
        values = np.full(n, 0.9)
        for block in net.blocks():
            if isinstance(block, EncodingSpec):
                cols = network._encoded_rows(block.scale * values[None, :])
            elif isinstance(block, PqcSpec):
                window = params[block.param_offset : block.param_offset + block.n_params]
                cols = _pqc_block(cols, n, window)
            else:
                values = network._expect_z_rows(cols, n)[0]
        want = forward(net, 0.9, params).amplitudes
        assert np.max(np.abs(cols[:, 0] - want)) < 1e-13

    def test_final_norm(self, rng):
        for variant in Variant:
            net = NetworkSpec(3, variant)
            psi = forward(net, 1.2, rng.normal(0, 1, net.n_params))
            assert norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_bitwise(self, rng):
        net = NetworkSpec(3, Variant.WITH_MEASUREMENTS)
        params = rng.normal(0, 0.5, net.n_params)
        first = forward(net, 0.8, params)
        second = forward(net, 0.8, params)
        assert np.array_equal(first.amplitudes, second.amplitudes)

    def test_parameter_length_mismatch(self):
        net = NetworkSpec(2, Variant.WITH_MEASUREMENTS)
        with pytest.raises(ValueError):
            forward(net, 0.5, np.zeros(7))

    def test_rejects_non_finite_input(self):
        net = NetworkSpec(2, Variant.WITH_MEASUREMENTS)
        with pytest.raises(ValueError):
            forward(net, float("nan"), np.zeros(8))

    def test_intermediate_angles_bounded(self, rng):
        # Readout values live in [-1,1]; after the pi scale every re-encoding
        # angle is within [-pi, pi]. Checked via the readout itself.
        net = NetworkSpec(3, Variant.WITH_MEASUREMENTS)
        params = rng.normal(0, 1.0, net.n_params)
        encoded = network._input_rows(net, [0.7])
        measured = network._forward_pass(net, encoded, params).measured
        b = network._expect_z_rows(measured, 3)[0]
        assert np.all(np.abs(b) <= 1 + 1e-12)
        assert np.all(np.abs(np.pi * b) <= np.pi + 1e-11)


def _trig_design_matrix(a_grid: np.ndarray, max_freq: int) -> np.ndarray:
    cols = [np.ones_like(a_grid)]
    for j in range(1, max_freq + 1):
        cols.append(np.cos(j * a_grid))
        cols.append(np.sin(j * a_grid))
    return np.column_stack(cols)


class TestNonlinearityWitness:
    """Energy vs input for the ablation variant is a trigonometric polynomial
    with integer frequencies up to n; the measured variant breaks out of that
    span. The fit residual over a dense grid separates the two."""

    def _residual(self, variant: Variant, n: int, params, h) -> float:
        net = NetworkSpec(n, variant)
        grid = np.linspace(0.0, 2 * np.pi, 120, endpoint=False)
        energies = np.array(
            [expectation(h, forward(net, a, params)) for a in grid]
        )
        design = _trig_design_matrix(grid, n)
        coeffs, *_ = np.linalg.lstsq(design, energies, rcond=None)
        return float(np.max(np.abs(design @ coeffs - energies)))

    def test_without_measurements_is_low_degree_trig(self, rng):
        for n in (2, 3):
            net = NetworkSpec(n, Variant.WITHOUT_MEASUREMENTS)
            params = rng.normal(0, 1.0, net.n_params)
            h = transverse_field_ising(n, 1.0)
            assert self._residual(Variant.WITHOUT_MEASUREMENTS, n, params, h) < 1e-10

    def test_with_measurements_escapes_that_span(self, rng):
        n = 2
        net = NetworkSpec(n, Variant.WITH_MEASUREMENTS)
        h = transverse_field_ising(n, 1.0)
        residuals = [
            self._residual(
                Variant.WITH_MEASUREMENTS, n, rng.normal(0, 1.0, net.n_params), h
            )
            for _ in range(5)
        ]
        assert max(residuals) > 1e-3


@pytest.mark.parametrize("n", range(1, 10))
@settings(max_examples=4, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    batch=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_training_pass_runs_on_c_ordered_columns(n, variant, batch, seed):
    """Every array of a training pass is a C-ordered (2**n, points) array
    of amplitude-major columns, the layout whose BLAS products and energy
    sums the results round by. Up to 4 qubits the pass keeps its dense
    prefix products, from 5 on the tiles of its layers. n = 1..9 covers
    every tile remainder and both sides of the tile boundaries at 4 and 8
    qubits."""
    rng = np.random.default_rng(seed)
    net = NetworkSpec(n, variant)
    fields = rng.uniform(0.05, 2.5, batch)
    problem = optimize.TrainingProblem(
        net, tuple((a, transverse_field_ising(n, a)) for a in fields)
    )
    params = rng.normal(0, 1.5, net.n_params)

    def columns(array):
        return array.shape == (1 << n, batch) and array.flags["C_CONTIGUOUS"]

    made = {"_encoded_rows": [], "_pqc_block": []}

    def kept(name):
        fn = getattr(network, name)

        def spy(*args):
            out = fn(*args)
            made[name].append(out)
            return out

        return spy

    assert columns(problem.encoded)
    with (
        mock.patch.object(network, "_encoded_rows", kept("_encoded_rows")),
        mock.patch.object(network, "_pqc_block", kept("_pqc_block")),
    ):
        forward_pass, products = optimize._training_pass(params, problem)
    assert all(columns(cols) for cols in made["_encoded_rows"] + made["_pqc_block"])
    assert forward_pass.encoded is problem.encoded
    # The link between layers n - 1 and n: the measured variant re-encodes
    # its readout, the ablation passes the lower half's output on as it is.
    with_measurements = variant is Variant.WITH_MEASUREMENTS
    if with_measurements:
        assert made["_encoded_rows"] == [forward_pass.second]
    else:
        assert made["_encoded_rows"] == []
        assert forward_pass.second is forward_pass.measured
    outputs = [forward_pass.measured, forward_pass.second, forward_pass.cols]
    assert all(columns(cols) and not cols.flags.writeable for cols in outputs)
    if n <= 4:
        assert made["_pqc_block"] == []
        prefix = forward_pass.layers
        assert prefix.shape == (2, n, 1 << n, 1 << n)
        assert prefix.flags["C_CONTIGUOUS"] and not prefix.flags.writeable
    else:
        assert len(forward_pass.layers) == 2 * n
        assert made["_pqc_block"] == [forward_pass.measured, forward_pass.cols]
    assert columns(products)

    got = optimize.energies(params, problem)
    for b, (a, h) in enumerate(problem.training_set):
        psi = ref.forward(n, with_measurements, a, params)
        dense = ref.hamiltonian_matrix([(t.coefficient, t.axis_string) for t in h.terms], n)
        assert abs(got[b] - (psi.conj() @ dense @ psi).real) < 1e-12


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("points", [1, 3, 5])
def test_dense_path_matches_the_tile_path(n, variant, points):
    """Up to 4 qubits a training pass runs on dense layer matrices; the
    tile path and its sweep, which serve n >= 5, run through the same
    ``_run_layers`` and ``_adjoint_gradient`` and give the same lower-half
    output, link output, final columns, energies and gradient, relative to
    their largest entry."""
    rng = np.random.default_rng(100 * n + points)
    net = NetworkSpec(n, variant)
    fields = rng.uniform(0.05, 2.5, points)
    problem = optimize.TrainingProblem(
        net, tuple((a, transverse_field_ising(n, a)) for a in fields)
    )
    params = rng.normal(0, 1.5, net.n_params)
    dense = network._forward_pass(net, problem.encoded, params)
    tiles = network._ry_tiles(*network._angle_factors(params), n)
    tile = network._run_layers(net, problem.encoded, tiles)
    assert not isinstance(dense.layers, tuple) and tile.layers is tiles

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for name in ("measured", "second", "cols"):
        assert close(getattr(dense, name), getattr(tile, name))
    hamiltonians = problem.hamiltonians
    assert close(
        optimize._expectation_rows(hamiltonians, dense.cols),
        optimize._expectation_rows(hamiltonians, tile.cols),
    )
    seed = 2.0 * optimize._apply_hamiltonian_rows(hamiltonians, tile.cols)
    want = network._adjoint_gradient(net, tile, seed)
    assert close(network._adjoint_gradient(net, dense, seed), want)
    assert close(optimize.gradient(params, problem), want)


def _per_gate_block(cols, n, layers, c, s):
    """The trainable block as a chain of one-qubit kernels: per layer, the
    CNOT ladder, then Ry on qubits 0 .. n-1 in order."""
    perm = network._ladder_permutation(n)
    for j in range(layers):
        cols = network._cnot_rows(cols, perm)
        for i in range(n):
            cols = network._ry_rows(cols, i, c[i + n * j], s[i + n * j])
    return cols


def _random_cols(rng, stacked, n, complex_cols):
    """C-ordered (2**n, 3) columns, or a stacked (2, 2**n, 3) pair of
    them, as the adjoint sweep keeps its states and adjoints."""
    shape = (2, 1 << n, 3) if stacked else (1 << n, 3)
    cols = rng.normal(size=shape)
    if complex_cols:
        cols = cols + 1j * rng.normal(size=shape)
    return cols


class TestRyTiles:
    """Each layer's Ry's run as Kronecker tiles of up to four qubits: one
    matmul per tile instead of one kernel per gate, on columns or on a
    stacked pair of them. n = 1..9 covers tiles of every remainder size
    (1 to 3 qubits) and the boundaries at 4, 5, 8 and 9 qubits."""

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_block_matches_per_gate_kernels(self, rng, n, complex_rows, stacked):
        layers = 2
        cols = _random_cols(rng, stacked, n, complex_rows)
        c, s = network._angle_factors(rng.normal(0, 1.5, n * layers))
        tiles = network._ry_tiles(c, s, n)
        assert [len(layer) for layer in tiles] == [-(-n // 4)] * layers
        got = network._pqc_block(cols, n, tiles)
        want = np.array([_per_gate_block(part, n, layers, c, s) for part in cols.reshape(-1, *cols.shape[-2:])])
        assert got.dtype == want.dtype
        assert got.flags["C_CONTIGUOUS"]
        assert np.max(np.abs(got - want.reshape(cols.shape))) < 1e-14

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_transposed_tiles_restore_the_rows(self, rng, n, complex_rows, stacked):
        cols = _random_cols(rng, stacked, n, complex_rows)
        (layer,) = network._ry_tiles(*network._angle_factors(rng.normal(0, 1.5, n)), n)
        rotated = network._tile_rows(cols, layer)
        assert np.max(np.abs(rotated - cols)) > 1e-3
        undone = network._tile_rows(rotated, [tile.T for tile in layer])
        assert np.max(np.abs(undone - cols)) < 1e-14

    @pytest.mark.parametrize("n", [1, 3, 4, 6])
    def test_tiles_are_read_only_and_columns_fresh_and_c_ordered(self, rng, n):
        (layer,) = network._ry_tiles(*network._angle_factors(rng.normal(size=n)), n)
        assert all(not tile.flags.writeable for tile in layer)
        c_cols = _random_cols(rng, False, n, False)
        for cols in (c_cols, np.asfortranarray(c_cols)):
            before = cols.copy()
            out = network._tile_rows(cols, layer)
            assert out.flags["C_CONTIGUOUS"]
            assert not np.shares_memory(out, cols)
            assert np.array_equal(cols, before)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 9),
        theta=st.lists(
            st.floats(-10.0, 10.0, allow_nan=False), min_size=2 * 9, max_size=2 * 9
        ),
    )
    def test_tile_entries_are_kronecker_products(self, n, theta):
        # Bit for bit: the factors of each entry are multiplied in qubit
        # order, as successive np.kron products multiply them.
        theta = np.array(theta[: 2 * n])
        tiles = network._ry_tiles(*network._angle_factors(theta), n)
        for j in range(2):
            gates = [ref.ry(theta[i + n * j]).real for i in range(n)]
            for t, tile in enumerate(tiles[j]):
                want = np.array([[1.0]])
                for gate in gates[4 * t : 4 * t + 4]:
                    want = np.kron(want, gate)
                assert np.array_equal(tile, want)

    def test_training_and_public_paths_make_no_per_gate_ry_call(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-gate _ry_rows called")

        monkeypatch.setattr(network, "_ry_rows", forbidden)
        monkeypatch.setattr(statevector, "_ry_rows", forbidden)
        n = 3
        net = NetworkSpec(n, Variant.WITH_MEASUREMENTS)
        problem = optimize.TrainingProblem(
            net, tuple((a, transverse_field_ising(n, a)) for a in (0.5, 1.5))
        )
        params = rng.normal(0, 0.5, net.n_params)
        optimize.cost(params, problem)
        optimize.gradient(params, problem)
        optimize.finite_difference_gradient(params, problem)
        forward(net, 0.7, params)
