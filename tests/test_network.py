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
    apply_encoding,
    apply_pqc,
    entangler_pattern,
    forward,
    measure_layer,
)
from hqcnn.pauli import expectation
from hqcnn.cli import transverse_field_ising
from hqcnn.statevector import StateVector, apply_cnot, apply_h, expect_z, norm, zero_state


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

    def test_blocks_built_once_per_spec(self):
        for variant in Variant:
            spec = NetworkSpec(3, variant)
            assert spec.blocks() is spec.blocks()
            assert NetworkSpec(3, variant).blocks() is spec.blocks()

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


class TestEncoding:
    def test_zero_inputs_give_plus_states(self):
        psi = apply_encoding(EncodingSpec(1.0), [0.0, 0.0, 0.0])
        assert np.allclose(psi.amplitudes, np.full(8, 1 / np.sqrt(8)), atol=1e-12)

    def test_single_qubit_sigma_z_law(self):
        for a in np.linspace(-np.pi, np.pi, 13):
            psi = apply_encoding(EncodingSpec(1.0), [a])
            assert expect_z(psi, 0) == pytest.approx(-np.sin(a), abs=1e-12)

    def test_pi_scale_matches_direct_rotation(self):
        got = apply_encoding(EncodingSpec(np.pi), [1.0, 1.0])
        per_qubit = ref.ry(np.pi) @ ref.H @ np.array([1, 0], dtype=complex)
        assert np.allclose(got.amplitudes, np.kron(per_qubit, per_qubit), atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            apply_encoding(EncodingSpec(1.0), [])
        with pytest.raises(ValueError):
            apply_encoding(EncodingSpec(1.0), [np.inf])


class TestPqc:
    def test_zero_params_equal_pure_cnot_ladder(self, rng):
        v = ref.random_state(rng, 3)
        got = apply_pqc(StateVector(3, v.copy()), PqcSpec(3, 2, 0), np.zeros(6))
        want = StateVector(3, v.copy())
        for _ in range(2):
            for c, t in entangler_pattern(3):
                want = apply_cnot(want, c, t)
        assert np.allclose(got.amplitudes, want.amplitudes, atol=1e-12)

    def test_two_qubit_hand_trace(self):
        psi = apply_pqc(zero_state(2), PqcSpec(2, 1, 0), [np.pi, 0.0])
        assert np.allclose(psi.amplitudes, [0, 0, 1, 0], atol=1e-12)

    def test_norm_preserved(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            layers = int(rng.integers(1, 2 * n + 1))
            params = rng.normal(0, 1.5, n * layers)
            psi = apply_pqc(
                StateVector(n, ref.random_state(rng, n)), PqcSpec(n, layers, 0), params
            )
            assert norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_offset_reads_correct_window(self, rng):
        params = rng.normal(0, 1, 12)
        via_offset = apply_pqc(zero_state(2), PqcSpec(2, 2, 4), params)
        direct = apply_pqc(zero_state(2), PqcSpec(2, 2, 0), params[4:8])
        assert np.allclose(via_offset.amplitudes, direct.amplitudes, atol=1e-15)

    def test_parameter_underflow(self):
        with pytest.raises(ValueError):
            apply_pqc(zero_state(2), PqcSpec(2, 2, 0), np.zeros(3))
        with pytest.raises(ValueError):
            apply_pqc(zero_state(2), PqcSpec(2, 1, 3), np.zeros(4))

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_pqc(zero_state(3), PqcSpec(2, 1, 0), np.zeros(2))


class TestMeasureLayer:
    def test_zero_state(self):
        assert np.allclose(measure_layer(zero_state(3)), [1, 1, 1], atol=1e-15)

    def test_uniform_superposition(self):
        psi = zero_state(3)
        for q in range(3):
            psi = apply_h(psi, q)
        assert np.allclose(measure_layer(psi), [0, 0, 0], atol=1e-12)

    def test_bell_state(self):
        bell = apply_cnot(apply_h(zero_state(2), 0), 0, 1)
        assert np.allclose(measure_layer(bell), [0, 0], atol=1e-12)

    def test_values_in_range(self, rng):
        for _ in range(20):
            psi = StateVector(3, ref.random_state(rng, 3))
            m = measure_layer(psi)
            assert np.all(m >= -1 - 1e-12) and np.all(m <= 1 + 1e-12)


class TestForward:
    def test_hand_trace_all_zero_params(self):
        net = NetworkSpec(2, Variant.WITH_MEASUREMENTS)
        psi = forward(net, 0.0, np.zeros(8))
        assert np.allclose(measure_layer(psi), [0.0, 0.0], atol=1e-12)

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
        from hqcnn.network import apply_encoding as enc  # noqa: F401  (clarity)

        params = rng.normal(0, 1.0, net.n_params)
        first_block = apply_pqc(
            apply_encoding(EncodingSpec(1.0), [0.7] * 3), PqcSpec(3, 3, 0), params
        )
        b = measure_layer(first_block)
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
    sums the results round by. n = 1..9 covers every tile remainder and
    both sides of the tile boundaries at 4 and 8 qubits."""
    rng = np.random.default_rng(seed)
    net = NetworkSpec(n, variant)
    fields = rng.uniform(0.05, 2.5, batch)
    problem = optimize.TrainingProblem(
        net, tuple((a, transverse_field_ising(n, a)) for a in fields)
    )
    params = rng.normal(0, 1.5, net.n_params)

    def columns(array):
        return array.shape == (1 << n, batch) and array.flags["C_CONTIGUOUS"]

    blocks = []

    def kept(fn):
        def spy(*args):
            out = fn(*args)
            blocks.append(out)
            return out

        return spy

    assert columns(problem.encoded)
    with (
        mock.patch.object(network, "_encoded_rows", kept(network._encoded_rows)),
        mock.patch.object(network, "_pqc_block", kept(network._pqc_block)),
    ):
        forward_pass, products = optimize._training_pass(params, problem)
    # The measured variant re-encodes its readout between its blocks.
    with_measurements = variant is Variant.WITH_MEASUREMENTS
    assert len(blocks) == (3 if with_measurements else 1)
    assert all(columns(cols) for cols in blocks)
    assert len(forward_pass.measured) == int(with_measurements)
    assert all(columns(cols) for cols in forward_pass.measured)
    assert forward_pass.cols is blocks[-1]
    assert columns(products)

    got = optimize.energies(params, problem)
    for b, (a, h) in enumerate(problem.training_set):
        psi = ref.forward(n, with_measurements, a, params)
        dense = ref.hamiltonian_matrix([(t.coefficient, t.axis_string) for t in h.terms], n)
        assert abs(got[b] - (psi.conj() @ dense @ psi).real) < 1e-12


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
        spec = PqcSpec(n, layers, 0)
        cols = _random_cols(rng, stacked, n, complex_rows)
        c, s = network._angle_factors(rng.normal(0, 1.5, n * layers))
        tiles = network._ry_tiles(c, s, n)
        assert [len(layer) for layer in tiles] == [-(-n // 4)] * layers
        got = network._pqc_block(cols, spec, tiles)
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
        apply_pqc(zero_state(n), PqcSpec(n, 2, 0), params)
        forward(net, 0.7, params)
