import itertools
from functools import partial
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_ref as ref
import hqcnn.network as network
import hqcnn.optimize as optimize
from hqcnn.cli import DEFAULT_TRAIN_GRID, transverse_field_ising
from hqcnn.network import NetworkSpec, Variant, forward
from hqcnn.optimize import (
    MinimizeResult,
    NumericalError,
    OptimizerSettings,
    TrainedModel,
    TrainingProblem,
    bfgs_minimize,
    cost,
    energies,
    finite_difference_gradient,
    gradient,
    gradient_step_check,
    init_params,
    train,
    train_lockstep,
)
from hqcnn.oracle import ground_energy
from hqcnn.pauli import PauliHamiltonian, PauliTerm, expectation


def _identity_problem(n=2, c=1.5):
    h = PauliHamiltonian(n, (PauliTerm.from_string(c, "I" * n),))
    net = NetworkSpec(n, Variant.WITH_MEASUREMENTS)
    return TrainingProblem(net, ((0.7, h),)), c


def _tfim_problem(n, fields, variant=Variant.WITH_MEASUREMENTS):
    net = NetworkSpec(n, variant)
    pairs = tuple((a, transverse_field_ising(n, a)) for a in fields)
    return TrainingProblem(net, pairs)


class TestCost:
    def test_identity_hamiltonian_is_constant(self, rng):
        problem, c = _identity_problem()
        for _ in range(5):
            params = rng.normal(0, 1, 8)
            assert cost(params, problem) == pytest.approx(c, abs=1e-12)

    def test_additivity_over_points(self, rng):
        params = rng.normal(0, 0.3, 8)
        both = _tfim_problem(2, (0.5, 1.5))
        first = _tfim_problem(2, (0.5,))
        second = _tfim_problem(2, (1.5,))
        assert cost(params, both) == pytest.approx(
            cost(params, first) + cost(params, second), abs=1e-12
        )

    def test_matches_dense_quadratic_forms(self, rng):
        problem = _tfim_problem(2, (0.4, 1.1))
        params = rng.normal(0, 0.4, 8)
        want = 0.0
        for a, h in problem.training_set:
            psi = ref.forward(2, True, a, params)
            m = ref.hamiltonian_matrix(
                [(t.coefficient, t.axis_string) for t in h.terms], 2
            )
            want += (psi.conj() @ m @ psi).real
        assert cost(params, problem) == pytest.approx(float(want), abs=1e-10)

    def test_rejects_wrong_length(self):
        problem = _tfim_problem(2, (1.0,))
        with pytest.raises(ValueError):
            cost(np.zeros(5), problem)


class TestEnergies:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sum_is_cost_and_points_match_single_state(self, n, variant):
        fields = (0.3, 0.9, 1.7)
        problem = _tfim_problem(n, fields, variant)
        params = init_params(problem.network.n_params, n)
        values = energies(params, problem)
        assert values.shape == (len(fields),)
        assert float(np.sum(values)) == cost(params, problem)
        assert float(np.sum(values)) == cost(params, _tfim_problem(n, fields, variant))
        for (a, h), value in zip(problem.training_set, values):
            single = expectation(h, forward(problem.network, a, params))
            assert abs(value - single) < 1e-12


class TestProblemConstruction:
    def test_rejects_empty_training_set(self):
        net = NetworkSpec(2, Variant.WITH_MEASUREMENTS)
        with pytest.raises(ValueError):
            TrainingProblem(net, ())

    def test_rejects_mismatched_qubits(self):
        net = NetworkSpec(3, Variant.WITH_MEASUREMENTS)
        with pytest.raises(ValueError):
            TrainingProblem(net, ((1.0, transverse_field_ising(2, 1.0)),))


class TestGradient:
    def test_constant_cost_gives_zero_gradient(self, rng):
        problem, _ = _identity_problem()
        g = finite_difference_gradient(rng.normal(0, 1, 8), problem)
        assert np.max(np.abs(g)) < 1e-9

    def test_matches_symbolic_single_qubit(self):
        # Full symbolic trace of the 1-qubit measured network for H = c Z:
        # encode, Ry(w0), readout, pi re-encode, Ry(w1); all real amplitudes.
        w0, w1 = sp.symbols("w0 w1", real=True)
        a_sym = sp.Symbol("a", real=True)

        def ry_m(t):
            return sp.Matrix(
                [[sp.cos(t / 2), -sp.sin(t / 2)], [sp.sin(t / 2), sp.cos(t / 2)]]
            )

        h_m = sp.Matrix([[1, 1], [1, -1]]) / sp.sqrt(2)
        ket0 = sp.Matrix([1, 0])
        psi1 = ry_m(w0) * ry_m(a_sym) * h_m * ket0
        b = psi1[0] ** 2 - psi1[1] ** 2
        psi2 = ry_m(w1) * ry_m(sp.pi * b) * h_m * ket0
        c_coeff = 0.8
        energy = c_coeff * (psi2[0] ** 2 - psi2[1] ** 2)
        grad_fn = sp.lambdify(
            (w0, w1, a_sym), [sp.diff(energy, w0), sp.diff(energy, w1)], "numpy"
        )

        a_val = 0.6
        h = PauliHamiltonian(1, (PauliTerm.from_string(c_coeff, "Z"),))
        problem = TrainingProblem(
            NetworkSpec(1, Variant.WITH_MEASUREMENTS), ((a_val, h),)
        )
        rng = np.random.default_rng(11)
        for _ in range(6):
            params = rng.normal(0, 1.0, 2)
            want = np.array(grad_fn(params[0], params[1], a_val))
            got = finite_difference_gradient(params, problem)
            assert np.allclose(got, want, atol=1e-6)
            assert np.allclose(gradient(params, problem), want, rtol=0, atol=1e-10)

    def test_step_halving_consistency(self, rng):
        for n in (2, 3):
            problem = _tfim_problem(n, (0.4, 1.0, 1.6))
            params = rng.normal(0, 0.5, 2 * n * n)
            assert gradient_step_check(params, problem) < 1e-4

    def test_step_check_runs_only_the_two_central_differences(self, rng, monkeypatch):
        problem = _tfim_problem(3, (0.4, 1.6))
        params = rng.normal(0, 0.5, 18)
        at_h = finite_difference_gradient(params, problem, 1e-6)
        at_half_h = finite_difference_gradient(params, problem, 5e-7)
        scale = max(float(np.max(np.abs(at_half_h))), 1e-12)
        want = float(np.max(np.abs(at_h - at_half_h))) / scale

        def forbidden(*args, **kwargs):
            raise AssertionError("gradient_step_check ran the adjoint gradient")

        steps = []
        central = optimize.finite_difference_gradient

        def spy(params, problem, step=1e-6):
            steps.append(step)
            return central(params, problem, step)

        monkeypatch.setattr(optimize, "gradient", forbidden)
        monkeypatch.setattr(optimize, "finite_difference_gradient", spy)
        assert gradient_step_check(params, problem) == want
        assert steps == [1e-6, 5e-7]

    def test_rejects_bad_step(self):
        problem = _tfim_problem(2, (1.0,))
        with pytest.raises(ValueError):
            finite_difference_gradient(np.zeros(8), problem, step=0.0)

    def test_rejects_a_step_lost_to_rounding(self):
        problem = _tfim_problem(2, (1.0,))
        params = np.zeros(8)
        params[1:] = 0.5
        params[3:] = 1.0
        # 1e-320 is lost to every angle but 0; 1.1e-16 is lost to 1 + h
        # alone, since below 1 the floats are twice as dense.
        assert 1.0 + 1.1e-16 == 1.0 != 1.0 - 1.1e-16
        for step, first in ((1e-320, 1), (1.1e-16, 3)):
            with pytest.raises(NumericalError) as lost:
                finite_difference_gradient(params, problem, step)
            assert str(lost.value) == (
                f"central-difference step {step!r} is lost to rounding at parameter {first}"
            )


class TestStackedBatches:
    """At n = 7 (k = 98 angles, 5 training points) the central differences
    run 2k forward passes of 5 rows each, one per perturbed vector."""

    @pytest.fixture(scope="class")
    def problem(self):
        return _tfim_problem(7, DEFAULT_TRAIN_GRID)

    def test_gradient_matches_central_differences_of_cost(self, problem):
        params = init_params(problem.network.n_params, 3)
        step = 1e-6
        want = np.empty_like(params)
        for i in range(params.size):
            e = np.zeros_like(params)
            e[i] = step
            want[i] = (cost(params + e, problem) - cost(params - e, problem)) / (2 * step)
        got = finite_difference_gradient(params, problem, step)
        assert np.max(np.abs(got - want)) < 1e-7
        assert np.max(np.abs(gradient(params, problem) - want)) < 1e-7

    def test_nan_parameter_raises(self, problem):
        params = init_params(problem.network.n_params, 0)
        params[50] = np.nan
        with pytest.raises(ValueError):
            cost(params, problem)
        with pytest.raises(ValueError):
            finite_difference_gradient(params, problem)
        with pytest.raises(ValueError):
            gradient(params, problem)

    def test_central_differences_read_the_encoded_columns(self):
        # TrainingProblem rejects NaN bond lengths, so put one past it, in
        # the last training point. cost, gradient and every FD evaluation
        # run on the columns the problem encoded when it was built, so the
        # NaN is never read: each FD entry is, bit for bit, the central
        # difference of cost, and FD leaves the kept pass as it was.
        problem = _tfim_problem(7, DEFAULT_TRAIN_GRID)
        pairs = list(problem.training_set)
        pairs[4] = (float("nan"), pairs[4][1])
        object.__setattr__(problem, "training_set", tuple(pairs))
        params = init_params(problem.network.n_params, 0)
        step = 1e-6
        cost(params, problem)
        kept = dict(problem._last_forward)
        got = finite_difference_gradient(params, problem, step)
        assert problem._last_forward.keys() == kept.keys()
        assert all(problem._last_forward[key] is kept[key] for key in kept)
        for i in range(params.size):
            e = np.zeros_like(params)
            e[i] = step
            want = (cost(params + e, problem) - cost(params - e, problem)) / (2 * step)
            assert got[i].hex() == want.hex(), i


class TestAdjointGradient:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 5),
        variant=st.sampled_from(list(Variant)),
        fields=st.lists(st.floats(0.05, 2.5), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_finite_differences(self, n, variant, fields, seed):
        problem = _tfim_problem(n, tuple(fields), variant)
        params = np.random.default_rng(seed).normal(0, 1.0, 2 * n * n)
        got = gradient(params, problem)
        want = finite_difference_gradient(params, problem)
        assert np.max(np.abs(got - want)) < 1e-7

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_y_overlaps_match_dense_reference(self, rng, n, order):
        # Half of adjoint . (-iY)_q state, the derivative by an Ry angle on
        # qubit q. n = 1..9 covers every tile remainder and both sides of
        # the tile boundaries at 4 and 8 qubits.
        batch = 3
        stacked = np.asarray(rng.normal(size=(2 * batch, 1 << n)), order=order)
        states, adjoints = stacked[:batch], stacked[batch:]
        want = np.empty((batch, n))
        for q in range(n):
            minus_iy = -1j * ref.pauli_matrix("I" * q + "Y" + "I" * (n - q - 1))
            for b in range(batch):
                want[b, q] = 0.5 * (adjoints[b] @ minus_iy @ states[b]).real
        pair = np.asarray(np.stack([states.T, adjoints.T]), order=order)
        got = network._y_overlaps(pair, n, per_row=True)
        assert got.shape == (batch, n)
        assert np.max(np.abs(got - want)) < 1e-12
        k = min(n, 4)
        table = network._tile_y_signs(k)
        assert table.shape == (4**k, k)
        assert not table.flags.writeable

    @pytest.mark.parametrize("batch", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 10))
    def test_summed_layer_overlaps_match_dense_reference(self, rng, n, batch):
        # What the sweep reads per trainable layer: the halved overlaps,
        # the layer's angle derivatives, summed over the batch columns, one
        # Gram product per tile.
        states = rng.normal(size=(batch, 1 << n))
        adjoints = rng.normal(size=(batch, 1 << n))
        want = np.zeros(n)
        for q in range(n):
            minus_iy = -1j * ref.pauli_matrix("I" * q + "Y" + "I" * (n - q - 1))
            for b in range(batch):
                want[q] += 0.5 * (adjoints[b] @ minus_iy @ states[b]).real
        got = network._y_overlaps(np.stack([states.T, adjoints.T]), n, per_row=False)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_sweep_ends_at_the_first_trainable_layer(self, variant, n):
        # Both variants have 2n trainable layers. From n = 5 on, the sweep
        # undoes each of them after reading its derivatives, except layer
        # 0, whose input is the encoded bond lengths: 2n - 1 undos per
        # gradient. Up to 4 qubits the gradient reads every layer from the
        # kept dense prefix products and undoes none. Each CNOT ladder is
        # one call of the gather kernel under its hooked name: 2n in the
        # forward pass that cost runs, 2n - 1 in the sweep that reuses it.
        problem = _tfim_problem(n, (0.4, 1.0, 1.6), variant)
        params = init_params(problem.network.n_params, 0)
        with mock.patch.object(network, "_cnot_rows", wraps=network._cnot_rows) as cnot:
            cost(params, problem)
            forward_calls = cnot.call_count
            with mock.patch.object(network, "_undo_tiles", wraps=network._undo_tiles) as undo:
                g = gradient(params, problem)
        assert undo.call_count == (0 if n <= 4 else 2 * n - 1)
        assert forward_calls == (0 if n <= 4 else 2 * n)
        assert cnot.call_count - forward_calls == (0 if n <= 4 else 2 * n - 1)
        assert np.max(np.abs(g - finite_difference_gradient(params, problem))) < 1e-7

    @pytest.mark.parametrize("n", range(1, 10))
    def test_undo_tiles_inverts_the_forward_tiles(self, rng, n):
        # The sweep undoes a layer's tiles on the stacked column pair; the
        # forward applied them to the columns.
        batch = 3
        cols = rng.normal(size=(1 << n, 2 * batch))
        (layer,) = network._ry_tiles(*network._angle_factors(rng.normal(0, 1.5, n)), n)
        rotated = network._tile_rows(cols, layer)
        pair = np.array([rotated[:, :batch], rotated[:, batch:]])
        undone = network._undo_tiles(pair, layer)
        assert undone.shape == pair.shape
        assert undone.flags["C_CONTIGUOUS"]
        assert np.max(np.abs(undone[0] - cols[:, :batch])) < 1e-14
        assert np.max(np.abs(undone[1] - cols[:, batch:])) < 1e-14


def _count_forward_passes(monkeypatch, calls):
    """Spy on ``_forward_pass``, which both the dense and the tile path
    run through, where ``optimize`` and ``network`` call it; a pass whose
    angles are rejected is not counted."""
    forward_pass = network._forward_pass

    def spy(*args):
        out = forward_pass(*args)
        calls.append(args[0])
        return out

    monkeypatch.setattr(network, "_forward_pass", spy)
    monkeypatch.setattr(optimize, "_forward_pass", spy)


class TestForwardMemo:
    """cost and gradient share the problem's last forward pass, keyed by
    the bytes of the parameter vector; a spy counts the passes run."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        _count_forward_passes(monkeypatch, calls)
        return calls

    @staticmethod
    def _problem():
        return _tfim_problem(3, (0.4, 1.0, 1.6))

    def test_cost_then_gradient_runs_one_pass(self, passes):
        problem = self._problem()
        params = init_params(problem.network.n_params, 0)
        f = cost(params, problem)
        g = gradient(params, problem)
        assert len(passes) == 1
        assert cost(params, problem) == f
        assert len(passes) == 1
        assert g.tobytes() == gradient(params, self._problem()).tobytes()

    def test_gradient_alone_runs_its_own_pass(self, passes):
        problem = self._problem()
        params = init_params(problem.network.n_params, 1)
        g = gradient(params, problem)
        assert len(passes) == 1
        assert g.tobytes() == gradient(params, self._problem()).tobytes()

    def test_gradient_after_cost_elsewhere_runs_its_own_pass(self, passes):
        problem = self._problem()
        params = init_params(problem.network.n_params, 2)
        cost(params + 0.01, problem)
        g = gradient(params, problem)
        assert len(passes) == 2
        assert g.tobytes() == gradient(params, self._problem()).tobytes()

    def test_in_place_mutation_is_not_served_stale(self, passes):
        problem = self._problem()
        params = init_params(problem.network.n_params, 3)
        cost(params, problem)
        params[5] += 0.25
        g = gradient(params, problem)
        assert len(passes) == 2
        assert g.tobytes() == gradient(params, self._problem()).tobytes()
        assert cost(params, problem) == cost(params.copy(), self._problem())

    def test_nan_vector_raises_and_keeps_nothing(self, passes):
        problem = self._problem()
        params = init_params(problem.network.n_params, 4)
        bad = params.copy()
        bad[2] = np.nan
        with pytest.raises(ValueError):
            cost(bad, problem)
        with pytest.raises(ValueError):
            gradient(bad, problem)
        assert problem._last_forward == {}
        cost(params, problem)
        with pytest.raises(ValueError):
            gradient(bad, problem)
        assert problem._last_forward == {}
        assert len(passes) == 1

    def test_third_vector_evicts_the_first(self, passes):
        problem = self._problem()
        a, b, c = (init_params(problem.network.n_params, seed) for seed in (5, 6, 7))
        cost(a, problem)
        cost(b, problem)
        cost(c, problem)
        assert len(problem._last_forward) == 1
        gradient(c, problem)
        assert len(passes) == 3
        gradient(a, problem)
        assert len(passes) == 4

    def test_problems_never_share_a_memo(self, passes):
        first, second = self._problem(), self._problem()
        assert first._last_forward is not second._last_forward
        params = init_params(first.network.n_params, 8)
        cost(params, first)
        gradient(params, second)
        assert len(passes) == 2

    def test_train_runs_one_grouped_pass_per_f_request(self, monkeypatch):
        # Up to 4 qubits training answers each f call, and the g call at
        # its point, from one grouped pass, never through cost
        # or gradient.
        problem = self._problem()
        for name in ("cost", "gradient"):
            monkeypatch.setattr(optimize, name, mock.Mock(side_effect=AssertionError(name)))
        shapes = []
        forward_pass = network._forward_pass

        def spy(net, encoded, params):
            shapes.append(np.shape(params))
            return forward_pass(net, encoded, params)

        monkeypatch.setattr(network, "_forward_pass", spy)
        monkeypatch.setattr(optimize, "_forward_pass", spy)
        asked = _steer(monkeypatch, problem)
        train(problem, 0, OptimizerSettings(max_iterations=5))
        assert len(shapes) == asked[0].count("f") > 5
        assert set(shapes) == {(1, problem.network.n_params)}

    def test_train_runs_no_pass_after_its_last_f_request(self, passes, monkeypatch):
        # Seed 4's line search fails after 13 iterations, so the run ends
        # at an iterate whose pass came before later trial points: its
        # final cost is the f it ended on, not the cost of a new pass.
        problem = _tfim_problem(2, (0.5,))
        asked = _steer(monkeypatch, problem)
        settings = OptimizerSettings(max_iterations=14, gradient_norm_tolerance=1e-12)
        model = train(problem, 4, settings)
        assert (model.iterations_used, model.converged) == (13, False)
        assert len(passes) == asked[4].count("f") == 52
        fresh = _tfim_problem(2, (0.5,))
        assert model.final_cost.hex() == cost(model.parameters, fresh).hex()
        assert model.final_cost.hex() == "-0x1.6a09e667f3bccp+0"


class TestEncodedInputs:
    """A problem encodes its bond lengths once, when it is built; every
    pass of cost and gradient starts from those rows."""

    @pytest.mark.parametrize(
        "variant, encodings",
        [(Variant.WITHOUT_MEASUREMENTS, 0), (Variant.WITH_MEASUREMENTS, 1)],
    )
    def test_inputs_are_encoded_once(self, variant, encodings, monkeypatch):
        fields = (0.4, 1.0, 1.6)
        problem = _tfim_problem(3, fields, variant)
        assert not problem.encoded.flags.writeable
        calls = []
        encode = network._encoded_rows

        def spy(angles):
            calls.append(angles.shape)
            return encode(angles)

        monkeypatch.setattr(network, "_encoded_rows", spy)
        params = init_params(problem.network.n_params, 0)
        cost(params, problem)
        gradient(params, problem)
        # Only the measured variant's re-encoding of its readout remains.
        assert len(calls) == encodings
        # The kept rows score bitwise as the central-difference path, which
        # encodes the bond lengths itself.
        rows = network._forward_rows(problem.network, np.array(fields), params)
        want = optimize._expectation_rows(problem.hamiltonians, rows)
        assert energies(params, problem).tobytes() == want.tobytes()


class TestInitParams:
    def test_length_and_determinism(self):
        p = init_params(32, 7)
        assert p.shape == (32,)
        assert np.array_equal(p, init_params(32, 7))
        assert not np.array_equal(p, init_params(32, 8))

    def test_distribution_moments(self):
        draws = init_params(100_000, 123)
        assert abs(float(np.mean(draws))) < 0.002
        assert abs(float(np.std(draws)) - 0.1) < 0.002

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            init_params(0, 1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            init_params(8, -1)


class TestBfgs:
    def test_quadratic_bowl(self):
        target = np.array([1.0, 2.0, 3.0])
        res = bfgs_minimize(
            lambda x: float(((x - target) ** 2).sum()),
            lambda x: 2.0 * (x - target),
            np.zeros(3),
            OptimizerSettings(),
        )
        assert res.converged
        assert res.iterations <= 10
        assert np.allclose(res.x, target, atol=1e-8)

    def test_rosenbrock(self):
        def f(x):
            return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

        def g(x):
            return np.array(
                [
                    -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                    200 * (x[1] - x[0] ** 2),
                ]
            )

        res = bfgs_minimize(f, g, np.array([-1.2, 1.0]), OptimizerSettings())
        assert res.converged
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)
        assert res.fun <= f(np.array([-1.2, 1.0]))

    def test_gradient_reuses_the_scored_point_and_counts_hold(self):
        # Every gradient is asked for at the array the objective has just
        # scored, as the same object, so that a caller keyed on that point
        # (the training memo) serves it from the pass it kept. The counts
        # pin the trajectory: 39 iterations, 69 objective and 50 gradient
        # calls from the textbook start.
        calls = []

        def f(x):
            calls.append(("f", x))
            return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

        def g(x):
            calls.append(("g", x))
            return np.array(
                [
                    -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                    200 * (x[1] - x[0] ** 2),
                ]
            )

        res = bfgs_minimize(f, g, np.array([-1.2, 1.0]), OptimizerSettings())
        assert res.converged
        for i, (kind, x) in enumerate(calls):
            if kind == "g":
                assert calls[i - 1][0] == "f" and calls[i - 1][1] is x
        kinds = [kind for kind, _ in calls]
        assert (res.iterations, kinds.count("f"), kinds.count("g")) == (39, 69, 50)

    def test_stationary_start(self):
        res = bfgs_minimize(
            lambda x: 1.0, lambda x: np.zeros(4), np.zeros(4), OptimizerSettings()
        )
        assert res.converged
        assert res.iterations == 0
        assert res.fun == 1.0

    def test_iteration_cap_honored(self):
        def f(x):
            return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

        def g(x):
            return np.array(
                [
                    -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                    200 * (x[1] - x[0] ** 2),
                ]
            )

        res = bfgs_minimize(
            f, g, np.array([-1.2, 1.0]), OptimizerSettings(max_iterations=3)
        )
        assert res.iterations <= 3
        assert not res.converged
        assert res.fun <= f(np.array([-1.2, 1.0]))

    def test_tolerance_defines_convergence(self):
        target = np.array([0.5, -0.5])
        res = bfgs_minimize(
            lambda x: float(((x - target) ** 2).sum()),
            lambda x: 2.0 * (x - target),
            np.ones(2),
            OptimizerSettings(gradient_norm_tolerance=1e-8),
        )
        assert res.converged
        grad_at_end = 2.0 * (res.x - target)
        assert np.max(np.abs(grad_at_end)) <= 1e-8

    def test_line_search_failure_returns_best_so_far(self):
        # Linear objective: descent never satisfies the curvature condition.
        res = bfgs_minimize(
            lambda x: float(-x[0]),
            lambda x: np.array([-1.0]),
            np.array([0.0]),
            OptimizerSettings(),
        )
        assert not res.converged

    def test_non_finite_objective_raises(self):
        with pytest.raises(NumericalError):
            bfgs_minimize(
                lambda x: float("nan"),
                lambda x: np.zeros(2),
                np.zeros(2),
                OptimizerSettings(),
            )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_raises(self, bad):
        target = np.array([1.0, 2.0, 3.0])

        def f(x):
            return float(((x - target) ** 2).sum())

        with pytest.raises(NumericalError, match="^gradient is not finite at the start point$"):
            bfgs_minimize(f, lambda x: np.full(3, bad), np.zeros(3), OptimizerSettings())
        calls = []

        def g(x):
            calls.append(x)
            return 2.0 * (x - target) if len(calls) == 1 else np.array([0.0, bad, 0.0])

        with pytest.raises(NumericalError, match="^gradient is not finite in line search "):
            bfgs_minimize(f, g, np.zeros(3), OptimizerSettings())
        assert len(calls) == 2

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            OptimizerSettings(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerSettings(gradient_norm_tolerance=0.0)
        with pytest.raises(ValueError):
            OptimizerSettings(finite_difference_step=-1e-6)


class TestTrain:
    def test_identity_problem_converges_immediately(self):
        problem, c = _identity_problem()
        model = train(problem, seed=0)
        assert model.converged
        assert model.iterations_used <= 1
        assert model.final_cost == pytest.approx(c, abs=1e-12)

    def test_two_qubit_single_point_reaches_oracle(self):
        h = transverse_field_ising(2, 1.0)
        exact = ground_energy(h)
        problem = TrainingProblem(
            NetworkSpec(2, Variant.WITH_MEASUREMENTS), ((1.0, h),)
        )
        hits = sum(
            abs(train(problem, seed).final_cost - exact) < 1e-3 for seed in range(4)
        )
        assert hits >= 3

    def test_seed_determinism(self):
        problem = _tfim_problem(2, (0.6, 1.4))
        settings = OptimizerSettings(max_iterations=40)
        first = train(problem, 5, settings)
        second = train(problem, 5, settings)
        assert np.array_equal(first.parameters, second.parameters)
        assert first.final_cost == second.final_cost
        assert first.iterations_used == second.iterations_used

    def test_final_cost_is_recomputed_cost(self):
        problem = _tfim_problem(2, (0.8,))
        model = train(problem, 1, OptimizerSettings(max_iterations=25))
        assert model.final_cost == pytest.approx(
            cost(model.parameters, problem), abs=1e-12
        )


class TestEvaluate:
    """A trained model is scored like a training point: ``energies`` of a
    one-point ``TrainingProblem``."""

    @staticmethod
    def _energy(model, bond_length, h):
        problem = TrainingProblem(model.network, ((bond_length, h),))
        return float(energies(model.parameters, problem)[0])

    def test_identity_hamiltonian_zero_error(self):
        problem, c = _identity_problem()
        model = train(problem, 0)
        h = problem.training_set[0][1]
        energy = self._energy(model, 0.7, h)
        assert energy == pytest.approx(c, abs=1e-12)
        assert abs(energy - ground_energy(h)) < 1e-12

    def test_variational_bound(self, rng):
        h = transverse_field_ising(2, 1.3)
        exact = ground_energy(h)
        net = NetworkSpec(2, Variant.WITH_MEASUREMENTS)
        model = TrainedModel(net, rng.normal(0, 1, 8), 0.0, 0, False)
        for a in (0.3, 1.3, 2.2):
            assert self._energy(model, a, h) >= exact - 1e-9

    def test_scores_on_the_batched_training_path(self, rng):
        # The one-point batch agrees with the complex single-state path.
        h = transverse_field_ising(3, 0.9)
        for variant in Variant:
            net = NetworkSpec(3, variant)
            model = TrainedModel(net, rng.normal(0, 1, net.n_params), 0.0, 0, False)
            want = expectation(h, forward(net, 0.9, model.parameters))
            assert self._energy(model, 0.9, h) == pytest.approx(want, abs=1e-12)

    def test_trained_single_point_has_small_error(self):
        h = transverse_field_ising(2, 1.0)
        problem = TrainingProblem(
            NetworkSpec(2, Variant.WITH_MEASUREMENTS), ((1.0, h),)
        )
        model = train(problem, 0)
        assert abs(self._energy(model, 1.0, h) - ground_energy(h)) < 1e-3


class TestAskTell:
    """``_bfgs_steps`` is BFGS as a generator of points, each sent the
    calls that score it; ``bfgs_minimize`` and the lockstep driver send them."""

    @staticmethod
    def _rosenbrock(x):
        return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

    @staticmethod
    def _rosenbrock_gradient(x):
        return np.array(
            [-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2), 200 * (x[1] - x[0] ** 2)]
        )

    def test_driving_the_steps_by_hand_matches_bfgs_minimize(self):
        f, g = self._rosenbrock, self._rosenbrock_gradient
        want = bfgs_minimize(f, g, np.array([-1.2, 1.0]), OptimizerSettings())
        steps = optimize._bfgs_steps(np.array([-1.2, 1.0]), OptimizerSettings())
        kinds = []

        def call(kind, fn, x):
            kinds.append(kind)
            return fn(x)

        x = next(steps)
        with pytest.raises(StopIteration) as stop:
            while True:
                x = steps.send((partial(call, "f", f, x), partial(call, "g", g, x)))
        got = stop.value.value
        assert got.x.tobytes() == want.x.tobytes() and got.fun == want.fun
        assert (got.iterations, got.converged, got.restarts) == (39, True, 0)
        assert (kinds.count("f"), kinds.count("g")) == (69, 50)

    def test_restart_is_counted(self):
        # g @ H g underflows to -0.0, so -H g is no descent direction: the
        # run restarts from steepest descent, whose slope underflows too,
        # and the line search gives up before any step, as before.
        res = bfgs_minimize(
            lambda x: 0.0,
            lambda x: np.array([1e-200, -1e-200]),
            np.array([0.5, 0.25]),
            OptimizerSettings(gradient_norm_tolerance=1e-250),
        )
        assert (res.iterations, res.converged, res.restarts) == (0, False, 1)
        assert res.x.tolist() == [0.5, 0.25] and res.fun == 0.0

    def test_line_search_failure_keeps_its_iterations(self):
        # Below 1e-12 the energy differences are rounding: the line search
        # of seed 4 fails after 13 iterations, with these bits, as before
        # BFGS asked for its values. No restart happens on the way.
        problem = _tfim_problem(2, (0.5,))
        settings = OptimizerSettings(max_iterations=14, gradient_norm_tolerance=1e-12)
        x0 = init_params(problem.network.n_params, 4)
        res = bfgs_minimize(
            lambda v: cost(v, problem), lambda v: gradient(v, problem), x0, settings
        )
        assert (res.iterations, res.converged, res.restarts) == (13, False, 0)
        assert res.fun.hex() == "-0x1.6a09e667f3bccp+0"
        linear = bfgs_minimize(
            lambda x: float(-x[0]), lambda x: np.array([-1.0]), np.array([0.0]),
            OptimizerSettings(),
        )
        assert (linear.iterations, linear.converged, linear.restarts) == (0, False, 0)


def _steer(monkeypatch, problem, actions=None):
    """Wrap ``_bfgs_steps`` so that every run records the calls it makes,
    "f" or "g", under the seed whose ``init_params`` it starts from;
    ``actions`` maps a seed to (i, action): at its i-th point (from 1),
    "nan" yields a vector of nan in its place, "inf" answers its f call
    with inf. Returns the seed -> calls record of the runs started since;
    a later call replaces this wrapper, so this record stays as it is."""
    seed_of = {
        init_params(problem.network.n_params, seed).tobytes(): seed for seed in range(16)
    }
    actions = actions or {}
    steps = getattr(optimize._bfgs_steps, "unsteered", optimize._bfgs_steps)
    asked = {}

    def steered(x0, settings):
        seed = seed_of[np.asarray(x0).tobytes()]
        at, action = actions.get(seed, (0, None))
        calls = asked[seed] = []
        run = steps(x0, settings)
        x = next(run)
        for i in itertools.count(1):
            if i == at and action == "nan":
                x = np.full_like(x, np.nan)
            f_of, g_of = yield x

            def f_call(f_of=f_of, inf=i == at and action == "inf"):
                calls.append("f")
                value = f_of()
                return np.inf if inf else value

            def g_call(g_of=g_of):
                calls.append("g")
                return g_of()

            try:
                x = run.send((f_call, g_call))
            except StopIteration as stop:
                return stop.value

    steered.unsteered = steps
    monkeypatch.setattr(optimize, "_bfgs_steps", steered)
    return asked


class TestLockstep:
    """``train_lockstep`` trains many seeds in rounds, one grouped pass per
    round up to 4 qubits, with the results of training each alone."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 4),
        variant=st.sampled_from(list(Variant)),
        points=st.integers(1, 8),
        group=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grouped_pass_is_bitwise_each_vector_alone(self, n, variant, points, group, seed):
        rng = np.random.default_rng(seed)
        problem = _tfim_problem(n, tuple(rng.uniform(0.05, 2.5, points)), variant)
        xs = rng.normal(0, 1.5, (group, problem.network.n_params))
        grouped = network._forward_pass(problem.network, problem.encoded, xs)
        points = list(xs)
        scored = optimize._scored_group(points, problem)
        for i, x in enumerate(points):
            alone = network._forward_pass(problem.network, problem.encoded, x)
            for name in ("measured", "second", "cols"):
                assert getattr(grouped, name)[i].tobytes() == getattr(alone, name).tobytes()
            fresh = TrainingProblem(problem.network, problem.training_set)
            f_of, g_of = scored[i]
            assert f_of().hex() == cost(x, fresh).hex()
            assert g_of().tobytes() == gradient(x, fresh).tobytes()

    @pytest.mark.parametrize("n_seeds", [1, 2, 3, 4])
    @pytest.mark.parametrize("n, cap", [(2, 14), (5, 4)])
    def test_matches_training_each_seed_alone(self, n, cap, n_seeds):
        # The reference trains each seed by itself, with bfgs_minimize
        # answering from cost and gradient. At n = 2, seed 4's line search
        # fails after 13 iterations, seed 3 converges after 13, and seeds
        # 0 and 1 stop at the cap of 14.
        problem = _tfim_problem(n, (0.5,))
        settings = OptimizerSettings(max_iterations=cap, gradient_norm_tolerance=1e-12)
        seeds = (4, 3, 0, 1)[:n_seeds]
        trained = train_lockstep(problem, seeds, settings)
        if n == 2:
            outcomes = [(13, False), (13, True), (14, False), (14, False)][:n_seeds]
            assert [(m.iterations_used, m.converged) for m in trained] == outcomes
        for seed, model in zip(seeds, trained):
            alone = bfgs_minimize(
                lambda v: cost(v, problem),
                lambda v: gradient(v, problem),
                init_params(problem.network.n_params, seed),
                settings,
            )
            assert model.final_cost.hex() == cost(alone.x, problem).hex()
            assert model.parameters.tobytes() == alone.x.tobytes()
            assert (model.iterations_used, model.converged) == (
                alone.iterations,
                alone.converged,
            )
            assert float(energies(model.parameters, problem).sum()) == model.final_cost

    def test_the_first_error_ends_training(self, monkeypatch):
        # Seed 1 fails at its start point, in an earlier round than seed 0
        # would in its 9th f call: seed 1's error, as training it alone
        # raises it, ends training at once, and seed 2 is never sent a call.
        problem = _tfim_problem(2, (0.6, 1.4))
        actions = {0: (9, "inf"), 1: (1, "inf")}
        _steer(monkeypatch, problem, actions)
        with pytest.raises(NumericalError) as alone:
            train(problem, 1)
        asked = _steer(monkeypatch, problem, actions)
        with pytest.raises(NumericalError) as lockstep:
            train_lockstep(problem, (0, 1, 2))
        assert str(lockstep.value) == str(alone.value)
        assert str(lockstep.value) == "objective returned inf at the start point"
        assert asked == {0: ["f", "g"], 1: ["f"], 2: []}

    def test_no_later_seed_advances_after_a_failure(self, monkeypatch):
        # Seed 0 fails at its first f call: only its error can be
        # reported, so seeds 1 and 2 are never sent their start point's calls.
        problem = _tfim_problem(2, (0.6, 1.4))
        asked = _steer(monkeypatch, problem, {0: (1, "inf")})
        with pytest.raises(NumericalError, match="at the start point"):
            train_lockstep(problem, (0, 1, 2))
        assert asked == {0: ["f"], 1: [], 2: []}

    def test_bad_point_in_a_grouped_pass_ends_training(self, monkeypatch):
        # Seed 1 yields a vector of nan in the second round: up to 4
        # qubits the round's grouped pass raises the error of training
        # seed 1 alone, no seed is sent that round's calls, and no point
        # goes through cost or gradient.
        problem = _tfim_problem(2, (0.5,))
        settings = OptimizerSettings(max_iterations=8)
        called = []
        for name in ("cost", "gradient"):
            fn = getattr(optimize, name)

            def counted(*args, _fn=fn, _name=name):
                called.append(_name)
                return _fn(*args)

            monkeypatch.setattr(optimize, name, counted)
        _steer(monkeypatch, problem, {1: (2, "nan")})
        with pytest.raises(ValueError) as expected:
            train(problem, 1, settings)
        asked = _steer(monkeypatch, problem, {1: (2, "nan")})
        with pytest.raises(ValueError) as got:
            train_lockstep(problem, (0, 1, 2), settings)
        assert str(got.value) == str(expected.value) == "rotation angle must be finite"
        assert asked == {0: ["f", "g"], 1: ["f", "g"], 2: ["f", "g"]}
        assert called == []

    @pytest.mark.parametrize("n", [5])
    def test_bad_point_ends_training_above_the_dense_cap(self, n, monkeypatch):
        # Seed 1 yields a vector of nan in the second round: above the
        # dense cap each point of that round is bound to cost and
        # gradient, and seed 1's f call raises the error of training it
        # alone, which ends training at once. Each seed's calls are a
        # prefix of those it makes alone, and seed 2 makes none that round.
        problem = _tfim_problem(n, (0.5,))
        settings = OptimizerSettings(max_iterations=8)
        alone = _steer(monkeypatch, problem, {1: (2, "nan")})
        with pytest.raises(ValueError) as expected:
            train(problem, 1, settings)
        for seed in (0, 2):
            train(problem, seed, settings)
        asked = _steer(monkeypatch, problem, {1: (2, "nan")})
        with pytest.raises(ValueError) as got:
            train_lockstep(problem, (0, 1, 2), settings)
        assert str(got.value) == str(expected.value) == "rotation angle must be finite"
        assert asked == {0: ["f", "g", "f"], 1: ["f", "g", "f"], 2: ["f", "g"]}
        for seed, calls in asked.items():
            assert alone[seed][: len(calls)] == calls


class TestRequestsAboveTheDenseCap:
    """From 5 qubits on, training answers each f or g call with one call of
    ``optimize.cost`` or ``optimize.gradient``, through the module's
    names (which the benchmark wraps to count gradients), and runs one
    adjoint sweep per g call and no other."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"cost": 0, "gradient": 0, "sweeps": 0, "passes": 0}
        for name in ("cost", "gradient"):
            fn = getattr(optimize, name)

            def counted(*args, _fn=fn, _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(optimize, name, counted)
        sweep = network._adjoint_sweep

        def counted_sweep(*args):
            counts["sweeps"] += 1
            return sweep(*args)

        monkeypatch.setattr(network, "_adjoint_sweep", counted_sweep)
        passes = []
        _count_forward_passes(monkeypatch, passes)
        counts["passes"] = passes
        return counts

    @staticmethod
    def _problem():
        return _tfim_problem(5, (0.4, 1.6))

    def test_train_calls_cost_and_gradient_once_per_request(self, counts, monkeypatch):
        problem = self._problem()
        asked = _steer(monkeypatch, problem)
        model = train(problem, 0, OptimizerSettings(max_iterations=3))
        kinds = asked[0]
        assert model.iterations_used == 3
        # The final cost comes from the pass of the last f: no extra call.
        assert counts["cost"] == len(counts["passes"]) == kinds.count("f")
        assert counts["gradient"] == counts["sweeps"] == kinds.count("g")

    def test_lockstep_sweeps_only_for_gradient_requests(self, counts, monkeypatch):
        problem = self._problem()
        asked = _steer(monkeypatch, problem)
        train_lockstep(problem, (0, 1), OptimizerSettings(max_iterations=3))
        f_requests = sum(kinds.count("f") for kinds in asked.values())
        g_requests = sum(kinds.count("g") for kinds in asked.values())
        assert f_requests > g_requests
        assert counts["cost"] == len(counts["passes"]) == f_requests
        assert counts["gradient"] == counts["sweeps"] == g_requests
