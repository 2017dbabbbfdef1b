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

    def test_nan_bond_length_raises(self):
        # TrainingProblem rejects NaN bond lengths, so put one past it, in
        # the last training point. cost and gradient run on the bond
        # lengths the problem encoded when it was built; every FD
        # evaluation encodes them afresh.
        problem = _tfim_problem(7, DEFAULT_TRAIN_GRID)
        pairs = list(problem.training_set)
        pairs[4] = (float("nan"), pairs[4][1])
        object.__setattr__(problem, "training_set", tuple(pairs))
        params = init_params(problem.network.n_params, 0)
        with pytest.raises(ValueError):
            finite_difference_gradient(params, problem)


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
        # kept dense prefix products and undoes none.
        problem = _tfim_problem(n, (0.4, 1.0, 1.6), variant)
        params = init_params(problem.network.n_params, 0)
        cost(params, problem)
        with mock.patch.object(network, "_undo_tiles", wraps=network._undo_tiles) as undo:
            g = gradient(params, problem)
        assert undo.call_count == (0 if n <= 4 else 2 * n - 1)
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

    def test_train_scores_each_accepted_point_once(self, monkeypatch):
        problem = self._problem()
        settings = OptimizerSettings(max_iterations=5)
        calls = {"cost": 0, "gradient": 0, "passes": 0}
        for name in ("cost", "gradient"):
            fn = getattr(optimize, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(optimize, name, counted)
        passes = []
        _count_forward_passes(monkeypatch, passes)
        train(problem, 0, settings)
        # Every gradient and the final cost fall on a point that cost
        # has just scored; only the line search's rejected points and the
        # start point run a pass of their own.
        assert len(passes) == calls["cost"] - 1


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
