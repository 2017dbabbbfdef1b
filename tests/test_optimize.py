import numpy as np
import pytest
import sympy as sp

import dense_ref as ref
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
    evaluate,
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
        g = gradient(rng.normal(0, 1, 8), problem)
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
            got = gradient(params, problem)
            want = np.array(grad_fn(params[0], params[1], a_val))
            assert np.allclose(got, want, atol=1e-6)

    def test_step_halving_consistency(self, rng):
        for n in (2, 3):
            problem = _tfim_problem(n, (0.4, 1.0, 1.6))
            params = rng.normal(0, 0.5, 2 * n * n)
            assert gradient_step_check(params, problem) < 1e-4

    def test_rejects_bad_step(self):
        problem = _tfim_problem(2, (1.0,))
        with pytest.raises(ValueError):
            gradient(np.zeros(8), problem, step=0.0)


class TestStackedBatches:
    """At n = 7 one point's FD batch is 2k = 196 rows of 128 amplitudes, so
    the 2**16-amplitude rule splits the 5 training points 2, 2, 1."""

    @pytest.fixture(scope="class")
    def problem(self):
        return _tfim_problem(7, DEFAULT_TRAIN_GRID)

    def test_gradient_batches_split_two_two_one(self, problem, monkeypatch):
        batch_rows = []
        forward_rows = optimize._forward_rows

        def spy(net, inputs, params_rows):
            batch_rows.append(params_rows.shape[0])
            return forward_rows(net, inputs, params_rows)

        monkeypatch.setattr(optimize, "_forward_rows", spy)
        gradient(init_params(problem.network.n_params, 0), problem)
        assert batch_rows == [392, 392, 196]

    def test_gradient_matches_central_differences_of_cost(self, problem):
        params = init_params(problem.network.n_params, 3)
        step = 1e-6
        got = gradient(params, problem, step)
        want = np.empty_like(params)
        for i in range(params.size):
            e = np.zeros_like(params)
            e[i] = step
            want[i] = (cost(params + e, problem) - cost(params - e, problem)) / (2 * step)
        assert np.max(np.abs(got - want)) < 1e-7

    def test_nan_parameter_raises(self, problem):
        params = init_params(problem.network.n_params, 0)
        params[50] = np.nan
        with pytest.raises(ValueError):
            cost(params, problem)
        with pytest.raises(ValueError):
            gradient(params, problem)

    def test_nan_bond_length_raises(self):
        # TrainingProblem rejects NaN bond lengths, so put one past it, in
        # the point that forms the last FD batch on its own.
        problem = _tfim_problem(7, DEFAULT_TRAIN_GRID)
        pairs = list(problem.training_set)
        pairs[4] = (float("nan"), pairs[4][1])
        object.__setattr__(problem, "training_set", tuple(pairs))
        params = init_params(problem.network.n_params, 0)
        with pytest.raises(ValueError):
            cost(params, problem)
        with pytest.raises(ValueError):
            gradient(params, problem)


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
    def test_identity_hamiltonian_zero_error(self):
        problem, c = _identity_problem()
        model = train(problem, 0)
        energy, error = evaluate(model, 0.7, problem.training_set[0][1])
        assert energy == pytest.approx(c, abs=1e-12)
        assert error < 1e-12

    def test_variational_bound(self, rng):
        h = transverse_field_ising(2, 1.3)
        exact = ground_energy(h)
        net = NetworkSpec(2, Variant.WITH_MEASUREMENTS)
        model = TrainedModel(net, rng.normal(0, 1, 8), 0.0, 0, False)
        for a in (0.3, 1.3, 2.2):
            energy, error = evaluate(model, a, h)
            assert energy >= exact - 1e-9
            assert error == pytest.approx(abs(energy - exact), abs=1e-15)

    def test_trained_single_point_has_small_error(self):
        h = transverse_field_ising(2, 1.0)
        problem = TrainingProblem(
            NetworkSpec(2, Variant.WITH_MEASUREMENTS), ((1.0, h),)
        )
        model = train(problem, 0)
        _, error = evaluate(model, 1.0, h)
        assert error < 1e-3
