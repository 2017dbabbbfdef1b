"""Training: summed-energy cost, exact adjoint gradients, BFGS.

The cost of a parameter vector w over a training set {(a_j, H_j)} is

    f(w) = sum_j <phi_j| H_j |phi_j>,   |phi_j> = forward(net, a_j, w),

so minimizing f pushes each predicted energy toward the ground energy of
its Hamiltonian (variational bound: each term is >= lambda_min(H_j)).

``energies`` gives the per-point energies on the network's real batched
path: one forward column per training point, scored against the training
Hamiltonians. ``TrainingProblem`` compiles those once, and encodes the
bond lengths once. ``cost`` is their sum. A trained model's predictions
are ``energies`` too: on its training points they come from the pass
that training's final ``cost`` kept, so they sum exactly to the final
cost; other points are scored as the training set of a
``TrainingProblem`` of their own.

``gradient`` is the exact gradient of ``cost``. The readout is an exact
expectation, so the model is smooth and reverse mode applies
(``network._adjoint_gradient``). From 5 qubits on, one forward pass keeps
the tiles of its layers, and one adjoint sweep back through the 2n
layers, and the readout between them in the measured variant, gives
every derivative: about three passes over one column per point. Up to
4 qubits the forward pass keeps the dense prefix products of its layers
instead, and the derivatives of all 2n layers come from a few stacked
products with no pass over the layers. Central differences need 2k
forward passes for k angles. ``gradient`` reuses the forward pass of
``cost`` at the same point: a ``TrainingProblem`` keeps its last
forward pass and the product H phi of its final columns, keyed by the
bytes of the parameter vector, and BFGS asks for the gradient exactly at
the points whose cost it has just accepted, so there ``gradient`` runs
only the backward part. Central
differences, the paper's method, stay as the independent reference
(``finite_difference_gradient``): plain central differences of ``cost``,
one coordinate at a time. ``gradient_deviations`` compares the adjoint
with them and guards their step choice by halving it, from two
central-difference gradients; ``gradient_step_check`` is the latter.

The minimizer is a self-contained BFGS with a strong-Wolfe line search
(c1 = 1e-4, c2 = 0.9, cubic interpolation with bisection safeguards).
Each trial point is built once and handed to the objective and then, for
its slope, to the gradient; the accepted one is the next iterate.
Defaults: at most 500 iterations, stop when the gradient infinity norm
drops to 1e-5.

Determinism: cost, gradient and each central-difference evaluation run
all training points in one batch in a fixed order, and the central
differences walk the coordinates in order; parameter initialization draws
from a seeded generator. Identical inputs therefore give
bitwise-identical results on one platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# forward and expectation are not called here: trained models are scored
# with energies. They are imported so that perfbench/layers.py, which
# hooks them by name in this module, still finds them.
from .network import (  # noqa: F401
    NetworkSpec,
    _adjoint_gradient,
    _forward_pass,
    _ForwardPass,
    _forward_rows,
    _input_rows,
    forward,
)
from .pauli import (  # noqa: F401
    CompiledHamiltonian,
    PauliHamiltonian,
    _apply_hamiltonian_rows,
    _expectation_rows,
    compile_hamiltonians,
    expectation,
)

_FD_STEP = 1e-6  # the default step h of every central difference


class NumericalError(RuntimeError):
    """Objective or gradient produced a non-finite value."""


@dataclass(frozen=True)
class TrainingProblem:
    """A network plus the ordered (bond_length, Hamiltonian) training pairs;
    ``hamiltonians`` is their compiled form and ``encoded`` the columns of
    the network's first encoding of their bond lengths (``network._input_rows``,
    read-only), both built once here.

    ``_last_forward`` holds at most one forward pass over the training
    points and the product H phi of its final columns, keyed by the bytes of
    its parameter vector, for ``cost`` and ``gradient`` to share; each
    problem has its own.
    """

    network: NetworkSpec
    training_set: tuple[tuple[float, PauliHamiltonian], ...]
    hamiltonians: CompiledHamiltonian = field(init=False, repr=False, compare=False)
    encoded: np.ndarray = field(init=False, repr=False, compare=False)
    _last_forward: dict[bytes, tuple[_ForwardPass, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        pairs = tuple((float(a), h) for a, h in self.training_set)
        object.__setattr__(self, "training_set", pairs)
        if not pairs:
            raise ValueError("training set must be non-empty")
        for a, h in pairs:
            if not math.isfinite(a):
                raise ValueError(f"bond length must be finite, got {a}")
            if h.n_qubits != self.network.n_qubits:
                raise ValueError(
                    f"Hamiltonian acts on {h.n_qubits} qubits, "
                    f"network has {self.network.n_qubits}"
                )
        object.__setattr__(
            self, "hamiltonians", compile_hamiltonians(h for _, h in pairs)
        )
        encoded = _input_rows(self.network, _bond_lengths(self))
        encoded.setflags(write=False)
        object.__setattr__(self, "encoded", encoded)


@dataclass(frozen=True)
class OptimizerSettings:
    max_iterations: int = 500
    gradient_norm_tolerance: float = 1e-5
    finite_difference_step: float = _FD_STEP

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not (self.gradient_norm_tolerance > 0):
            raise ValueError("gradient_norm_tolerance must be positive")
        if not (self.finite_difference_step > 0):
            raise ValueError("finite_difference_step must be positive")


@dataclass(frozen=True)
class MinimizeResult:
    """Raw minimizer outcome, independent of any network."""

    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class TrainedModel:
    network: NetworkSpec
    parameters: np.ndarray
    final_cost: float
    iterations_used: int
    converged: bool


def _check_params(params, problem: TrainingProblem) -> np.ndarray:
    vec = np.asarray(params, dtype=np.float64)
    k = problem.network.n_params
    if vec.ndim != 1 or vec.size != k:
        raise ValueError(f"expected {k} parameters, got size {vec.size}")
    return vec


def _bond_lengths(problem: TrainingProblem) -> np.ndarray:
    return np.array([a for a, _ in problem.training_set], dtype=np.float64)


def _training_pass(params, problem: TrainingProblem) -> tuple[_ForwardPass, np.ndarray]:
    """The forward pass of ``params`` over the training points, one column
    per point, and H applied to its final columns (read-only): the problem's
    kept pair when it was run on the same bytes, else a new one, which
    replaces it."""
    vec = _check_params(params, problem)
    key = vec.tobytes()
    memo = problem._last_forward
    found = memo.get(key)
    if found is None:
        memo.clear()
        forward_pass = _forward_pass(problem.network, problem.encoded, vec)
        products = _apply_hamiltonian_rows(problem.hamiltonians, forward_pass.cols)
        products.setflags(write=False)
        found = memo[key] = (forward_pass, products)
    return found


def energies(params, problem: TrainingProblem) -> np.ndarray:
    """Per-point energies <phi_j|H_j|phi_j>, in training-set order, from the
    problem's kept forward pass of ``params`` (or a new one)."""
    forward_pass, products = _training_pass(params, problem)
    return np.einsum("ib,ib->b", forward_pass.cols, products)


def cost(params, problem: TrainingProblem) -> float:
    """Summed energy expectation over the training points, evaluated as one
    batch with a column per point."""
    return float(energies(params, problem).sum())


def gradient(params, problem: TrainingProblem) -> np.ndarray:
    """Exact gradient of :func:`cost`, by reverse mode over one batch with
    a column per training point (``network._adjoint_gradient``), from the
    forward pass of ``cost`` when it was just called on the same vector.
    Its seed is d<phi|H|phi>/dphi = 2 Re(H) phi on the real final columns."""
    forward_pass, products = _training_pass(params, problem)
    return _adjoint_gradient(problem.network, forward_pass, 2.0 * products)


def finite_difference_gradient(
    params, problem: TrainingProblem, step: float = _FD_STEP
) -> np.ndarray:
    """Central-difference gradient, (f(w + h e_i) - f(w - h e_i)) / 2h,
    one coordinate at a time. Each f is the value :func:`cost` returns,
    computed afresh on all training points at once, so the problem's kept
    forward pass is neither read nor replaced."""
    if not (step > 0):
        raise ValueError("step must be positive")
    vec = _check_params(params, problem)
    inputs = _bond_lengths(problem)

    def f(w: np.ndarray) -> float:
        cols = _forward_rows(problem.network, inputs, w)
        return float(np.sum(_expectation_rows(problem.hamiltonians, cols)))

    grad = np.empty(vec.size)
    shifted = vec.copy()
    for i in range(vec.size):
        shifted[i] = vec[i] + step
        up = f(shifted)
        shifted[i] = vec[i] - step
        down = f(shifted)
        shifted[i] = vec[i]
        grad[i] = (up - down) / (2.0 * step)
    return grad


def _relative_deviation(g, reference) -> float:
    scale = max(float(np.max(np.abs(reference))), 1e-12)
    return float(np.max(np.abs(g - reference))) / scale


def _step_halving(
    params, problem: TrainingProblem, step: float
) -> tuple[np.ndarray, float]:
    """The central-difference gradient at step h and its max deviation from
    the one at h/2, relative to the latter's infinity norm."""
    at_h = finite_difference_gradient(params, problem, step)
    at_half_h = finite_difference_gradient(params, problem, step / 2.0)
    return at_h, _relative_deviation(at_h, at_half_h)


def gradient_deviations(
    params, problem: TrainingProblem, step: float = _FD_STEP
) -> tuple[float, float]:
    """(adjoint, step) deviations from one central-difference gradient at
    step h and one at h/2: the max deviation of :func:`gradient` from the
    central differences at h, relative to their infinity norm, and that of
    the central differences at h from those at h/2, relative to the
    latter's. Small values certify the adjoint and the step choice; a
    non-finite one raises :class:`NumericalError`."""
    at_h, step_deviation = _step_halving(params, problem, step)
    deviations = _relative_deviation(gradient(params, problem), at_h), step_deviation
    if not all(map(math.isfinite, deviations)):
        raise NumericalError(f"gradient check gave non-finite deviations {deviations}")
    return deviations


def gradient_step_check(params, problem: TrainingProblem, step: float = _FD_STEP) -> float:
    """Max deviation between central-difference gradients at h and h/2,
    relative to the gradient's infinity norm. Small values certify the
    step choice. Runs the two central-difference gradients only."""
    return _step_halving(params, problem, step)[1]


def init_params(k: int, seed: int) -> np.ndarray:
    """k Gaussian draws, mean 0, standard deviation 0.1, seeded by a
    non-negative integer."""
    if k < 1:
        raise ValueError("k must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed).normal(0.0, 0.1, size=k)


# ---------------------------------------------------------------------------
# BFGS with strong-Wolfe line search
# ---------------------------------------------------------------------------

_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
# The most trial steps of the line search's bracketing and zoom phases.
_BRACKET_STEPS = 25
_ZOOM_STEPS = 30


def _finite_or_raise(value: float, where: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NumericalError(f"objective returned {value} {where}")
    return value


def _cubic_step(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi):
    """Minimizer of the cubic matching values and slopes at both ends;
    None when the formula degenerates."""
    if d_hi is None:
        # Only one slope known: quadratic through (a_lo, f_lo, d_lo), (a_hi, f_hi).
        denom = 2.0 * (f_hi - f_lo - d_lo * (a_hi - a_lo))
        if denom == 0.0:
            return None
        return a_lo - d_lo * (a_hi - a_lo) ** 2 / denom
    d1 = d_lo + d_hi - 3.0 * (f_lo - f_hi) / (a_lo - a_hi)
    radicand = d1 * d1 - d_lo * d_hi
    if radicand < 0.0:
        return None
    d2 = math.copysign(math.sqrt(radicand), a_hi - a_lo)
    denom = d_hi - d_lo + 2.0 * d2
    if denom == 0.0:
        return None
    return a_hi - (a_hi - a_lo) * (d_hi + d2 - d1) / denom


def _zoom(fun, grad, x, p, f0, d0, a_lo, f_lo, d_lo, a_hi, f_hi, d_hi):
    """Narrow a bracket [a_lo, a_hi] known to contain a strong-Wolfe point."""
    for _ in range(_ZOOM_STEPS):
        lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
        width = hi - lo
        a = _cubic_step(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi)
        # Reject steps outside or hugging the bracket edge.
        if a is None or not (lo + 0.1 * width <= a <= hi - 0.1 * width):
            a = 0.5 * (lo + hi)
        x_a = x + a * p
        f_a = _finite_or_raise(fun(x_a), f"in line search at step {a}")
        if f_a > f0 + _WOLFE_C1 * a * d0 or f_a >= f_lo:
            a_hi, f_hi, d_hi = a, f_a, None
        else:
            g_a = np.asarray(grad(x_a), dtype=np.float64)
            d_a = float(g_a @ p)
            if abs(d_a) <= -_WOLFE_C2 * d0:
                return a, x_a, f_a, g_a
            if d_a * (a_hi - a_lo) >= 0.0:
                a_hi, f_hi, d_hi = a_lo, f_lo, d_lo
            a_lo, f_lo, d_lo = a, f_a, d_a
        if width < 1e-14:
            break
    return None


def _strong_wolfe(fun, grad, x, p, f0, g0):
    """Find alpha with sufficient decrease and flattened slope; returns
    (alpha, x + alpha p, f, g) there, None on failure."""
    d0 = float(g0 @ p)
    if d0 >= 0.0:
        return None
    a_prev, f_prev, d_prev = 0.0, f0, d0
    a = 1.0
    for i in range(_BRACKET_STEPS):
        x_a = x + a * p
        f_a = _finite_or_raise(fun(x_a), f"in line search at step {a}")
        if f_a > f0 + _WOLFE_C1 * a * d0 or (i > 0 and f_a >= f_prev):
            return _zoom(fun, grad, x, p, f0, d0, a_prev, f_prev, d_prev, a, f_a, None)
        g_a = np.asarray(grad(x_a), dtype=np.float64)
        d_a = float(g_a @ p)
        if abs(d_a) <= -_WOLFE_C2 * d0:
            return a, x_a, f_a, g_a
        if d_a >= 0.0:
            return _zoom(fun, grad, x, p, f0, d0, a, f_a, d_a, a_prev, f_prev, d_prev)
        a_prev, f_prev, d_prev = a, f_a, d_a
        a *= 2.0
    return None


def bfgs_minimize(objective, gradient_fn, x0, settings: OptimizerSettings) -> MinimizeResult:
    """Quasi-Newton minimization with the inverse-Hessian BFGS update.

    Stops when the gradient infinity norm reaches the tolerance or the
    iteration cap is hit. A failed line search returns the best iterate
    found so far with ``converged=False``; a non-finite objective raises
    :class:`NumericalError`.
    """
    x = np.array(x0, dtype=np.float64).reshape(-1).copy()
    k = x.size
    f = _finite_or_raise(objective(x), "at the start point")
    g = np.asarray(gradient_fn(x), dtype=np.float64)
    h_inv = np.eye(k)
    first_update = True
    iterations = 0
    for _ in range(settings.max_iterations):
        if float(np.abs(g).max()) <= settings.gradient_norm_tolerance:
            return MinimizeResult(x, f, iterations, True)
        p = -(h_inv @ g)
        if float(p @ g) >= 0.0:
            # Stale curvature produced a non-descent direction: restart.
            h_inv = np.eye(k)
            first_update = True
            p = -g
        found = _strong_wolfe(objective, gradient_fn, x, p, f, g)
        if found is None:
            return MinimizeResult(x, f, iterations, False)
        alpha, x_new, f_new, g_new = found
        s = alpha * p
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12:
            if first_update:
                # Scale the seed matrix to the first observed curvature.
                h_inv *= sy / float(y @ y)
                first_update = False
            rho = 1.0 / sy
            hy = h_inv @ y
            s_hy = s[:, None] * hy
            h_inv -= rho * (s_hy + s_hy.T)
            h_inv += (rho * rho * float(y @ hy) + rho) * (s[:, None] * s)
        x, f, g = x_new, f_new, g_new
        iterations += 1
    converged = float(np.abs(g).max()) <= settings.gradient_norm_tolerance
    return MinimizeResult(x, f, iterations, converged)


def train(
    problem: TrainingProblem,
    seed: int,
    settings: OptimizerSettings = OptimizerSettings(),
) -> TrainedModel:
    """Initialize from the seed, minimize the summed energy, report the fit."""
    x0 = init_params(problem.network.n_params, seed)

    def objective(v: np.ndarray) -> float:
        return cost(v, problem)

    def grad(v: np.ndarray) -> np.ndarray:
        return gradient(v, problem)

    result = bfgs_minimize(objective, grad, x0, settings)
    # Recompute so the reported number is exactly cost(parameters).
    final_cost = cost(result.x, problem)
    return TrainedModel(
        network=problem.network,
        parameters=result.x,
        final_cost=final_cost,
        iterations_used=result.iterations,
        converged=result.converged,
    )
