"""Training: summed-energy cost, exact adjoint gradients, BFGS.

The cost of a parameter vector w over a training set {(a_j, H_j)} is

    f(w) = sum_j <phi_j| H_j |phi_j>,   |phi_j> = forward(net, a_j, w),

so minimizing f pushes each predicted energy toward the ground energy of
its Hamiltonian (variational bound: each term is >= lambda_min(H_j)).

``energies`` gives the per-point energies on the network's real batched
path: one forward column per training point, scored against the training
Hamiltonians. ``TrainingProblem`` compiles those once, and encodes the
bond lengths once. ``cost`` is their sum. A trained model's predictions
are ``energies`` of its parameters, one pass per split: on its training
points they sum exactly to its final cost, the f its run ended on; other
points are scored as the training set of a ``TrainingProblem`` of their
own.

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
only the backward part. Every forward pass over the training points,
with H applied to its final columns, is one ``_scored_pass`` from the
problem's encoded columns: that of ``cost``, of a training round, and
of each central-difference value.

BFGS runs have one driver, ``_lockstep``, which advances a list of runs
in rounds: ``bfgs_minimize`` is that driver on one run, and
``train_lockstep`` on one run per seed; ``train`` is ``train_lockstep``
of one seed. At n <= 4 a training round is one grouped pass over the
points that the runs yield, which gives f and the gradient at each; it
is the ``_scored_pass`` of the stacked points, followed by the code of
``gradient``, along a leading group axis, bitwise equal to them per
vector. Above 4 qubits each point goes through ``cost`` when its run
calls for f and ``gradient`` only when it calls for g, on the pass that
``cost`` kept. At every n the first error raised, by a grouped pass or
by a run's own f or g call, as on a non-finite angle, ends training
with that error.

Central differences, the paper's method, stay as the independent
reference (``finite_difference_gradient``): plain central differences
of ``cost``, one coordinate at a time; a step that rounding erases at
some angle raises. ``gradient_deviations`` compares the adjoint with them and
guards their step choice by halving it, from two central-difference
gradients; ``gradient_step_check`` is the latter.

The minimizer is a self-contained BFGS with a strong-Wolfe line search
(c1 = 1e-4, c2 = 0.9). The line search is one loop over one bracket, as
in Moré & Thuente (ACM TOMS 20(3), 1994), with the trial steps and tests
of Nocedal & Wright's Algorithms 3.5 and 3.6. While the bracket is open,
each trial doubles the step, at most 25 times. Once a trial has closed
it, each trial is the minimizer of the cubic that matches both ends, or
of the quadratic where one end has no slope; it is bisection where that
falls outside the bracket or within a tenth of its width from an edge.
At most 30 such trials run, and the search stops after the first one
drawn from a bracket narrower than 1e-14.

The minimizer knows no objective: ``_bfgs_steps`` is a generator that
yields each point it needs scored and takes by ``send`` a pair of calls,
f and g at that point, so ``bfgs_minimize`` can bind an objective and a
gradient function to each point, and ``train_lockstep`` can score the
points of many runs together, through the same ``_lockstep`` rounds and
with the same arithmetic. Each trial point is built once; its f is
called, and then, for its slope, its g, on the same array; the accepted
one is the next iterate. Restarts from steepest descent are counted in
the result. Defaults: at most 500 iterations, stop when the gradient
infinity norm drops to 1e-5.

Determinism: cost, gradient and each central-difference evaluation run
all training points in one batch in a fixed order, the central
differences walk the coordinates in order, and lockstep rounds visit the
seeds in order; parameter initialization draws from a seeded generator.
Identical inputs therefore give bitwise-identical results on one
platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .network import NetworkSpec, _adjoint_gradient, _forward_pass, _ForwardPass, _input_rows
from .pauli import (
    CompiledHamiltonian,
    PauliHamiltonian,
    _apply_hamiltonian_rows,
    compile_hamiltonians,
)
from .statevector import _TILE_QUBITS

# Not called here: imported so that perfbench/layers.py can hook them by name.
from .network import _forward_rows, forward  # noqa: F401
from .pauli import _expectation_rows, expectation  # noqa: F401

_FD_STEP = 1e-6  # the default step h of every central difference


class NumericalError(RuntimeError):
    """Objective or gradient produced a non-finite value, or a
    central-difference step was lost to rounding."""


@dataclass(frozen=True)
class TrainingProblem:
    """A network plus the ordered (bond_length, Hamiltonian) training pairs;
    ``hamiltonians`` is their compiled form and ``encoded`` the columns of
    the network's first encoding of their bond lengths (``network._input_rows``,
    read-only), both built once here.

    ``_last_forward`` holds at most one forward pass over the training
    points and the product H phi of its final columns, keyed by the bytes of
    its parameter vector, for ``cost`` and ``gradient`` to share: in the
    training rounds above 4 qubits, and for direct callers. Each problem
    has its own.
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
        encoded = _input_rows(self.network, [a for a, _ in pairs])
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
    """Raw minimizer outcome, independent of any network; ``restarts``
    counts the iterations that dropped their curvature estimate for a
    steepest-descent step."""

    x: np.ndarray
    fun: float
    iterations: int
    converged: bool
    restarts: int = 0


@dataclass(frozen=True)
class TrainedModel:
    """A seed's fit: its parameters and ``final_cost``, the f that its BFGS
    run ended on, which is ``cost`` at those parameters bit for bit."""

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


def _scored_pass(params, problem: TrainingProblem) -> tuple[_ForwardPass, np.ndarray]:
    """The forward pass of ``params`` over the training points, one column
    per point, from the problem's encoded columns, and H applied to its
    final columns (read-only). ``params`` is one vector, or at n <=
    _TILE_QUBITS a (G, k) stack of them, whose pass and products then have
    a leading group axis and are bitwise those of each vector alone."""
    forward_pass = _forward_pass(problem.network, problem.encoded, params)
    products = _apply_hamiltonian_rows(problem.hamiltonians, forward_pass.cols)
    products.setflags(write=False)
    return forward_pass, products


def _training_pass(params, problem: TrainingProblem) -> tuple[_ForwardPass, np.ndarray]:
    """The ``_scored_pass`` of ``params``: the problem's kept pair when it
    was run on the same bytes, else a new one, which replaces it."""
    vec = _check_params(params, problem)
    key = vec.tobytes()
    memo = problem._last_forward
    found = memo.get(key)
    if found is None:
        memo.clear()
        found = memo[key] = _scored_pass(vec, problem)
    return found


def _pass_energies(cols: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Per-point energies <phi_j|H_j|phi_j> of a pass's (..., 2**n, points)
    final columns and H applied to them, per leading index."""
    return np.einsum("...ib,...ib->...b", cols, products)


def energies(params, problem: TrainingProblem) -> np.ndarray:
    """Per-point energies <phi_j|H_j|phi_j>, in training-set order, from the
    problem's kept forward pass of ``params`` (or a new one)."""
    forward_pass, products = _training_pass(params, problem)
    return _pass_energies(forward_pass.cols, products)


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
    computed afresh by a ``_scored_pass`` from the problem's encoded
    columns, so the problem's kept forward pass is neither read nor
    replaced. A step that rounding erases at some angle, where
    w_i + h == w_i or w_i - h == w_i, raises :class:`NumericalError`."""
    if not (step > 0):
        raise ValueError("step must be positive")
    vec = _check_params(params, problem)
    plus, minus = vec + step, vec - step
    erased = np.flatnonzero((plus == vec) | (minus == vec))
    if erased.size:
        raise NumericalError(
            f"central-difference step {step!r} is lost to rounding at parameter {erased[0]}"
        )

    def f(w: np.ndarray) -> float:
        forward_pass, products = _scored_pass(w, problem)
        return float(_pass_energies(forward_pass.cols, products).sum())

    grad = np.empty(vec.size)
    shifted = vec.copy()
    for i in range(vec.size):
        shifted[i] = plus[i]
        up = f(shifted)
        shifted[i] = minus[i]
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
# The most trial steps of the line search while its bracket is open, and
# after a trial has closed it.
_BRACKET_STEPS = 25
_ZOOM_STEPS = 30


def _finite_or_raise(value: float, where: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NumericalError(f"objective returned {value} {where}")
    return value


def _finite_gradient_or_raise(value, where: str) -> np.ndarray:
    g = np.asarray(value, dtype=np.float64)
    if not np.isfinite(g).all():
        raise NumericalError(f"gradient is not finite {where}")
    return g


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


def _strong_wolfe(x, p, f0, d0):
    """Find alpha with sufficient decrease and flattened slope along p,
    whose slope at x is d0, yielding trial points as ``_bfgs_steps`` does;
    returns (alpha, x + alpha p, f, g) there, None on failure.

    ``lo`` = (step, f, slope) is the trial with the least f that passed
    the decrease test, the start point at first, and ``hi`` the
    bracket's other end, whose slope is None where its decrease failed;
    ``hi`` is None while the bracket is open. Each trial is scored and
    tested once: its g is asked for only where its decrease passed, and
    checked entry by entry only where its slope is not finite."""
    if d0 >= 0.0:
        return None
    lo, hi = (0.0, f0, d0), None
    trials_left, narrow = _BRACKET_STEPS, False
    while trials_left and not narrow:
        trials_left -= 1
        is_open = hi is None
        if is_open:
            a = 2.0 * lo[0] or 1.0  # 1, then twice the last trial
        else:
            left, right = sorted((lo[0], hi[0]))
            width = right - left
            narrow = width < 1e-14
            a = _cubic_step(*lo, *hi)
            # Reject steps outside or hugging the bracket edge.
            if a is None or not (left + 0.1 * width <= a <= right - 0.1 * width):
                a = 0.5 * (left + right)
        x_a = x + a * p
        f_of, g_of = yield x_a
        where = f"in line search at step {a}"
        f_a = _finite_or_raise(f_of(), where)
        # The first trial is tested against f0 by sufficient decrease only.
        if f_a > f0 + _WOLFE_C1 * a * d0 or (f_a >= lo[1] and (lo[0] > 0.0 or not is_open)):
            hi = (a, f_a, None)
        else:
            g_a = np.asarray(g_of(), dtype=np.float64)
            d_a = float(g_a @ p)
            if not math.isfinite(d_a):
                _finite_gradient_or_raise(g_a, where)
            if abs(d_a) <= -_WOLFE_C2 * d0:
                return a, x_a, f_a, g_a
            if (d_a >= 0.0) if is_open else (d_a * (hi[0] - lo[0]) >= 0.0):
                hi = lo
            lo = (a, f_a, d_a)
        if is_open and hi is not None:
            trials_left = _ZOOM_STEPS
    return None


def _bfgs_steps(x0, settings: OptimizerSettings):
    """Quasi-Newton minimization with the inverse-Hessian BFGS update, as
    a generator of the points it needs scored: for each point x it yields,
    it takes by ``send`` a pair of calls (f_of, g_of), for the objective
    and the gradient at x, and returns its :class:`MinimizeResult` as its
    ``StopIteration`` value. It calls f_of once, and g_of at most once,
    after it, only where it needs a slope, before it yields again; so a
    caller that scores f and g together has g ready, and one that keeps
    the pass of f (``TrainingProblem``) serves g from it.

    Stops when the gradient infinity norm reaches the tolerance or the
    iteration cap is hit. A failed line search returns the best iterate
    found so far with ``converged=False``; a non-finite objective or
    gradient raises :class:`NumericalError` from ``send``.
    """
    x = np.array(x0, dtype=np.float64).reshape(-1).copy()
    k = x.size
    f_of, g_of = yield x
    f = _finite_or_raise(f_of(), "at the start point")
    g = _finite_gradient_or_raise(g_of(), "at the start point")
    h_inv = np.eye(k)
    first_update = True
    iterations = restarts = 0
    for _ in range(settings.max_iterations):
        if float(np.abs(g).max()) <= settings.gradient_norm_tolerance:
            return MinimizeResult(x, f, iterations, True, restarts)
        p = -(h_inv @ g)
        slope = float(p @ g)
        if slope >= 0.0:
            # Stale curvature produced a non-descent direction: restart.
            h_inv = np.eye(k)
            first_update = True
            p = -g
            slope = float(p @ g)
            restarts += 1
        found = yield from _strong_wolfe(x, p, f, slope)
        if found is None:
            return MinimizeResult(x, f, iterations, False, restarts)
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
    return MinimizeResult(x, f, iterations, converged, restarts)


def _lockstep(runs, scorers) -> list[MinimizeResult]:
    """Advance ``_bfgs_steps`` runs in rounds: in each round every
    unfinished run yields one point, ``scorers`` builds the pair of calls
    (f_of, g_of) for each, in order, and each run in turn is sent its
    pair, makes its calls and yields its next point or ends. Returns each
    run's :class:`MinimizeResult`, in order. The first exception raised,
    by ``scorers`` or by a run's own calls, ends every run at once."""
    asked = [(run, next(run)) for run in runs]
    results = {}
    while asked:
        waiting, asked = asked, []
        pairs = scorers([x for _, x in waiting])
        for (run, _), pair in zip(waiting, pairs):
            try:
                asked.append((run, run.send(pair)))
            except StopIteration as stop:
                results[run] = stop.value
    return [results[run] for run in runs]


def bfgs_minimize(objective, gradient_fn, x0, settings: OptimizerSettings) -> MinimizeResult:
    """Minimize ``objective`` from x0 by one ``_bfgs_steps`` run, sending
    it ``objective`` and ``gradient_fn`` bound to each point it yields."""
    return _lockstep(
        [_bfgs_steps(x0, settings)],
        lambda points: [(partial(objective, x), partial(gradient_fn, x)) for x in points],
    )[0]


# ---------------------------------------------------------------------------
# training: BFGS runs of one or many seeds, advanced in lockstep rounds
# ---------------------------------------------------------------------------


def _scored_group(points, problem: TrainingProblem):
    """Score parameter vectors by one grouped pass at n <= _TILE_QUBITS:
    per vector, the pair of calls (f_of, g_of) that ``_bfgs_steps`` takes,
    which return its f and a copy of its gradient; the code of ``cost``
    and ``gradient``, along a leading group axis, so every value is
    bitwise that of its vector alone."""
    forward_pass, products = _scored_pass(np.array(points), problem)
    point_energies = _pass_energies(forward_pass.cols, products)
    grads = _adjoint_gradient(problem.network, forward_pass, 2.0 * products)
    return [(partial(float, e.sum()), g.copy) for e, g in zip(point_energies, grads)]


def _round_scorers(points, problem: TrainingProblem):
    """The pair of calls (f_of, g_of) for each point of a round, in order.
    At n <= _TILE_QUBITS one grouped pass, run here, scores them all.
    Above, each pair binds ``cost`` and ``gradient`` to its point, so a
    run that calls both in turn has ``gradient`` read the pass that
    ``cost`` kept. Either way an error is not caught: it ends training."""
    if problem.network.n_qubits <= _TILE_QUBITS:
        return _scored_group(points, problem)
    return [(partial(cost, x, problem), partial(gradient, x, problem)) for x in points]


def train_lockstep(
    problem: TrainingProblem,
    seeds,
    settings: OptimizerSettings = OptimizerSettings(),
) -> list[TrainedModel]:
    """Train each seed from ``init_params`` by ``_bfgs_steps``, all in
    lockstep (``_lockstep``), each round's calls built by
    ``_round_scorers``. The rounds are deterministic and single-threaded,
    and every value is bitwise the one that the seed's run gets in a round
    of its own, so are the models, returned per seed in order. The first
    error raised, whichever seed's point or call caused it, ends training
    at once with that error."""
    runs = [_bfgs_steps(init_params(problem.network.n_params, seed), settings) for seed in seeds]
    return [
        TrainedModel(problem.network, result.x, result.fun, result.iterations, result.converged)
        for result in _lockstep(runs, partial(_round_scorers, problem=problem))
    ]


def train(
    problem: TrainingProblem,
    seed: int,
    settings: OptimizerSettings = OptimizerSettings(),
) -> TrainedModel:
    """Initialize from the seed, minimize the summed energy, report the
    fit: :func:`train_lockstep` of the one seed."""
    return train_lockstep(problem, (seed,), settings)[0]
