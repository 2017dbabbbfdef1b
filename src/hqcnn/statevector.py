"""Matrix-free n-qubit statevector simulation.

A state on n qubits is stored as 2**n amplitudes. Qubit 0 is the leftmost
tensor factor, i.e. the most significant bit of the amplitude index (the
q0 (x) q1 (x) ... (x) q_{n-1} ordering). No 2**n x 2**n matrix is ever
built: one-qubit gates work on amplitude slices selected by bit strides,
and a CNOT, or a whole fixed sequence of CNOTs, is one gather through a
precomputed index permutation.

The public functions are value-semantic: they take and return complex
``StateVector`` instances and never mutate their argument. Internally
every kernel works on a (batch, 2**n) array so that many independent
circuits advance with a single numpy call. The kernels are dtype-generic:
H, Ry and CNOT have real matrices, so the network's training path runs
them on float64 rows, and the public API runs the same kernels on
complex128 rows. The private ``_*_rows`` functions expose that batched
path to the rest of the package. Every kernel returns fresh rows and
never mutates its input.

The layout of the rows is part of the contract, because the readout
``_expect_z_rows`` is a BLAS product and the energy sums are einsums, and
both round differently on C- and Fortran-ordered operands.
``_product_rows`` and the CNOT gather ``_cnot_rows`` return
Fortran-ordered rows, the batch index varying fastest, whatever their
input; the one-qubit kernels return rows in the layout of their input.
So the rows of a forward pass are Fortran-ordered on every path, with
shared or per-row angles, and round the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 20

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass
class StateVector:
    """Amplitudes of an n-qubit register.

    ``amplitudes[i]`` is the coefficient of the basis state whose bit j
    (counting qubit 0 as the most significant bit) is ``(i >> (n-1-j)) & 1``.
    Treated as immutable: gate functions return new instances.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes for "
                f"{self.n_qubits} qubits, got shape {self.amplitudes.shape}"
            )

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())


def zero_state(n_qubits: int) -> StateVector:
    """All-qubits-|0> state: amplitude 1 at index 0."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amp = np.zeros(1 << n_qubits, dtype=np.complex128)
    amp[0] = 1.0
    return StateVector(n_qubits, amp)


def norm(psi: StateVector) -> float:
    """Euclidean norm of the amplitude vector."""
    return float(np.linalg.norm(psi.amplitudes))


# ---------------------------------------------------------------------------
# batched kernels, amplitudes of shape (batch, 2**n)
# ---------------------------------------------------------------------------


def _check_qubit(n_qubits: int, q: int) -> None:
    if not 0 <= q < n_qubits:
        raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")


def _pairs(rows: np.ndarray, n_qubits: int, q: int) -> np.ndarray:
    """(batch, 2**q, 2, 2**(n-1-q)) view of the rows whose axis 2 is bit q:
    ``[:, :, 0]`` holds the amplitudes where bit q is 0, ``[:, :, 1]``
    those where it is 1, and ``[:, :, ::-1]`` swaps the two halves. A
    kernel computing ``out`` from this view elementwise gets the layout of
    ``rows`` in ``out.reshape(rows.shape)``."""
    return rows.reshape(rows.shape[0], -1, 2, 1 << (n_qubits - 1 - q))


def _angle_factors(theta) -> tuple[np.ndarray, np.ndarray]:
    """Validated cos and sin of theta/2, elementwise, any shape.

    Rotation kernels take these factors rather than angles, so a caller
    that applies many rotations validates and evaluates them once.
    """
    t = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("rotation angle must be finite")
    t = t / 2.0
    return np.cos(t), np.sin(t)


# Signs that turn the swapped pair (hi, lo) into (-hi, lo), and for H
# the pair (lo, hi) into (lo, -hi); shaped to broadcast over ``_pairs``.
_Y_SIGNS = np.array([[-1.0], [1.0]])
_H_SIGNS = -_Y_SIGNS


def _h_rows(rows: np.ndarray, n_qubits: int, q: int) -> np.ndarray:
    """(lo, hi) -> ((lo + hi), (lo - hi)) / sqrt(2) on bit q."""
    v = _pairs(rows, n_qubits, q)
    out = _H_SIGNS * v
    out += v[:, :, ::-1]
    out *= _INV_SQRT2
    return out.reshape(rows.shape)


# The rotation kernels take c, s = _angle_factors(theta), scalars or
# arrays of shape (batch, 1, 1, 1) for one angle per row.


def _ry_rows(rows: np.ndarray, n_qubits: int, q: int, c, s) -> np.ndarray:
    """(lo, hi) -> (c lo - s hi, c hi + s lo) on bit q."""
    v = _pairs(rows, n_qubits, q)
    out = c * v
    out += (s * _Y_SIGNS) * v[:, :, ::-1]
    return out.reshape(rows.shape)


def _rx_rows(rows: np.ndarray, n_qubits: int, q: int, c, s) -> np.ndarray:
    """(lo, hi) -> (c lo - i s hi, c hi - i s lo) on bit q; complex rows."""
    v = _pairs(rows, n_qubits, q)
    out = c * v
    out += (-1j * s) * v[:, :, ::-1]
    return out.reshape(rows.shape)


def _rz_rows(rows: np.ndarray, n_qubits: int, q: int, c, s) -> np.ndarray:
    """(lo, hi) -> ((c - i s) lo, (c + i s) hi) on bit q; complex rows."""
    out = _pairs(rows, n_qubits, q) * (c + 1j * s * _Y_SIGNS)
    return out.reshape(rows.shape)


def _cnot_permutation(n_qubits: int, pairs) -> np.ndarray:
    """Gather indices of the CNOT sequence ``pairs`` of (control, target),
    applied in order: the sequence maps ``rows`` to ``rows[:, perm]``."""
    index = np.arange(1 << n_qubits)
    perm = index
    for control, target in pairs:
        c_bit = 1 << (n_qubits - 1 - control)
        t_bit = 1 << (n_qubits - 1 - target)
        # new[i] = old[i ^ t_bit] where bit `control` of i is set
        perm = perm[np.where(index & c_bit, index ^ t_bit, index)]
    return perm


def _cnot_rows(rows: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Apply a CNOT sequence given by its ``_cnot_permutation``; returns
    new Fortran-ordered rows, gathered as whole columns of the batch."""
    return rows.T.take(perm, axis=0).T


@lru_cache(maxsize=MAX_QUBITS)
def _z_signs(n_qubits: int) -> np.ndarray:
    """(2**n, n) matrix of sigma_z eigenvalues: +1 where bit q is 0, -1 where
    it is 1. Read-only, cached."""
    index = np.arange(1 << n_qubits)[:, None]
    shifts = n_qubits - 1 - np.arange(n_qubits)
    signs = 1.0 - 2.0 * ((index >> shifts) & 1)
    signs.setflags(write=False)
    return signs


def _probabilities(rows: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(rows):
        return rows.real**2 + rows.imag**2
    return rows * rows


def _expect_z_rows(rows: np.ndarray, n_qubits: int) -> np.ndarray:
    """(batch, n) array of per-qubit <sigma_z> = P(bit q = 0) - P(bit q = 1)."""
    return _probabilities(rows) @ _z_signs(n_qubits)


def _product_rows(factors: np.ndarray) -> np.ndarray:
    """Product states from per-qubit amplitude pairs.

    ``factors`` has shape (batch, n, 2), the amplitudes of |0> and |1> of
    each qubit; returns the Fortran-ordered (batch, 2**n) rows of their
    tensor products, built transposed.
    """
    columns = factors[:, 0, :].T
    for q in range(1, factors.shape[1]):
        columns = (columns[:, None, :] * factors[:, q, :].T).reshape(-1, factors.shape[0])
    return np.asfortranarray(columns.T)


# ---------------------------------------------------------------------------
# single-state public API
# ---------------------------------------------------------------------------


def _applied(psi: StateVector, kernel, *args) -> StateVector:
    rows = kernel(psi.amplitudes.reshape(1, -1), psi.n_qubits, *args)
    return StateVector(psi.n_qubits, rows[0])


def apply_h(psi: StateVector, q: int) -> StateVector:
    """Hadamard on qubit q."""
    _check_qubit(psi.n_qubits, q)
    return _applied(psi, _h_rows, q)


def apply_rx(psi: StateVector, q: int, theta: float) -> StateVector:
    """Rotation exp(-i theta/2 sigma_x) on qubit q."""
    _check_qubit(psi.n_qubits, q)
    return _applied(psi, _rx_rows, q, *_angle_factors(theta))


def apply_ry(psi: StateVector, q: int, theta: float) -> StateVector:
    """Rotation exp(-i theta/2 sigma_y) on qubit q,
    [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    _check_qubit(psi.n_qubits, q)
    return _applied(psi, _ry_rows, q, *_angle_factors(theta))


def apply_rz(psi: StateVector, q: int, theta: float) -> StateVector:
    """Rotation exp(-i theta/2 sigma_z) on qubit q."""
    _check_qubit(psi.n_qubits, q)
    return _applied(psi, _rz_rows, q, *_angle_factors(theta))


def apply_cnot(psi: StateVector, control: int, target: int) -> StateVector:
    """CNOT: flips the target bit on amplitudes whose control bit is 1."""
    _check_qubit(psi.n_qubits, control)
    _check_qubit(psi.n_qubits, target)
    if control == target:
        raise ValueError("control and target must differ")
    perm = _cnot_permutation(psi.n_qubits, ((control, target),))
    rows = _cnot_rows(psi.amplitudes.reshape(1, -1), perm)
    return StateVector(psi.n_qubits, rows[0])


def expect_z(psi: StateVector, q: int) -> float:
    """<sigma_z> on qubit q, in [-1, 1] for a normalized state."""
    _check_qubit(psi.n_qubits, q)
    return float(_expect_z_rows(psi.amplitudes.reshape(1, -1), psi.n_qubits)[0, q])
