"""Matrix-free n-qubit statevector simulation.

A state on n qubits is stored as 2**n amplitudes. Qubit 0 is the leftmost
tensor factor, i.e. the most significant bit of the amplitude index (the
q0 (x) q1 (x) ... (x) q_{n-1} ordering). No 2**n x 2**n matrix is ever
built: one-qubit gates work on amplitude slices selected by bit strides,
a CNOT, or a whole fixed sequence of CNOTs, is one gather through a
precomputed index permutation, and a layer of Ry's on every qubit is
applied as Kronecker tiles of up to ``_TILE_QUBITS`` qubits, each one
matmul with a 2**k x 2**k matrix on a view of the rows.

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
``_product_rows``, the CNOT gather ``_cnot_rows`` and the Ry tiles
``_tile_rows`` return Fortran-ordered rows, the batch index varying
fastest, whatever their input: a tile's matmul writes into a
Fortran-ordered array through its ``out`` view. The one-qubit kernels
return rows in the layout of their input. So the rows of a forward pass
are Fortran-ordered on every path, with shared or per-row angles, and
round the same way.
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


# Ry layers are applied as Kronecker tiles of at most this many qubits: a
# 16 x 16 tile costs one matmul dispatch where four one-qubit kernels
# cost twelve ufunc dispatches, and larger tiles grow as 4**k.
_TILE_QUBITS = 4


@lru_cache(maxsize=MAX_QUBITS)
def _tile_entries(n_qubits: int) -> tuple[np.ndarray, ...]:
    """Where the entries of the Ry tiles of one layer come from, one
    (tiles, k, 4**k) index array per tile size k (read-only, cached).

    The layer's one-qubit factors are laid out as the 3n values cos,
    then sin, then -sin of each qubit's half angle. Entry (I, J) of the
    tile on qubits q0 .. q0 + k - 1 is the product over m < k of the
    factor that Ry on qubit q0 + m has at (bit m of I, bit m of J), bit 0
    the most significant: cos where the bits agree, sin at (1, 0) and
    -sin at (0, 1). Row m of a tile's index array lists those factors
    for all its entries, row-major.
    """
    full = n_qubits - n_qubits % _TILE_QUBITS
    groups = []
    for starts, k in (
        (range(0, full, _TILE_QUBITS), _TILE_QUBITS),
        (range(full, n_qubits, _TILE_QUBITS), n_qubits - full),
    ):
        if not starts:
            continue
        shifts = np.arange(k - 1, -1, -1)[:, None]
        row, col = np.divmod(np.arange(1 << (2 * k)), 1 << k)
        i, j = (row >> shifts) & 1, (col >> shifts) & 1
        factor = np.arange(k)[:, None] + n_qubits * ((i > j) + 2 * (i < j))
        index = np.array(starts)[:, None, None] + factor
        index.setflags(write=False)
        groups.append(index)
    return tuple(groups)


def _ry_tiles(c: np.ndarray, s: np.ndarray, n_qubits: int) -> tuple[np.ndarray, ...]:
    """Tile matrices of layers of n Ry's, one per qubit, from their angle
    factors ``c, s = _angle_factors(theta)``, where theta[i + n*j] is the
    angle of qubit i in layer j.

    Tile t is the Kronecker product of the Ry's on qubits
    ``_TILE_QUBITS * t`` up to the next tile or n; entry t of the result
    holds it for every layer, layer first: shape (layers, 2**k, 2**k) for
    1-D factors, and (layers, batch, 1, 2**k, 2**k) for (batch, n*layers)
    factors, one angle vector per row. All tiles of one size are built
    at once, by one gather and one product from the factors, and
    returned read-only.
    """
    split = (*c.shape[:-1], -1, n_qubits)
    factors = np.concatenate((c.reshape(split), s.reshape(split), -s.reshape(split)), axis=-1)
    if c.ndim == 2:
        factors = np.moveaxis(factors, 0, 1)[:, :, None]
    tiles = []
    for index in _tile_entries(n_qubits):
        size = 1 << index.shape[1]
        entries = np.multiply.reduce(factors.take(index, axis=-1), axis=-2)
        entries = entries.reshape(*entries.shape[:-1], size, size)
        entries.setflags(write=False)
        tiles += [entries[..., t, :, :] for t in range(index.shape[0])]
    return tuple(tiles)


def _tile_rows(rows: np.ndarray, tiles) -> np.ndarray:
    """Apply the tiles of one layer, as ``_ry_tiles`` builds them for one
    layer index: tile t acts on the qubits from ``_TILE_QUBITS * t`` on.

    Each tile is one matmul on the (batch, 2**q0, 2**k, 2**(n-q0-k)) view
    of the rows whose axis 2 is the tile's bits, written into a
    Fortran-ordered (batch, 2**n) array, so the rows come out
    Fortran-ordered whatever their input. A tile of shape (batch, 1, 2**k,
    2**k) applies one matrix per row through the same matmul. The tiles
    are real, so the rows keep their dtype. Returns fresh rows; ``rows``
    is unchanged.
    """
    batch = rows.shape[0]
    for t, tile in enumerate(tiles):
        shape = (batch, 1 << (_TILE_QUBITS * t), tile.shape[-1], -1)
        out = np.empty(rows.shape, dtype=rows.dtype, order="F")
        np.matmul(tile, rows.reshape(shape), out=out.reshape(shape))
        rows = out
    return rows


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
