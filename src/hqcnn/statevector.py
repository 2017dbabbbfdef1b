"""Matrix-free n-qubit statevector simulation.

A state on n qubits is stored as 2**n amplitudes. Qubit 0 is the leftmost
tensor factor, i.e. the most significant bit of the amplitude index (the
q0 (x) q1 (x) ... (x) q_{n-1} ordering). One-qubit gates work on amplitude
slices selected by bit strides, a CNOT, or a whole fixed sequence of
CNOTs, is one gather through a precomputed index permutation, and a layer
of Ry's on every qubit is applied as Kronecker tiles of up to
``_TILE_QUBITS`` qubits, each one matmul with a 2**k x 2**k matrix on a
view of the amplitudes. A 2**n x 2**n matrix is only built as a tile that
spans the register: the network's dense layers.

The public functions are value-semantic: they take and return complex
``StateVector`` instances and never mutate their argument. Internally
every kernel works on a C-ordered (2**n, points) array of amplitude-major
columns, one per state, so that many circuits advance with one numpy call
(the batched-register layout of Yao.jl, arXiv:1912.10877). A gate on
qubit q sees them as a (2**q, 2, rest) view, a Ry tile on qubits q0 ..
q0 + k - 1 as a (2**q0, 2**k, rest) view whose trailing matrices are
C-ordered, so each tile is one BLAS product across all columns (Haener &
Steiger, arXiv:1704.01127), and a CNOT sequence gathers whole amplitude
rows; tiles and gathers also take leading axes, as the adjoint sweep
stacks its states and adjoints. The kernels are dtype-generic: H, Ry and
CNOT have real matrices, so the network's training path runs them on
float64 columns at n > ``_TILE_QUBITS`` (below, it multiplies whole
layer matrices built by the same tile gather), and the public API on the
complex (2**n, 1) column of one state. The private ``_*_rows`` functions
are that batched path (the names predate the column layout); each maps
C-ordered columns to fresh C-ordered columns and never mutates its input.
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
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes for "
                f"{self.n_qubits} qubits, got shape {self.amplitudes.shape}"
            )


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
# batched kernels, C-ordered amplitude columns of shape (2**n, points)
# ---------------------------------------------------------------------------


def _check_qubit(n_qubits: int, q: int) -> None:
    if not 0 <= q < n_qubits:
        raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")


def _pairs(cols: np.ndarray, q: int) -> np.ndarray:
    """(2**q, 2, rest) view of the columns whose axis 1 is bit q: ``[:, 0]``
    holds the amplitudes where bit q is 0, ``[:, 1]`` those where it is 1,
    and ``[:, ::-1]`` swaps the two halves."""
    return cols.reshape(1 << q, 2, -1)


def _half_angles(theta) -> np.ndarray:
    """Validated theta/2, elementwise, any shape."""
    t = np.asarray(theta, dtype=np.float64)
    if np.count_nonzero(np.isfinite(t)) < t.size:
        raise ValueError("rotation angle must be finite")
    return t / 2.0


def _angle_factors(theta) -> tuple[np.ndarray, np.ndarray]:
    """Validated cos and sin of theta/2, elementwise, any shape.

    Rotation kernels take these factors rather than angles, so a caller
    that applies many rotations validates and evaluates them once.
    """
    t = _half_angles(theta)
    return np.cos(t), np.sin(t)


# Signs that turn the swapped pair (hi, lo) into (-hi, lo), and for H
# the pair (lo, hi) into (lo, -hi); shaped to broadcast over ``_pairs``.
_Y_SIGNS = np.array([[-1.0], [1.0]])
_H_SIGNS = -_Y_SIGNS


def _h_rows(cols: np.ndarray, q: int) -> np.ndarray:
    """(lo, hi) -> ((lo + hi), (lo - hi)) / sqrt(2) on bit q."""
    v = _pairs(cols, q)
    out = _H_SIGNS * v
    out += v[:, ::-1]
    out *= _INV_SQRT2
    return out.reshape(cols.shape)


def _ry_rows(cols: np.ndarray, q: int, c, s) -> np.ndarray:
    """(lo, hi) -> (c lo - s hi, c hi + s lo) on bit q."""
    v = _pairs(cols, q)
    out = c * v
    out += (s * _Y_SIGNS) * v[:, ::-1]
    return out.reshape(cols.shape)


# Ry layers are applied as Kronecker tiles of at most this many qubits: a
# 16 x 16 tile costs one matmul dispatch where four one-qubit kernels
# cost twelve ufunc dispatches, and larger tiles grow as 4**k.
_TILE_QUBITS = 4


@lru_cache(maxsize=MAX_QUBITS)
def _tile_entries(n_qubits: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """How the entries of the Ry tiles of one layer are built, one pair of
    read-only index arrays per tile size k (cached).

    The layer's one-qubit factors are laid out as the 3n values cos,
    then sin, then -sin of each qubit's half angle. Entry (I, J) of the
    tile on qubits q0 .. q0 + k - 1 is the product over m < k of the
    factor of type (bit m of I, bit m of J) of Ry on qubit q0 + m, bit 0
    the most significant: cos where the bits agree, sin at (1, 0) and
    -sin at (0, 1). So a tile has 3**k distinct products, one per
    sequence of k types: the (tiles, k, 3**k) array lists their factors,
    row m for qubit q0 + m, and the (4**k,) one the sequence of each
    entry, row-major, qubit q0's type the most significant.
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
        types = np.arange(3**k) // 3**shifts % 3
        factors = np.array(starts)[:, None, None] + np.arange(k)[:, None] + n_qubits * types
        row, col = np.divmod(np.arange(1 << (2 * k)), 1 << k)
        i, j = (row >> shifts) & 1, (col >> shifts) & 1
        sequence = 3**shifts[:, 0] @ ((i > j) + 2 * (i < j))
        factors.setflags(write=False)
        sequence.setflags(write=False)
        groups.append((factors, sequence))
    return tuple(groups)


def _ry_tiles(c: np.ndarray, s: np.ndarray, n_qubits: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Tile matrices of layers of n Ry's, one per qubit, from their 1-D
    angle factors ``c, s = _angle_factors(theta)``, where theta[i + n*j]
    is the angle of qubit i in layer j.

    Entry j of the result holds the tiles of layer j: tile t is the
    (2**k, 2**k) Kronecker product of the Ry's on qubits
    ``_TILE_QUBITS * t`` up to the next tile or n. All tiles of one size
    are built at once (``_tile_entries``): one gather of whole rows of the
    (3n, layers) factor table and one product give the 3**k products of
    every tile and layer, multiplied in qubit order, and one gather
    spreads them over the C-ordered, read-only entries.
    """
    factors = _ry_factors(c, s, n_qubits)
    tiles = []
    for index, sequence in _tile_entries(n_qubits):
        entries = _gather_tiles(factors, index, sequence)
        entries.setflags(write=False)
        tiles += [entries[:, t] for t in range(index.shape[0])]
    return tuple(zip(*tiles))


def _ry_factors(c: np.ndarray, s: np.ndarray, n_qubits: int) -> np.ndarray:
    """The (3n, layers) factor table of ``_tile_entries`` from the angle
    factors of layers of n Ry's, read in C order, so that the layers of a
    stack of vectors follow one another vector by vector: cos, then sin,
    then -sin."""
    c, s = c.reshape(-1, n_qubits).T, s.reshape(-1, n_qubits).T
    return np.concatenate((c, s, -s))


def _gather_tiles(factors: np.ndarray, index: np.ndarray, sequence: np.ndarray) -> np.ndarray:
    """The fresh (layers, tiles, 2**k, 2**k) entries of the tiles of one
    size, from the ``_ry_factors`` table and that size's pair of
    ``_tile_entries``: one gather of factors, one product in qubit order
    and one gather along ``sequence``."""
    size = 1 << index.shape[1]
    products = np.multiply.reduce(factors.take(index, axis=0), axis=1)
    entries = products.transpose(2, 0, 1).take(sequence, axis=2)
    return entries.reshape(*entries.shape[:2], size, size)


def _tile_rows(cols: np.ndarray, tiles) -> np.ndarray:
    """Apply the tiles of one layer, as ``_ry_tiles`` builds them, to
    (..., 2**n, points) columns: tile t, on the qubits from
    ``_TILE_QUBITS * t`` on, is one matmul on the (-1, 2**k, rest) view
    whose axis 1 is its bits, one BLAS product across all columns. The
    tiles are real, so the columns keep their dtype."""
    for t, tile in enumerate(tiles):
        size = tile.shape[-1]
        rest = (cols.shape[-2] >> (_TILE_QUBITS * t)) // size * cols.shape[-1]
        cols = np.matmul(tile, cols.reshape(-1, size, rest)).reshape(cols.shape)
    return cols


def _cnot_permutation(n_qubits: int, pairs) -> np.ndarray:
    """Gather indices of the CNOT sequence ``pairs`` of (control, target),
    applied in order: the sequence maps columns ``cols`` to ``cols[perm]``."""
    index = np.arange(1 << n_qubits)
    perm = index
    for control, target in pairs:
        c_bit = 1 << (n_qubits - 1 - control)
        t_bit = 1 << (n_qubits - 1 - target)
        # new[i] = old[i ^ t_bit] where bit `control` of i is set
        perm = perm[np.where(index & c_bit, index ^ t_bit, index)]
    return perm


def _cnot_rows(cols: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Apply a CNOT sequence given by its ``_cnot_permutation`` to
    (..., 2**n, points) columns: one gather along the amplitude axis."""
    return cols.take(perm, axis=-2)


@lru_cache(maxsize=MAX_QUBITS)
def _z_signs(n_qubits: int) -> np.ndarray:
    """(2**n, n) matrix of sigma_z eigenvalues: +1 where bit q is 0, -1 where
    it is 1. Read-only, cached."""
    index = np.arange(1 << n_qubits)[:, None]
    shifts = n_qubits - 1 - np.arange(n_qubits)
    signs = 1.0 - 2.0 * ((index >> shifts) & 1)
    signs.setflags(write=False)
    return signs


def _probabilities(cols: np.ndarray) -> np.ndarray:
    if cols.dtype.kind == "c":
        return cols.real**2 + cols.imag**2
    return cols * cols


def _expect_z_rows(cols: np.ndarray, n_qubits: int) -> np.ndarray:
    """(..., points, n) array of per-qubit <sigma_z> = P(bit q = 0) - P(bit q = 1)
    of (..., 2**n, points) columns: one product per leading index."""
    return _probabilities(cols).mT @ _z_signs(n_qubits)


@lru_cache(maxsize=_TILE_QUBITS)
def _product_index(k: int) -> np.ndarray:
    """(k, 2**k) array: row m lists 2m + bit m of each amplitude index, bit
    0 the most significant, a row of the (2k, points) factor table."""
    index = 2 * np.arange(k)[:, None] + ((np.arange(1 << k) >> np.arange(k)[::-1, None]) & 1)
    index.setflags(write=False)
    return index


def _product_rows(factors: np.ndarray) -> np.ndarray:
    """Product states from per-qubit amplitude pairs.

    ``factors`` is a C-ordered (..., n, 2, points) array, the amplitudes of
    |0> and |1> of each qubit; returns the fresh (..., 2**n, points)
    columns of their tensor products, multiplied in qubit order: the first
    ``_TILE_QUBITS`` by one gather and one product, each later qubit by
    one broadcast product.
    """
    *outer, n, _, points = factors.shape
    k = min(n, _TILE_QUBITS)
    lead = factors[..., :k, :, :].reshape(*outer, 2 * k, points)
    cols = np.multiply.reduce(lead.take(_product_index(k), axis=-2), axis=-3)
    for q in range(k, n):
        cols = cols[..., :, None, :] * factors[..., q, None, :, :]
        cols = cols.reshape(*outer, -1, points)
    return cols


# ---------------------------------------------------------------------------
# single-state public API
# ---------------------------------------------------------------------------


def _applied(psi: StateVector, kernel, *args) -> StateVector:
    cols = kernel(psi.amplitudes[:, None], *args)
    return StateVector(psi.n_qubits, cols[:, 0])


def apply_h(psi: StateVector, q: int) -> StateVector:
    """Hadamard on qubit q."""
    _check_qubit(psi.n_qubits, q)
    return _applied(psi, _h_rows, q)


def apply_ry(psi: StateVector, q: int, theta: float) -> StateVector:
    """Rotation exp(-i theta/2 sigma_y) on qubit q,
    [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    _check_qubit(psi.n_qubits, q)
    return _applied(psi, _ry_rows, q, *_angle_factors(theta))


def apply_cnot(psi: StateVector, control: int, target: int) -> StateVector:
    """CNOT: flips the target bit on amplitudes whose control bit is 1."""
    _check_qubit(psi.n_qubits, control)
    _check_qubit(psi.n_qubits, target)
    if control == target:
        raise ValueError("control and target must differ")
    perm = _cnot_permutation(psi.n_qubits, ((control, target),))
    cols = _cnot_rows(psi.amplitudes[:, None], perm)
    return StateVector(psi.n_qubits, cols[:, 0])


def expect_z(psi: StateVector, q: int) -> float:
    """<sigma_z> on qubit q, in [-1, 1] for a normalized state."""
    _check_qubit(psi.n_qubits, q)
    return float(_expect_z_rows(psi.amplitudes[:, None], psi.n_qubits)[0, q])
