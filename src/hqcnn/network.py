"""Layered hybrid network over the statevector simulator.

The full model (``Variant.WITH_MEASUREMENTS``) runs, for scalar input a:

1. encoding: on every qubit of |0...0>, H then Ry(a),
2. a trainable block of n layers (CNOT ladder + one Ry per qubit),
3. an exact per-qubit <sigma_z> readout, giving b in [-1, 1]^n,
4. re-encoding of the readout on a fresh register, H then Ry(pi * b_i),
   so the angles span [-pi, pi],
5. a second trainable block of n layers.

Step 3/4 is the network's nonlinearity: amplitudes are collapsed to
probabilities and fed back in as angles. The ablation
(``Variant.WITHOUT_MEASUREMENTS``) keeps the same parameter budget by
replacing steps 2-5 with a single trainable block of 2n layers, so both
variants consume exactly 2 n^2 rotation angles.

Parameter vectors are plain 1-D float arrays (radians). Block j of a
trainable block reads angles ``params[offset + i + n*j]`` for qubit i.

All public functions are pure. The training workload runs through
``_run_blocks``, by way of ``_forward_pass`` (one shared parameter
vector, kept for the adjoint sweep) or ``_forward_rows`` (a shared vector
or one vector per row): one row per input, float64 amplitudes (H, Ry and
CNOT are real gates), the encoding built in closed form as a product
state, each CNOT ladder one cached gather permutation, each layer's n
Ry's a few Kronecker tiles of up to four qubits, and all qubits read out
at once. The tiles of a whole parameter vector are built once per pass
(``statevector._ry_tiles``), and each is one matmul that writes
Fortran-ordered rows (``statevector._tile_rows``), so the rows of every
path keep that layout. The public single-state functions run the same
kernels on complex rows.

``_adjoint_gradient`` differentiates a summed energy exactly by reverse
mode: given the ``_forward_pass`` that scored the energy, it runs a
backward sweep of the states and their adjoints through every block
(Jones & Gacon, arXiv:2009.02823). All
gates are orthogonal, so each is undone by its transpose instead of being
stored: the Ry tiles that the forward pass kept are applied transposed.
The readout is an exact expectation, so it has an exact derivative.
Besides the cached (n, 2**n) index and sign tables and the tiles, memory
is a fixed number of (batch, 2**n) arrays, however many angles the
network has.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# _h_rows and _ry_rows are not called here: the encoding is built in
# closed form and the Ry layers run as tiles. They are imported so that
# all gate kernels stay reachable through this module, where
# perfbench/layers.py hooks them by name.
from .statevector import (  # noqa: F401
    MAX_QUBITS,
    _INV_SQRT2,
    StateVector,
    _angle_factors,
    _cnot_permutation,
    _cnot_rows,
    _expect_z_rows,
    _h_rows,
    _product_rows,
    _ry_rows,
    _ry_tiles,
    _tile_rows,
    _z_signs,
)

# Largest array, in amplitudes, that ``_y_overlaps`` gathers at once; above
# it the qubits of a layer are gathered a few at a time, so the backward
# sweep's memory stays a fixed number of (batch, 2**n) arrays.
_FLIP_GATHER_AMPLITUDES = 1 << 16


class Variant(enum.Enum):
    """Network topology selector."""

    WITH_MEASUREMENTS = "with_measurements"
    WITHOUT_MEASUREMENTS = "without_measurements"


@dataclass(frozen=True)
class EncodingSpec:
    """Input-loading block: on each qubit, H then Ry(scale * input value).

    scale = 1 loads raw inputs; scale = pi maps readout values from
    [-1, 1] onto [-pi, pi].
    """

    scale: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.scale) or self.scale == 0.0:
            raise ValueError(f"scale must be finite and nonzero, got {self.scale}")


@dataclass(frozen=True)
class PqcSpec:
    """Trainable block: n_layers repetitions of (CNOT ladder, Ry per qubit).

    The block owns the contiguous parameter window
    ``[param_offset, param_offset + n_qubits * n_layers)``.
    """

    n_qubits: int
    n_layers: int
    param_offset: int

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if self.n_layers < 1:
            raise ValueError("n_layers must be positive")
        if self.param_offset < 0:
            raise ValueError("param_offset must be non-negative")

    @property
    def n_params(self) -> int:
        return self.n_qubits * self.n_layers


@dataclass(frozen=True)
class MeasureSpec:
    """Readout block: per-qubit <sigma_z>, feeding the next encoding."""


Block = EncodingSpec | PqcSpec | MeasureSpec


@dataclass(frozen=True)
class NetworkSpec:
    """Complete network: qubit count plus variant; blocks are derived."""

    n_qubits: int
    variant: Variant

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant, got {self.variant!r}")

    @property
    def n_params(self) -> int:
        """Both variants consume exactly 2 n^2 angles."""
        return 2 * self.n_qubits * self.n_qubits

    def blocks(self) -> tuple[Block, ...]:
        """The block sequence, built once per spec (cached)."""
        return _blocks(self)


@lru_cache(maxsize=2 * MAX_QUBITS)
def _blocks(net: NetworkSpec) -> tuple[Block, ...]:
    n = net.n_qubits
    if net.variant is Variant.WITH_MEASUREMENTS:
        return (
            EncodingSpec(1.0),
            PqcSpec(n, n, 0),
            MeasureSpec(),
            EncodingSpec(math.pi),
            PqcSpec(n, n, n * n),
        )
    return (EncodingSpec(1.0), PqcSpec(n, 2 * n, 0))


def entangler_pattern(n_qubits: int) -> list[tuple[int, int]]:
    """(control, target) CNOT pairs for one layer.

    Even-start nearest-neighbour pairs (0,1), (2,3), ... first, then the
    odd-start pairs (1,2), (3,4), ...; which chain reaches the last qubit
    depends on the parity of n. Empty for a single qubit.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    pairs = [(c, c + 1) for c in range(0, n_qubits - 1, 2)]
    pairs += [(c, c + 1) for c in range(1, n_qubits - 1, 2)]
    return pairs


# ---------------------------------------------------------------------------
# batched kernels: rows is a (batch, 2**n) amplitude array
# ---------------------------------------------------------------------------


def _encoded_rows(angles: np.ndarray) -> np.ndarray:
    """H then Ry(angles[b, q]) on each qubit q of |0...0>, one row per b.

    Built in closed form as a product state: H|0> = (|0> + |1>)/sqrt(2), so
    qubit q ends in ((c - s)|0> + (c + s)|1>)/sqrt(2), with c and s the
    cosine and sine of half its angle.
    """
    c, s = _angle_factors(angles)
    return _product_rows(np.stack([c - s, c + s], axis=-1) * _INV_SQRT2)


@lru_cache(maxsize=MAX_QUBITS)
def _ladder_permutation(n_qubits: int) -> np.ndarray:
    """Gather indices of one CNOT ladder (read-only, cached)."""
    perm = _cnot_permutation(n_qubits, entangler_pattern(n_qubits))
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=MAX_QUBITS)
def _ladder_inverse(n_qubits: int) -> np.ndarray:
    """Gather indices that undo one CNOT ladder (read-only, cached)."""
    inverse = np.argsort(_ladder_permutation(n_qubits))
    inverse.setflags(write=False)
    return inverse


@lru_cache(maxsize=MAX_QUBITS)
def _bit_flips(n_qubits: int) -> np.ndarray:
    """(n, 2**n) gather indices: row q flips bit q of every index
    (read-only, cached)."""
    index = np.arange(1 << n_qubits)
    flips = index ^ (1 << (n_qubits - 1 - np.arange(n_qubits)))[:, None]
    flips.setflags(write=False)
    return flips


def _pqc_block(rows: np.ndarray, spec: PqcSpec, tiles) -> np.ndarray:
    """Run one trainable block and return the new, Fortran-ordered rows;
    like every kernel, it leaves ``rows`` itself unchanged.

    ``tiles`` are the ``_ry_tiles`` of the block's own angles, layer
    first: ``tiles[t][j]`` is tile t of layer j. Each layer is its CNOT
    ladder, one gather, then its n Ry's as those tiles, one matmul each.
    """
    perm = _ladder_permutation(spec.n_qubits)
    for j in range(spec.n_layers):
        rows = _cnot_rows(rows, perm)
        rows = _tile_rows(rows, [tile[j] for tile in tiles])
    return rows


def _block_tiles(tiles, spec: PqcSpec):
    """The layers of ``spec`` out of the tiles of a whole parameter
    vector, whose blocks start on layer boundaries."""
    first = spec.param_offset // spec.n_qubits
    return [tile[first : first + spec.n_layers] for tile in tiles]


def _y_overlaps(stacked: np.ndarray, n_qubits: int) -> np.ndarray:
    """(batch, n) array of adjoint[b] . (-iY)_q state[b] for every qubit q,
    where ``stacked`` holds the batch of states on top of their adjoints.

    Ry(t) = exp(t/2 (-iY)), so half of this is the derivative of the
    energy by an Ry angle on qubit q that acted last on the state.
    ((-iY)_q v)[i] = -z_q(i) v[i ^ bit q], with z_q the sigma_z signs.
    """
    half = stacked.shape[0] // 2
    states, adjoints = stacked[:half], stacked[half:]
    flips = _bit_flips(n_qubits)
    signs = _z_signs(n_qubits)
    out = np.empty((half, n_qubits))
    step = max(1, _FLIP_GATHER_AMPLITUDES // states.size)
    for q in range(0, n_qubits, step):
        window = slice(q, q + step)
        out[:, window] = np.einsum(
            "bi,bqi,iq->bq", adjoints, states[:, flips[window]], signs[:, window]
        )
    return -out


def _pqc_block_adjoint(stacked: np.ndarray, spec: PqcSpec, tiles, grad) -> np.ndarray:
    """Undo one trainable block on ``stacked`` (states on top of their
    adjoints) and return the rows at its input; writes the derivative by
    each of the block's angles into ``grad``, summed over the batch.

    ``tiles`` are the block's shared tiles, as for ``_pqc_block``. The
    Ry's of one layer act on distinct qubits and commute, so all their
    derivatives are read at the end of the layer, before any is undone.
    The transposed tiles and the inverse permutation undo the layer:
    every tile is a product of rotations and so orthogonal, and every
    gate acts on adjoints as on states.
    """
    n = spec.n_qubits
    inverse = _ladder_inverse(n)
    transposed = [np.swapaxes(tile, -1, -2) for tile in tiles]
    for j in reversed(range(spec.n_layers)):
        window = slice(n * j, n * (j + 1))
        grad[window] = 0.5 * _y_overlaps(stacked, n).sum(axis=0)
        stacked = _tile_rows(stacked, [tile[j] for tile in transposed])
        stacked = _cnot_rows(stacked, inverse)
    return stacked


class _ForwardPass(NamedTuple):
    """What one forward pass on a shared parameter vector leaves for the
    backward sweep, all read-only: the ``_ry_tiles`` of the whole vector,
    built once and undone by their transposes, the final rows and the
    rows each readout block measured."""

    tiles: tuple[np.ndarray, ...]
    rows: np.ndarray
    measured: tuple[np.ndarray, ...]


def _run_blocks(net: NetworkSpec, inputs: np.ndarray, tiles):
    """Run every block on one row per input; returns the final rows and
    the list of rows each readout block measured.

    ``tiles`` are the ``_ry_tiles`` of the whole parameter vector, shared
    or one vector per row. Every encoding block starts from a fresh
    register, so the readout block only has to capture its values; the
    collapsed state is dropped.
    """
    n = net.n_qubits
    values = np.repeat(np.asarray(inputs, dtype=np.float64)[:, None], n, axis=1)
    rows = None
    measured = []
    for block in net.blocks():
        if isinstance(block, EncodingSpec):
            rows = _encoded_rows(block.scale * values)
        elif isinstance(block, PqcSpec):
            rows = _pqc_block(rows, block, _block_tiles(tiles, block))
        else:
            measured.append(rows)
            values = _expect_z_rows(rows, n)
    return rows, measured


def _forward_rows(net: NetworkSpec, inputs: np.ndarray, params: np.ndarray) -> np.ndarray:
    """One forward pass per row: row b encodes the bond length inputs[b]
    and runs on the angles ``params``, one vector shared by every row, or
    params[b] when ``params`` is 2-D. Returns the final float64 amplitude
    rows, shape (batch, 2**n).

    Every gate is real, so the rows stay real. The angles are validated
    and turned into Ry tiles once, here: (2**k, 2**k) tiles for a shared
    vector, (batch, 1, 2**k, 2**k) tiles for one vector per row.
    """
    c, s = _angle_factors(params)
    return _run_blocks(net, inputs, _ry_tiles(c, s, net.n_qubits))[0]


def _forward_pass(net: NetworkSpec, inputs: np.ndarray, params: np.ndarray) -> _ForwardPass:
    """One forward pass per input on the one parameter vector ``params``,
    kept whole for ``_adjoint_gradient``; ``rows`` are the rows that
    ``_forward_rows`` returns for the same arguments."""
    tiles = _ry_tiles(*_angle_factors(params), net.n_qubits)
    rows, measured = _run_blocks(net, inputs, tiles)
    for array in (rows, *measured):
        array.setflags(write=False)
    return _ForwardPass(tiles, rows, tuple(measured))


def _adjoint_gradient(net: NetworkSpec, forward: _ForwardPass, seed: np.ndarray) -> np.ndarray:
    """Exact gradient by the parameters of E = sum_b e_b(rows[b]), where
    ``forward`` is the ``_forward_pass`` of those parameters on the
    inputs, which this function takes rather than runs, so that a caller
    that already scored the rows reuses them; ``seed`` is the
    (batch, 2**n) array of de_b/drows[b] that starts the backward sweep.

    The sweep walks the blocks backwards with the states stacked on top of
    their adjoints, so each gate undoes both with one kernel call:

    * a trainable block yields its angle derivatives (``_pqc_block_adjoint``);
    * a re-encoding Ry(scale * v_q) yields dE/dv_q = scale/2 *
      adjoint . (-iY)_q state, per row;
    * a readout v_q = <psi|Z_q|psi> turns those into the adjoint
      2 psi * sum_q dE/dv_q z_q of the measured rows psi, which the
      forward pass kept, and the sweep continues from psi.

    The first block loads the inputs, which are not trained, so the sweep
    stops there. ``forward`` and ``seed`` are only read.
    """
    n = net.n_qubits
    tiles, rows, measured = forward
    measured = list(measured)
    stacked = np.concatenate([rows, seed])
    grad = np.empty(net.n_params)
    for block in reversed(net.blocks()[1:]):
        if isinstance(block, PqcSpec):
            window = slice(block.param_offset, block.param_offset + block.n_params)
            stacked = _pqc_block_adjoint(
                stacked, block, _block_tiles(tiles, block), grad[window]
            )
        elif isinstance(block, EncodingSpec):
            value_grad = 0.5 * block.scale * _y_overlaps(stacked, n)
        else:
            psi = measured.pop()
            adjoint = 2.0 * psi * (value_grad @ _z_signs(n).T)
            stacked = np.concatenate([psi, adjoint])
    return grad


# ---------------------------------------------------------------------------
# public single-instance API
# ---------------------------------------------------------------------------


def apply_encoding(spec: EncodingSpec, inputs) -> StateVector:
    """Encode a vector of values, one per qubit, from the zero state.

    The register size is the length of ``inputs``.
    """
    vals = np.asarray(inputs, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("inputs must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(vals)):
        raise ValueError("inputs must be finite")
    rows = _encoded_rows(spec.scale * vals[None, :])
    return StateVector(int(vals.size), rows[0])


def apply_pqc(psi: StateVector, spec: PqcSpec, params) -> StateVector:
    """Run one trainable block on psi, reading the block's parameter window."""
    if spec.n_qubits != psi.n_qubits:
        raise ValueError(
            f"block is for {spec.n_qubits} qubits, state has {psi.n_qubits}"
        )
    vec = np.asarray(params, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError("params must be a 1-D sequence")
    end = spec.param_offset + spec.n_params
    if vec.size < end:
        raise ValueError(
            f"parameter vector of length {vec.size} too short: "
            f"block reads indices [{spec.param_offset}, {end})"
        )
    c, s = _angle_factors(vec[spec.param_offset : end])
    tiles = _ry_tiles(c, s, spec.n_qubits)
    rows = _pqc_block(psi.amplitudes.reshape(1, -1), spec, tiles)
    return StateVector(psi.n_qubits, rows[0])


def measure_layer(psi: StateVector) -> np.ndarray:
    """Per-qubit <sigma_z>, exact from the amplitudes (no sampling)."""
    return _expect_z_rows(psi.amplitudes.reshape(1, -1), psi.n_qubits)[0]


def forward(net: NetworkSpec, bond_length: float, params) -> StateVector:
    """Run the network on one input; returns the final normalized state."""
    if not math.isfinite(bond_length):
        raise ValueError(f"bond_length must be finite, got {bond_length}")
    vec = np.asarray(params, dtype=np.float64)
    if vec.ndim != 1 or vec.size != net.n_params:
        raise ValueError(
            f"expected {net.n_params} parameters for n_qubits={net.n_qubits}, "
            f"got {vec.ndim}-D input of size {vec.size}"
        )
    rows = _forward_rows(net, np.array([float(bond_length)]), vec)
    return StateVector(net.n_qubits, rows[0])
