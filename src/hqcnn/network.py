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
``_run_blocks``, by way of ``_forward_pass`` (kept for the adjoint sweep)
or ``_forward_rows``. Every array of a pass is a C-ordered (2**n, points)
array of float64 amplitude-major columns, one per input (H, Ry and CNOT
are real gates): the encodings, built in closed form as product states;
each CNOT ladder, one gather through a cached permutation; each layer's
n Ry's, a few Kronecker tiles of up to four qubits, each one BLAS product
across all columns; and the readout of all qubits, one BLAS product. The
columns of the first encoding depend on the inputs only, so a caller
that runs many passes on the same inputs builds them once
(``_input_rows``) and passes them in. The tiles of a parameter vector
are built once per pass (``statevector._ry_tiles``). The public
single-state functions run the same kernels on one complex column.

``_adjoint_gradient`` differentiates a summed energy exactly by reverse
mode: given the ``_forward_pass`` that scored the energy, it runs a
backward sweep of the states and their adjoints through every block
(Jones & Gacon, arXiv:2009.02823), stacked as one C-ordered
(2, 2**n, points) pair of columns. All gates are orthogonal, so each is
undone by its transpose instead of being stored: the Ry tiles that the
forward pass kept are applied transposed, one BLAS product per tile, and
the CNOT ladder by one gather along the amplitude axis. The Ry
derivatives are read on the same tiles, from each tile's Gram matrix of
adjoint and state (``_y_overlaps``): for a trainable layer one product
per tile, summed over the points, and per column for the re-encoding;
a cached sign table turns each into the derivatives by the tile's angles.
The readout is an exact expectation, so it has an exact derivative.
Besides the tiles, the cached (2**n, n) sign table of the readout and the
O(k 4**k) sign tables of the tile sizes k, memory is a fixed number of
(2**n, points) arrays, however many angles the network has.
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
    _TILE_QUBITS,
    StateVector,
    _angle_factors,
    _cnot_permutation,
    _cnot_rows,
    _expect_z_rows,
    _h_rows,
    _half_angles,
    _product_rows,
    _ry_rows,
    _ry_tiles,
    _tile_rows,
    _z_signs,
)


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
# batched kernels: cols is a C-ordered (2**n, points) amplitude array
# ---------------------------------------------------------------------------


_ENCODING_PHASES = np.array([[math.pi / 4], [-math.pi / 4]])


def _encoded_rows(angles: np.ndarray) -> np.ndarray:
    """H then Ry(angles[b, q]) on each qubit q of |0...0>, one column per b.

    Built in closed form as a product state: H|0> = (|0> + |1>)/sqrt(2), so
    qubit q ends in ((c - s)|0> + (c + s)|1>)/sqrt(2), with c and s the
    cosine and sine of half its angle t, that is in
    cos(t + pi/4)|0> + cos(t - pi/4)|1>.
    """
    half = _half_angles(angles.T)
    return _product_rows(np.cos(half[:, None, :] + _ENCODING_PHASES))


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


def _pqc_block(cols: np.ndarray, spec: PqcSpec, tiles) -> np.ndarray:
    """Run one trainable block and return the new columns; like every
    kernel, it leaves ``cols`` itself unchanged.

    ``tiles`` are the ``_ry_tiles`` of the block's own angles: ``tiles[j]``
    are the tiles of layer j. Each layer is its CNOT ladder, one gather,
    then its n Ry's as those tiles, one matmul each.
    """
    perm = _ladder_permutation(spec.n_qubits)
    for layer in tiles:
        cols = _cnot_rows(cols, perm)
        cols = _tile_rows(cols, layer)
    return cols


def _block_tiles(tiles, spec: PqcSpec):
    """The layers of ``spec`` out of the tiles of a whole parameter
    vector, whose blocks start on layer boundaries."""
    first = spec.param_offset // spec.n_qubits
    return tiles[first : first + spec.n_layers]


@lru_cache(maxsize=_TILE_QUBITS)
def _tile_y_signs(k: int) -> np.ndarray:
    """(4**k, k) table that turns the flattened Gram matrix
    G[I, J] = adjoint[I] . state[J] of a k-qubit tile into half its k
    overlaps adjoint . (-iY)_m state, exactly, as 1/2 is a power of two:
    entry (I * 2**k + J, m) is -z_m(I) / 2 where J is I with bit m
    flipped, bit 0 the most significant, and 0 elsewhere (read-only, cached)."""
    index = np.arange(1 << k)[:, None]
    flipped = index ^ (1 << (k - 1 - np.arange(k)))
    table = np.zeros((1 << k, 1 << k, k))
    table[index, flipped, np.arange(k)] = -0.5 * _z_signs(k)
    table = table.reshape(-1, k)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# backward sweep: ``pair`` is a C-ordered (2, 2**n, points) array of
# amplitude-major columns, the states in pair[0] and their adjoints in pair[1]
# ---------------------------------------------------------------------------


def _y_overlaps(pair: np.ndarray, n_qubits: int, per_row: bool, out=None) -> np.ndarray:
    """Half of adjoint . (-iY)_q state for every qubit q, summed over the
    columns of ``pair`` into an (n,) array, or (points, n), one row per
    column, when ``per_row``; written into ``out`` when given.

    Ry(t) = exp(t/2 (-iY)), so this is the derivative of the energy by an
    Ry angle on qubit q that acted last on the state.
    ((-iY)_q v)[i] = -z_q(i) v[i ^ bit q], with z_q the sigma_z signs, so
    the overlaps of the qubits of one Ry tile are fixed sums over the
    tile's (2**k, 2**k) Gram matrix of adjoint and state, summed over every
    bit outside the tile: one product with ``_tile_y_signs``. Summed, the
    points are one more axis outside the tile, so the leading tile's Gram
    matrix is one 2-D ``adjoint @ state.T`` on the (2, 2**k, rest) view;
    any other takes one matmul on a copy with the tile's bits in front.
    """
    rows = pair.shape[-1] if per_row else 1
    out = np.empty((rows, n_qubits) if per_row else n_qubits) if out is None else out
    start = 0 if per_row else min(_TILE_QUBITS, n_qubits)
    if start:
        tile = pair.reshape(2, 1 << start, -1)
        np.matmul((tile[1] @ tile[0].T).reshape(-1), _tile_y_signs(start), out=out[:start])
    for q0 in range(start, n_qubits, _TILE_QUBITS):
        k = min(_TILE_QUBITS, n_qubits - q0)
        tile = pair.reshape(2, 1 << q0, 1 << k, -1, rows).transpose(0, 4, 2, 1, 3)
        tile = tile.reshape(2, rows, 1 << k, -1)
        gram = np.matmul(tile[1], tile[0].swapaxes(1, 2)).reshape(rows, -1)
        np.matmul(gram if per_row else gram[0], _tile_y_signs(k), out=out[..., q0 : q0 + k])
    return out


def _undo_tiles(pair: np.ndarray, tiles) -> np.ndarray:
    """Undo one layer's Ry tiles, as ``_ry_tiles`` builds them, on the
    states and adjoints of ``pair``: each tile's transpose is one BLAS
    product across both (``_tile_rows``), at n <= 4 on the pair itself.
    Returns a fresh pair."""
    return _tile_rows(pair, [tile.T for tile in tiles])


def _pqc_block_adjoint(pair: np.ndarray, spec: PqcSpec, tiles, grad, first: bool):
    """Undo one trainable block on ``pair`` and return the pair at its
    input; writes the derivative by each of the block's angles into
    ``grad``, summed over the points. The ``first`` block ends the sweep:
    its first layer's derivatives are read, it is not undone, and None
    is returned.

    ``tiles`` are the block's tiles, as for ``_pqc_block``. The Ry's of
    one layer act on distinct qubits and commute, so all their
    derivatives are read at the end of the layer, before any is undone,
    tile by tile on the split the tiles use (``_y_overlaps``), summed
    over the points and written into ``grad``. The transposed tiles
    (``_undo_tiles``) and the inverse ladder permutation, one gather along
    the amplitude axis, undo the layer: every tile is a product of
    rotations and so orthogonal, and every gate acts on adjoints as on states.
    """
    n = spec.n_qubits
    inverse = _ladder_inverse(n)
    for j in reversed(range(spec.n_layers)):
        _y_overlaps(pair, n, per_row=False, out=grad[n * j : n * (j + 1)])
        if first and j == 0:
            return None
        pair = _undo_tiles(pair, tiles[j])
        pair = _cnot_rows(pair, inverse)
    return pair


class _ForwardPass(NamedTuple):
    """What one forward pass on a parameter vector leaves for the backward
    sweep, all read-only: the ``_ry_tiles`` of the whole vector, built
    once and undone by their transposes, the final columns and the columns
    each readout block measured."""

    tiles: tuple[tuple[np.ndarray, ...], ...]
    cols: np.ndarray
    measured: tuple[np.ndarray, ...]


def _input_rows(net: NetworkSpec, inputs) -> np.ndarray:
    """The columns of the network's first block, which loads input b on
    every qubit of column b."""
    values = np.repeat(np.asarray(inputs, dtype=np.float64)[:, None], net.n_qubits, axis=1)
    return _encoded_rows(net.blocks()[0].scale * values)


def _run_blocks(net: NetworkSpec, cols: np.ndarray, tiles):
    """Run every block after the first on ``cols``, the columns of the
    first, which are the ``_input_rows`` of the inputs; returns the final
    columns and the list of columns each readout block measured.

    ``tiles`` are the ``_ry_tiles`` of the whole parameter vector. Every
    later encoding block starts from a fresh register, so the readout
    block only has to capture its values; the collapsed state is dropped.
    """
    n = net.n_qubits
    measured = []
    for block in net.blocks()[1:]:
        if isinstance(block, EncodingSpec):
            cols = _encoded_rows(block.scale * values)
        elif isinstance(block, PqcSpec):
            cols = _pqc_block(cols, block, _block_tiles(tiles, block))
        else:
            measured.append(cols)
            values = _expect_z_rows(cols, n)
    return cols, measured


def _forward_rows(net: NetworkSpec, inputs: np.ndarray, params: np.ndarray) -> np.ndarray:
    """One forward pass per input on the 1-D parameter vector ``params``:
    column b encodes the bond length inputs[b]. Returns the final float64
    amplitude columns, C-ordered, shape (2**n, points).

    Every gate is real, so the columns stay real. The angles are validated
    and turned into Ry tiles once, here.
    """
    c, s = _angle_factors(params)
    return _run_blocks(net, _input_rows(net, inputs), _ry_tiles(c, s, net.n_qubits))[0]


def _forward_pass(net: NetworkSpec, encoded: np.ndarray, params: np.ndarray) -> _ForwardPass:
    """One forward pass per input on the parameter vector ``params``, from
    the ``_input_rows`` of the inputs, which the caller keeps, and kept
    whole for ``_adjoint_gradient``; ``cols`` are the columns that
    ``_forward_rows`` returns on the same inputs and parameters."""
    tiles = _ry_tiles(*_angle_factors(params), net.n_qubits)
    cols, measured = _run_blocks(net, encoded, tiles)
    for array in (cols, *measured):
        array.setflags(write=False)
    return _ForwardPass(tiles, cols, tuple(measured))


def _adjoint_gradient(net: NetworkSpec, forward: _ForwardPass, seed: np.ndarray) -> np.ndarray:
    """Exact gradient by the parameters of E = sum_b e_b(cols[:, b]), where
    ``forward`` is the ``_forward_pass`` of those parameters on the
    inputs, which this function takes rather than runs, so that a caller
    that already scored the columns reuses them; ``seed`` is the
    (2**n, points) array of de_b/dcols[:, b] that starts the backward sweep.

    The sweep walks the blocks backwards on one stacked pair of the
    states and their adjoints, so each gate undoes both with one kernel
    call:

    * a trainable block yields its angle derivatives (``_pqc_block_adjoint``);
    * a re-encoding Ry(scale * v_q) yields dE/dv_q = scale/2 *
      adjoint . (-iY)_q state, per column;
    * a readout v_q = <psi|Z_q|psi> turns those into the adjoint
      2 psi * sum_q dE/dv_q z_q of the measured columns psi, which the
      forward pass kept, and the sweep continues from psi.

    The first block loads the inputs, which are not trained, so the sweep
    ends at the first trainable layer. ``forward`` and ``seed`` are only
    read.
    """
    n = net.n_qubits
    tiles, cols, measured = forward
    measured = list(measured)
    pair = np.array([cols, seed])
    grad = np.empty(net.n_params)
    blocks = net.blocks()
    for block in reversed(blocks[1:]):
        if isinstance(block, PqcSpec):
            window = grad[block.param_offset : block.param_offset + block.n_params]
            first = block is blocks[1]
            pair = _pqc_block_adjoint(pair, block, _block_tiles(tiles, block), window, first)
        elif isinstance(block, EncodingSpec):
            value_grad = block.scale * _y_overlaps(pair, n, per_row=True)
        else:
            psi = measured.pop()
            pair = np.array([psi, 2.0 * psi * (_z_signs(n) @ value_grad.T)])
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
    cols = _encoded_rows(spec.scale * vals[None, :])
    return StateVector(int(vals.size), cols[:, 0])


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
    tiles = _ry_tiles(*_angle_factors(vec[spec.param_offset : end]), spec.n_qubits)
    cols = _pqc_block(psi.amplitudes[:, None], spec, tiles)
    return StateVector(psi.n_qubits, cols[:, 0])


def measure_layer(psi: StateVector) -> np.ndarray:
    """Per-qubit <sigma_z>, exact from the amplitudes (no sampling)."""
    return _expect_z_rows(psi.amplitudes[:, None], psi.n_qubits)[0]


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
    cols = _forward_rows(net, np.array([float(bond_length)]), vec)
    return StateVector(net.n_qubits, cols[:, 0])
