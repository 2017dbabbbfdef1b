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
(``Variant.WITHOUT_MEASUREMENTS``) drops only steps 3/4. So both variants
are 2n trainable layers that consume exactly 2 n^2 rotation angles, two
halves of n joined by a link between layers n-1 and n: the readout and
its re-encoding in the full model, the identity in the ablation.

Parameter vectors are plain 1-D float arrays (radians); layer j reads
angles ``params[i + n*j]`` for qubit i. ``NetworkSpec.blocks()``
describes the same network as blocks; no pass reads them.

All public functions are pure. ``forward`` runs one input through
``_forward_rows``; training and its central differences run through
``_forward_pass``, whose pass the gradient reads. Every array of a pass
is a C-ordered (2**n, points) array of float64 amplitude-major columns,
one per input (H, Ry and CNOT are real gates): the encodings, built in
closed form as product states; the output of each half, and in the
measured variant the readout of all qubits, one BLAS product; and the
final columns. A caller that runs many passes on the same inputs builds
the first encoding once (``_input_rows``) and passes it in.

``_forward_pass`` is the one place that picks the form of the layers,
split at ``_TILE_QUBITS``, the largest register that one Ry tile spans;
dense layers would need 4**n memory, so the form that scales stays
above it. ``_run_layers`` runs either form: lower half, link, upper
half. ``_adjoint_gradient`` differentiates a summed energy exactly by
reverse mode (Jones & Gacon, arXiv:2009.02823) on the same form; the
readout is an exact expectation, so it has an exact derivative.

* From n = 5 on, a layer is its CNOT ladder, one gather through a cached
  permutation, then its n Ry's as a few Kronecker tiles of up to four
  qubits (``statevector._ry_tiles``), each one BLAS product across all
  columns. ``_adjoint_sweep`` undoes the layers from the last, on the
  states and their adjoints stacked as one pair: every gate is
  orthogonal, so each is undone by its transpose instead of being
  stored. It reads each layer's derivatives on its tiles. Besides the
  tiles and cached sign tables, memory is a fixed number of
  (2**n, points) arrays, however many angles the network has.
* Up to n = 4, a layer is one dense orthogonal matrix, its Ry tile after
  its CNOT ladder (``_layer_entries``), and a pass keeps the prefix
  products of each half in one (2, n, 2**n, 2**n) stack
  (``_prefix_products``), 16 KB at n = 4. ``_dense_gradient`` reads the
  derivatives of all 2n layers from it with a few stacked products and
  no loop over the layers. This form also takes a (G, k) stack of
  parameter vectors, which gives every array of the pass a leading group
  axis, so that lockstep training scores G vectors in one pass; a
  vector's values are bitwise the same alone or in a group.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .statevector import (
    MAX_QUBITS,
    _TILE_QUBITS,
    StateVector,
    _angle_factors,
    _cnot_permutation,
    _cnot_rows,
    _expect_z_rows,
    _gather_tiles,
    _half_angles,
    _product_rows,
    _ry_factors,
    _ry_tiles,
    _tile_entries,
    _tile_rows,
    _z_signs,
)

# Not called here: the encoding is built in closed form and the Ry layers
# run as tiles. Imported so that perfbench/layers.py can hook every gate
# kernel by name in this module.
from .statevector import _h_rows, _ry_rows  # noqa: F401


# The re-encoding's scale, which maps readout values from [-1, 1] onto
# [-pi, pi]; the inputs are loaded at scale 1.
_READOUT_SCALE = math.pi


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
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
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
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant, got {self.variant!r}")

    @property
    def n_params(self) -> int:
        """Both variants consume exactly 2 n^2 angles."""
        return 2 * self.n_qubits * self.n_qubits

    def blocks(self) -> tuple[Block, ...]:
        """The network as a block sequence, a description only."""
        n = self.n_qubits
        if self.variant is Variant.WITH_MEASUREMENTS:
            return (
                EncodingSpec(1.0),
                PqcSpec(n, n, 0),
                MeasureSpec(),
                EncodingSpec(_READOUT_SCALE),
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
    """H then Ry(angles[..., b, q]) on each qubit q of |0...0>, one column
    per b, for each leading index.

    Built in closed form as a product state: H|0> = (|0> + |1>)/sqrt(2), so
    qubit q ends in ((c - s)|0> + (c + s)|1>)/sqrt(2), with c and s the
    cosine and sine of half its angle t, that is in
    cos(t + pi/4)|0> + cos(t - pi/4)|1>.
    """
    half = _half_angles(angles.mT)
    return _product_rows(np.cos(half[..., :, None, :] + _ENCODING_PHASES))


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


@lru_cache(maxsize=_TILE_QUBITS)
def _layer_entries(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``_tile_entries`` of the one tile that spans n <= _TILE_QUBITS
    qubits, with the CNOT ladder folded into its entry sequence: the ladder
    P maps cols to cols[perm], so column b of T P is column inverse[b] of
    the tile T (read-only, cached)."""
    ((index, sequence),) = _tile_entries(n_qubits)
    size = 1 << n_qubits
    folded = sequence.reshape(size, size)[:, _ladder_inverse(n_qubits)].reshape(-1)
    folded.setflags(write=False)
    return index, folded


def _prefix_products(c: np.ndarray, s: np.ndarray, n_qubits: int) -> np.ndarray:
    """The fresh (..., 2, n, 2**n, 2**n) prefix products of the two halves
    of the 2n layers whose angle factors are ``c, s``, of shape (..., 2n**2),
    one parameter vector per leading index, at n <= _TILE_QUBITS: entry
    [..., h, i] is L_(hn+i) ... L_(hn), where layer L_j = T_j P is its Ry
    tile after the CNOT ladder, a dense orthogonal matrix built by one
    gather (``_layer_entries``). Both halves of every vector advance
    together, one stacked matmul per layer."""
    index, sequence = _layer_entries(n_qubits)
    layers = _gather_tiles(_ry_factors(c, s, n_qubits), index, sequence)
    prefix = layers.reshape(*c.shape[:-1], 2, n_qubits, 1 << n_qubits, 1 << n_qubits)
    for i in range(1, n_qubits):
        np.matmul(prefix[..., i, :, :], prefix[..., i - 1, :, :], out=prefix[..., i, :, :])
    return prefix


def _pqc_block(cols: np.ndarray, n_qubits: int, tiles) -> np.ndarray:
    """Run the layers whose ``_ry_tiles`` are ``tiles`` on ``cols`` and
    return the new columns; like every kernel, it leaves ``cols`` itself
    unchanged. Each layer is its CNOT ladder, one gather, then its n Ry's
    as its tiles, one matmul each."""
    perm = _ladder_permutation(n_qubits)
    for layer in tiles:
        cols = _cnot_rows(cols, perm)
        cols = _tile_rows(cols, layer)
    return cols


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
    product across both (``_tile_rows``). Returns a fresh pair."""
    return _tile_rows(pair, [tile.T for tile in tiles])


class _ForwardPass(NamedTuple):
    """What one forward pass on a parameter vector, or on a (G, k) stack
    of them at n <= _TILE_QUBITS, leaves for the gradient, all read-only:
    ``layers``, the (..., 2, n, 2**n, 2**n) ``_prefix_products`` at n <=
    _TILE_QUBITS, else the vector's ``_ry_tiles``; the (2**n, points)
    encoded inputs, shared by the stack; and the (..., 2**n, points)
    columns: the lower half's output, ``measured``; the link's output,
    ``second``, which is ``measured`` itself in the ablation; and the
    final columns."""

    layers: np.ndarray | tuple[tuple[np.ndarray, ...], ...]
    encoded: np.ndarray
    measured: np.ndarray
    second: np.ndarray
    cols: np.ndarray


def _input_rows(net: NetworkSpec, inputs) -> np.ndarray:
    """The columns of the network's first encoding, which loads input b on
    every qubit of column b."""
    values = np.repeat(np.asarray(inputs, dtype=np.float64)[:, None], net.n_qubits, axis=1)
    return _encoded_rows(values)


def _reencoded(measured: np.ndarray, n_qubits: int) -> np.ndarray:
    """Read out every qubit's <Z> of ``measured`` and re-encode those
    values at ``_READOUT_SCALE`` on a fresh register; the collapsed state
    is dropped."""
    return _encoded_rows(_READOUT_SCALE * _expect_z_rows(measured, n_qubits))


def _run_layers(net: NetworkSpec, encoded: np.ndarray, layers) -> _ForwardPass:
    """Run the 2n trainable layers on ``encoded``, the ``_input_rows`` of
    the inputs, as two halves of n joined by a link: the lower half gives
    ``measured``; the link is the readout and its re-encoding
    (``_reencoded``) in the measured variant, the identity in the
    ablation; the upper half runs on its output. A half is one matmul
    with its last product on a ``_prefix_products`` stack, or
    ``_pqc_block`` on its n entries of the ``_ry_tiles``."""
    n = net.n_qubits

    def half(h: int, cols: np.ndarray) -> np.ndarray:
        if isinstance(layers, np.ndarray):
            return layers[..., h, -1, :, :] @ cols
        return _pqc_block(cols, n, layers[h * n : (h + 1) * n])

    measured = half(0, encoded)
    second = _reencoded(measured, n) if net.variant is Variant.WITH_MEASUREMENTS else measured
    return _ForwardPass(layers, encoded, measured, second, half(1, second))


def _forward_rows(net: NetworkSpec, inputs: np.ndarray, params: np.ndarray) -> np.ndarray:
    """One forward pass per input on the 1-D parameter vector ``params``:
    column b encodes the bond length inputs[b]. Returns the final float64
    amplitude columns, C-ordered and read-only, shape (2**n, points)."""
    return _forward_pass(net, _input_rows(net, inputs), params).cols


def _forward_pass(net: NetworkSpec, encoded: np.ndarray, params: np.ndarray) -> _ForwardPass:
    """One forward pass per input on the parameter vector ``params``, from
    the ``_input_rows`` of the inputs, kept whole for ``_adjoint_gradient``.
    The angles are validated and turned into layers once, here, the one
    place that picks their form: dense ``_prefix_products`` at n <=
    _TILE_QUBITS, where one Ry tile spans the register, else ``_ry_tiles``.
    Every gate is real, so the columns stay real.

    At n <= _TILE_QUBITS ``params`` may also be a (G, k) stack of vectors:
    every array of the pass then gains a leading group axis, and each of
    its products is one stacked BLAS call of the shape a vector alone
    makes, so every group's columns are bitwise those of its vector
    alone."""
    n = net.n_qubits
    c, s = _angle_factors(params)
    layers = _prefix_products(c, s, n) if n <= _TILE_QUBITS else _ry_tiles(c, s, n)
    forward = _run_layers(net, encoded, layers)
    for array in (forward.layers, forward.measured, forward.second, forward.cols):
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return forward


def _adjoint_gradient(net: NetworkSpec, forward: _ForwardPass, seed: np.ndarray) -> np.ndarray:
    """Exact gradient by the parameters of E = sum_b e_b(cols[:, b]), where
    ``forward`` is the ``_forward_pass`` of those parameters on the
    inputs, which this function takes rather than runs, so that a caller
    that already scored the columns reuses them; ``seed`` is the
    (2**n, points) array of de_b/dcols[:, b]. Both are only read. It
    routes by the form of ``forward.layers``: ``_dense_gradient`` on
    prefix products, ``_adjoint_sweep`` on tiles."""
    if isinstance(forward.layers, np.ndarray):
        return _dense_gradient(net, forward, seed)
    return _adjoint_sweep(net, forward, seed)


def _readout_adjoint(measured: np.ndarray, value_grad: np.ndarray, n_qubits: int) -> np.ndarray:
    """The adjoint of the measured columns psi from the (..., points, n)
    array of dE/dv_q, the derivatives by each column's readout values: the
    readout v_q = <psi|Z_q|psi> gives 2 psi * sum_q dE/dv_q z_q."""
    return 2.0 * measured * (_z_signs(n_qubits) @ value_grad.mT)


def _dense_gradient(net: NetworkSpec, forward: _ForwardPass, seed: np.ndarray) -> np.ndarray:
    """``_adjoint_gradient`` on prefix products, with no loop over the
    layers.

    Every layer is orthogonal, so with F_j the kept product that maps a
    half's input x to layer j's output and F the half's last one, the
    adjoint at layer j's output is F_j F^T a, for the half's final
    adjoint a: layer j's Gram matrix of adjoint and state, summed over the
    points as ``_y_overlaps`` reads it, is F_j (F^T a x^T) F_j^T. All 2n
    are two stacked products, and one product with ``_tile_y_signs(n)``
    turns them into the derivatives.

    The upper half has a = ``seed`` and x = ``second``, so F^T a is the
    adjoint of the link's output. The lower half has x the encoded inputs
    and a the link's adjoint: F^T a itself in the ablation; in the
    measured variant, the adjoint of the measured columns
    (``_readout_adjoint``), from the readout's derivatives, which the
    re-encoding's per-column outer products with F^T a give, as in the
    sweep.

    A pass on a (G, k) stack gives the (G, k) gradients, one per vector,
    each bitwise that of its vector alone.
    """
    n = net.n_qubits
    prefix, encoded, measured, second, _ = forward
    group = prefix.shape[:-4]
    upper = prefix[..., 1, -1, :, :].mT @ seed
    link = upper
    if net.variant is Variant.WITH_MEASUREMENTS:
        outer = upper[..., :, None, :] * second[..., None, :, :]
        outer = outer.reshape(*group, -1, second.shape[-1])
        value_grad = _READOUT_SCALE * (outer.mT @ _tile_y_signs(n))
        link = _readout_adjoint(measured, value_grad, n)
    core = np.empty(group + (2, 1) + prefix.shape[-2:])
    np.matmul(prefix[..., 0, -1, :, :].mT @ link, encoded.T, out=core[..., 0, 0, :, :])
    np.matmul(upper, second.mT, out=core[..., 1, 0, :, :])
    grams = prefix @ core @ prefix.mT
    return (grams.reshape(*group, 2 * n, -1) @ _tile_y_signs(n)).reshape(*group, -1)


def _adjoint_sweep(net: NetworkSpec, forward: _ForwardPass, seed: np.ndarray) -> np.ndarray:
    """``_adjoint_gradient`` on tiles, by one backward sweep over the 2n
    layers, j = 2n-1 .. 0, on one stacked pair of the states and their
    adjoints, so each gate undoes both with one kernel call.

    The Ry's of one layer act on distinct qubits and commute, so step j
    first reads all of layer j's angle derivatives, summed over the
    points, into ``grad[n*j : n*(j+1)]`` (``_y_overlaps``). Layer 0's
    input is the encoded inputs, which are not trained, so the sweep ends
    there. Any other layer is then undone: its transposed tiles
    (``_undo_tiles``), then the inverse ladder permutation, one gather
    along the amplitude axis; every tile is a product of rotations and so
    orthogonal, and every gate acts on adjoints as on states.

    In the measured variant, the link's output is the input of layer n,
    so once that layer is undone:

    * the re-encoding Ry(_READOUT_SCALE * v_q) yields dE/dv_q =
      _READOUT_SCALE/2 * adjoint . (-iY)_q state, per column;
    * the readout v_q = <psi|Z_q|psi> turns those into the adjoint of the
      measured columns psi (``_readout_adjoint``), which the forward pass
      kept, and the pair restarts from psi.
    """
    n = net.n_qubits
    tiles, _, measured, _, cols = forward
    inverse = _ladder_inverse(n)
    pair = np.array([cols, seed])
    grad = np.empty(net.n_params)
    for j in reversed(range(2 * n)):
        _y_overlaps(pair, n, per_row=False, out=grad[n * j : n * (j + 1)])
        if j == 0:
            break
        pair = _undo_tiles(pair, tiles[j])
        pair = _cnot_rows(pair, inverse)
        if j == n and net.variant is Variant.WITH_MEASUREMENTS:
            value_grad = _READOUT_SCALE * _y_overlaps(pair, n, per_row=True)
            pair = np.array([measured, _readout_adjoint(measured, value_grad, n)])
    return grad


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
