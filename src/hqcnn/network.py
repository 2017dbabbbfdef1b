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
``_forward_rows``: one row per (input, parameter vector) pair, float64
amplitudes (H, Ry and CNOT are real gates), the encoding built in closed
form as a product state, each CNOT ladder one cached gather permutation,
and all qubits read out at once. The public single-state functions run
the same kernels on complex rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# _h_rows is not called here: the encoding is built in closed form. It is
# imported so that all gate kernels stay reachable through this module,
# where perfbench/layers.py hooks them by name.
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
        n = self.n_qubits
        if self.variant is Variant.WITH_MEASUREMENTS:
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


def _pqc_block(rows: np.ndarray, spec: PqcSpec, c, s) -> np.ndarray:
    """Run one trainable block and return the new rows; ``rows`` itself is
    left unchanged, because every layer starts with the ladder's gather.

    c and s are cos/sin of half the block's own angles, angle index first,
    so ``c[i + n*j]`` is the factor of qubit i in layer j (a scalar, or
    shape (batch, 1, 1) for one angle per row).
    """
    n = spec.n_qubits
    perm = _ladder_permutation(n)
    for j in range(spec.n_layers):
        rows = _cnot_rows(rows, perm)
        for i in range(n):
            _ry_rows(rows, n, i, c[i + n * j], s[i + n * j])
    return rows


def _forward_rows(
    net: NetworkSpec, inputs: np.ndarray, params_rows: np.ndarray
) -> np.ndarray:
    """One forward pass per row: row b encodes the bond length inputs[b]
    and runs on the angles params_rows[b]. Returns the final float64
    amplitude rows, shape (batch, 2**n).

    Every gate is real, so the rows stay real. The angles are validated
    and turned into cos/sin once, here. Every encoding block starts from a
    fresh register, so the readout block only has to capture its values;
    the collapsed state is dropped.
    """
    n = net.n_qubits
    c, s = _angle_factors(params_rows)
    c = np.ascontiguousarray(c.T)[:, :, None, None]
    s = np.ascontiguousarray(s.T)[:, :, None, None]
    values = np.repeat(np.asarray(inputs, dtype=np.float64)[:, None], n, axis=1)
    rows = None
    for block in net.blocks():
        if isinstance(block, EncodingSpec):
            rows = _encoded_rows(block.scale * values)
        elif isinstance(block, PqcSpec):
            window = slice(block.param_offset, block.param_offset + block.n_params)
            rows = _pqc_block(rows, block, c[window], s[window])
        else:
            values = _expect_z_rows(rows, n)
    return rows


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
    rows = _pqc_block(psi.amplitudes.reshape(1, -1), spec, c, s)
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
    rows = _forward_rows(net, np.array([float(bond_length)]), vec.reshape(1, -1))
    return StateVector(net.n_qubits, rows[0])
