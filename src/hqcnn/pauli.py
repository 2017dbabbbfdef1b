"""Hamiltonians as real-weighted sums of Pauli strings.

A Hamiltonian is H = sum_i c_i P_i where each P_i is a tensor product of
single-qubit Pauli operators {I, X, Y, Z} and each c_i is a finite real
(energy units, Hartree for molecular data). Qubit 0 is the leftmost tensor
factor, matching :mod:`hqcnn.statevector`.

Hamiltonians are evaluated matrix-free from a compiled form
(:func:`compile_hamiltonians`): the terms are grouped by the basis-state
flip they cause, so H v is one gather and one multiply per group, with
a weight vector that folds every term's coefficient and sign, stored
amplitude-major like the (2**n, points) columns of :mod:`hqcnn.statevector`.
The same form gives H|psi> for the Lanczos oracle, on one (2**n, 1)
column, and <psi|H|psi> and its gradient 2 Re(H) psi for training; on the
network's real states, strings with an odd number of Y factors
contribute exactly zero and are left out. On registers of at most
``statevector._TILE_QUBITS`` qubits, the size of the network's dense
layers, the compiled form also keeps Re(H) as one small dense matrix per
Hamiltonian, built from the groups, and H v on real columns is one
batched matmul.
``to_dense`` materializes the full matrix only for small registers, as
ground truth for tests and the dense diagonalization oracle. It is built
independently of the compiled form, term by term as a Kronecker product
of monomial matrices, and is real (float64) whenever H is real symmetric,
as it is when every string has an even number of Y factors.

The ``.ham`` text format (UTF-8, line oriented)::

    # comment lines and blank lines are ignored
    qubits: 4
    bond_length: 0.74
    term: -0.8105 IIII
    term: 0.1209 ZZII

Exactly one ``qubits`` header must precede any term; ``bond_length`` is
optional. Coefficients accept ASCII decimal or scientific notation
(``ascii_float``); axis strings use only I, X, Y, Z and must match the
declared qubit count.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

import numpy as np

from .statevector import _TILE_QUBITS, StateVector

DENSE_MAX_QUBITS = 12


class PauliAxis(enum.Enum):
    """Single-qubit factor of a Pauli string."""

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"


_AXIS_BY_CHAR = {axis.value: axis for axis in PauliAxis}

# Every Pauli factor is a monomial matrix: row r holds one nonzero, at
# column columns[r], with value values[r]. Y = i [[0, -1], [1, 0]], so with
# its factor i taken out every table is real.
_MONOMIALS = {
    PauliAxis.I: (np.array([0, 1]), np.array([1.0, 1.0])),
    PauliAxis.X: (np.array([1, 0]), np.array([1.0, 1.0])),
    PauliAxis.Y: (np.array([1, 0]), np.array([-1.0, 1.0])),
    PauliAxis.Z: (np.array([0, 1]), np.array([1.0, -1.0])),
}


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string: coefficient * axes[0] (x) ... (x) axes[n-1]."""

    coefficient: float
    axes: tuple[PauliAxis, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.coefficient):
            raise ValueError(f"coefficient must be finite, got {self.coefficient}")
        if not self.axes:
            raise ValueError("axes must be non-empty")

    @classmethod
    def from_string(cls, coefficient: float, axes: str) -> "PauliTerm":
        try:
            parsed = tuple(_AXIS_BY_CHAR[c] for c in axes)
        except KeyError as exc:
            raise ValueError(f"unknown axis character {exc.args[0]!r}") from None
        return cls(float(coefficient), parsed)

    @property
    def axis_string(self) -> str:
        return "".join(a.value for a in self.axes)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Sum of Pauli terms on a fixed number of qubits.

    Duplicate axis strings are kept as-is to preserve input fidelity.
    ``bond_length`` (Angstrom) is optional metadata used to pair
    Hamiltonians with network inputs.
    """

    n_qubits: int
    terms: tuple[PauliTerm, ...]
    bond_length: float | None = None

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        for term in self.terms:
            if len(term.axes) != self.n_qubits:
                raise ValueError(
                    f"term {term.axis_string!r} has {len(term.axes)} axes, "
                    f"expected {self.n_qubits}"
                )
        if self.bond_length is not None and not math.isfinite(self.bond_length):
            raise ValueError("bond_length must be finite")


# ---------------------------------------------------------------------------
# parsing / formatting
# ---------------------------------------------------------------------------


class HamParseError(ValueError):
    """Malformed .ham input; ``line`` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# The number grammar of .ham files, config values and flags: ASCII digits
# only, no '_'. A real may also be a word float() reads as nan or inf,
# which each caller rejects as non-finite with its own message.
_INTEGER = re.compile(r"[+-]?\d+", re.ASCII)
_UNSIGNED_REAL = r"((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)"
_REAL = re.compile(r"[+-]?" + _UNSIGNED_REAL, re.ASCII | re.I)
_NEGATIVE_REAL = re.compile("-" + _UNSIGNED_REAL + r"\Z", re.ASCII | re.I)


def ascii_int(token: str) -> int:
    """``token`` as an int if it matches ``_INTEGER``, else ValueError."""
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


def ascii_float(token: str) -> float:
    """``token`` as a float if it matches ``_REAL``, else ValueError."""
    if _REAL.fullmatch(token) is None:
        raise ValueError(f"invalid real number {token!r}")
    return float(token)


def parse_hamiltonian(text: str) -> PauliHamiltonian:
    """Parse a .ham document into a Hamiltonian, preserving term order."""
    n_qubits: int | None = None
    bond_length: float | None = None
    terms: list[PauliTerm] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise HamParseError(lineno, f"expected 'key: value', got {line!r}")
        key, value = key.strip(), value.strip()
        if key == "qubits":
            if n_qubits is not None:
                raise HamParseError(lineno, "duplicate 'qubits' header")
            try:
                n_qubits = ascii_int(value)
            except ValueError:
                raise HamParseError(lineno, f"qubits must be an integer, got {value!r}") from None
            if n_qubits < 1:
                raise HamParseError(lineno, f"qubits must be positive, got {n_qubits}")
        elif key == "bond_length":
            if bond_length is not None:
                raise HamParseError(lineno, "duplicate 'bond_length' line")
            bond_length = _parse_real(lineno, value, what="bond_length")
        elif key == "term":
            if n_qubits is None:
                raise HamParseError(lineno, "term before 'qubits' header")
            fields = value.split()
            if len(fields) != 2:
                raise HamParseError(
                    lineno, f"term needs '<coefficient> <axes>', got {value!r}"
                )
            coeff = _parse_real(lineno, fields[0], what="coefficient")
            axes = fields[1]
            if len(axes) != n_qubits:
                raise HamParseError(
                    lineno,
                    f"axis string {axes!r} has length {len(axes)}, "
                    f"expected {n_qubits}",
                )
            for c in axes:
                if c not in _AXIS_BY_CHAR:
                    raise HamParseError(lineno, f"unknown axis character {c!r} in {axes!r}")
            terms.append(PauliTerm.from_string(coeff, axes))
        else:
            raise HamParseError(lineno, f"unknown key {key!r}")
    if n_qubits is None:
        raise HamParseError(lineno + 1, "missing 'qubits' header")
    return PauliHamiltonian(n_qubits, tuple(terms), bond_length)


def _parse_real(lineno: int, token: str, what: str) -> float:
    try:
        value = ascii_float(token)
    except ValueError:
        raise HamParseError(lineno, f"invalid {what} {token!r} (real number required)") from None
    if not math.isfinite(value):
        raise HamParseError(lineno, f"non-finite {what} {token!r}")
    return value


def format_hamiltonian(h: PauliHamiltonian) -> str:
    """Render a Hamiltonian so that parsing the result reproduces it exactly.

    Coefficients use shortest round-trip float representation.
    """
    lines = [f"qubits: {h.n_qubits}"]
    if h.bond_length is not None:
        lines.append(f"bond_length: {h.bond_length!r}")
    for term in h.terms:
        lines.append(f"term: {term.coefficient!r} {term.axis_string}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompiledHamiltonian:
    """``count`` Hamiltonians on n qubits in X-flip-mask form.

    A Pauli string maps basis state k to a phase times basis state k ^ m,
    where the mask m holds the bits of its X and Y factors. Summing the
    strings that share a mask gives (H v)[i] = sum_m w_m[i] v[i ^ m], one
    weight vector per mask and Hamiltonian. Each group is a pair (index
    i ^ m, weights of shape (2**n, count, 1)); the diagonal group (m = 0)
    has index None. ``groups`` is the full operator; its weights are complex
    only where a string has an odd number of Y factors. ``real_groups``
    holds their real parts for real columns, leaving out groups whose real
    part vanishes: an odd-Y string is imaginary and antisymmetric, so its
    quadratic form on a real vector is exactly zero.

    At n <= ``_TILE_QUBITS``, where the network's training pass runs on
    dense layer matrices, ``real_dense`` is the (count, 2**n, 2**n) stack
    of those real parts as matrices, built from ``real_groups`` (entry
    [j, i, i ^ m] is w_m[i] of Hamiltonian j), so that H on real columns
    is one batched matmul; above, it is None and H v reads the groups.
    """

    n_qubits: int
    count: int
    groups: tuple[tuple[np.ndarray | None, np.ndarray], ...]
    real_groups: tuple[tuple[np.ndarray | None, np.ndarray], ...]
    real_dense: np.ndarray | None


def compile_hamiltonians(hamiltonians) -> CompiledHamiltonian:
    """Group the terms of each Hamiltonian (all on the same register) by
    X-flip mask; see :class:`CompiledHamiltonian`."""
    hs = tuple(hamiltonians)
    if not hs:
        raise ValueError("need at least one Hamiltonian")
    n = hs[0].n_qubits
    if any(h.n_qubits != n for h in hs):
        raise ValueError("Hamiltonians act on different qubit counts")
    index = np.arange(1 << n)
    # Weights by mask, split into real and imaginary parts: a string with
    # n_y Y factors carries the phase i**n_y, real for even n_y.
    parts: tuple[dict[int, np.ndarray], dict[int, np.ndarray]] = ({}, {})
    for j, h in enumerate(hs):
        for term in h.terms:
            mask = 0
            z_qubits = []
            n_y = 0
            for q, axis in enumerate(term.axes):
                if axis is PauliAxis.X or axis is PauliAxis.Y:
                    mask |= 1 << (n - 1 - q)
                if axis is PauliAxis.Z or axis is PauliAxis.Y:
                    z_qubits.append(q)
                n_y += axis is PauliAxis.Y
            # P|k> = i^n_y (-1)^(Z/Y bits of k) |k ^ mask>, so
            # (P v)[i] = i^n_y (-1)^(Z/Y bits of i ^ mask) v[i ^ mask].
            source = index ^ mask
            parity = np.zeros_like(index)
            for q in z_qubits:
                parity ^= source >> (n - 1 - q)
            sign = 1.0 - 2.0 * (parity & 1)
            phase = -1.0 if n_y % 4 >= 2 else 1.0
            weights = parts[n_y % 2].setdefault(mask, np.zeros((index.size, len(hs), 1)))
            weights[:, j, 0] += term.coefficient * phase * sign
    real_parts, imag_parts = parts
    zeros = np.zeros((index.size, len(hs), 1))
    groups = []
    real_groups = []
    for mask in sorted(real_parts.keys() | imag_parts.keys()):
        flip = None if mask == 0 else index ^ mask
        real = real_parts.get(mask, zeros)
        imag = imag_parts.get(mask, zeros)
        groups.append((flip, real + imag * 1j if np.any(imag) else real))
        if np.any(real):
            real_groups.append((flip, real))
    real_dense = None
    if n <= _TILE_QUBITS:
        real_dense = np.zeros((len(hs), index.size, index.size))
        for flip, weights in real_groups:
            real_dense[:, index, index if flip is None else flip] = weights[:, :, 0].T
        real_dense.setflags(write=False)
    return CompiledHamiltonian(n, len(hs), tuple(groups), tuple(real_groups), real_dense)


def _apply_hamiltonian_rows(hamiltonians: CompiledHamiltonian, cols: np.ndarray) -> np.ndarray:
    """H applied to each column of a (2**n, points) array, in the columns'
    dtype; the columns form ``hamiltonians.count`` equal consecutive
    blocks, block j for Hamiltonian j.

    Complex columns read the full ``groups``. Real columns read Re(H):
    equal to H when H is real, and in any case symmetric with the same
    quadratic form as H on real columns, so 2 Re(H) v is the gradient of
    <v|H|v> by a real v. That is one batched matmul with ``real_dense``
    where there is one, else ``real_groups``.
    """
    blocks = cols.reshape(cols.shape[0], hamiltonians.count, -1)
    real = cols.dtype.kind != "c"
    if real and hamiltonians.real_dense is not None:
        out = np.empty(cols.shape, dtype=cols.dtype)
        np.matmul(
            hamiltonians.real_dense,
            blocks.transpose(1, 0, 2),
            out=out.reshape(blocks.shape).transpose(1, 0, 2),
        )
        return out
    groups = hamiltonians.real_groups if real else hamiltonians.groups
    out = np.zeros(blocks.shape, dtype=cols.dtype)
    for flip, weights in groups:
        partner = blocks if flip is None else blocks.take(flip, axis=0)
        out += partner * weights
    return out.reshape(cols.shape)


def _expectation_rows(hamiltonians: CompiledHamiltonian, cols: np.ndarray) -> np.ndarray:
    """Per-column real <col|H|col>, columns in blocks as for
    :func:`_apply_hamiltonian_rows`."""
    products = _apply_hamiltonian_rows(hamiltonians, cols)
    return np.einsum("ib,ib->b", cols.conj(), products).real


def expectation(h: PauliHamiltonian, psi: StateVector) -> float:
    """<psi|H|psi>, evaluated matrix-free from the compiled form.

    The tiny imaginary residue of the quadratic form (Hermitian H, so it is
    pure rounding noise) is discarded.
    """
    if h.n_qubits != psi.n_qubits:
        raise ValueError(
            f"Hamiltonian acts on {h.n_qubits} qubits, state has {psi.n_qubits}"
        )
    compiled = compile_hamiltonians((h,))
    return float(_expectation_rows(compiled, psi.amplitudes[:, None])[0])


def to_dense(h: PauliHamiltonian) -> np.ndarray:
    """Full 2**n x 2**n Hermitian matrix, qubit 0 as the leftmost Kronecker
    factor: float64 when its imaginary part is identically zero (every
    string with an odd number of Y factors cancels, or there is none),
    complex128 otherwise. Each term is a monomial matrix, one nonzero per
    row, so it costs O(2**n) to build and write. Guarded to small
    registers; use the matrix-free path otherwise."""
    if h.n_qubits > DENSE_MAX_QUBITS:
        raise ValueError(
            f"to_dense limited to {DENSE_MAX_QUBITS} qubits, got {h.n_qubits}"
        )
    dim = 1 << h.n_qubits
    rows = np.arange(dim)
    real = np.zeros((dim, dim))
    imag = None
    for term in h.terms:
        # The term's column map and values are the Kronecker combination of
        # its factors' tables, qubit 0 first, which for 1-D tables is the
        # flattened outer product; a string with n_y Y factors carries the
        # phase i**n_y on top, real for even n_y.
        columns = np.zeros(1, dtype=np.intp)
        values = np.full(1, term.coefficient)
        n_y = 0
        for axis in term.axes:
            c, v = _MONOMIALS[axis]
            columns = (2 * columns[:, None] + c).reshape(-1)
            values = np.multiply.outer(values, v).reshape(-1)
            n_y += axis is PauliAxis.Y
        if n_y % 4 >= 2:
            values = -values
        if n_y % 2 == 0:
            real[rows, columns] += values
        else:
            if imag is None:
                imag = np.zeros((dim, dim))
            imag[rows, columns] += values
    if imag is None or not imag.any():
        return real
    out = imag * 1j
    out += real
    return out
