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
network's real states H v reads Re(H), the groups' real parts, built
when first read as the compiled form's ``real``: a string with an odd
number of Y factors is imaginary and antisymmetric, so its quadratic
form on a real vector is exactly zero. On registers of at most
``statevector._TILE_QUBITS`` qubits, the size of the network's dense
layers, the compiled form also keeps Re(H) as one small dense matrix per
Hamiltonian, scattered from ``real`` when first read, and H v on real
columns is one batched matmul.
The compiled form is the one place where strings become matrix entries:
``_string_masks`` decodes each string, ``_string_signs`` gives its sign
on each basis state, and ``_scatter`` adds the groups into one
Hamiltonian's matrix, or into a symmetry sector's block of it.
``to_dense`` builds the full matrix that way, for small registers only;
it is real (float64) whenever H is real symmetric, as it is when every
string has an even number of Y factors. The test suite's Kronecker
product matrix is the independent check of the decoding.

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
from functools import cached_property, lru_cache

import numpy as np

from .statevector import _TILE_QUBITS, StateVector

DENSE_MAX_QUBITS = 12
# The most term-by-basis-state sign products ``compile_hamiltonians`` holds
# at a time (256 KiB of float64).
_SIGN_ENTRIES = 1 << 15


class PauliAxis(enum.Enum):
    """Single-qubit factor of a Pauli string."""

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"


_AXIS_BY_CHAR = {axis.value: axis for axis in PauliAxis}


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
    has index None. The weights are complex only where a string has an
    odd number of Y factors, and ``dtype`` is float64 when no group's
    weights are complex, else complex128.
    """

    n_qubits: int
    count: int
    groups: tuple[tuple[np.ndarray | None, np.ndarray], ...]
    dtype: np.dtype

    @cached_property
    def real(self) -> CompiledHamiltonian:
        """Re(H) in the same form, built on first read: the groups' real
        parts, contiguous (the weights themselves where they are real),
        without the groups whose real part is zero (odd-Y strings alone).
        H v reads it on real columns. A new form even when H is real, as
        the form itself would make a reference cycle that only the cyclic
        garbage collector frees."""
        groups = tuple(
            (flip, np.ascontiguousarray(weights.real))
            for flip, weights in self.groups
            if np.any(weights.real)
        )
        return CompiledHamiltonian(self.n_qubits, self.count, groups, np.dtype(np.float64))

    @cached_property
    def real_dense(self) -> np.ndarray | None:
        """At n <= ``_TILE_QUBITS``, where the network's training pass runs
        on dense layer matrices, the read-only (count, 2**n, 2**n) stack of
        Re(H) of each Hamiltonian, scattered from ``real`` on first read
        (entry [j, i, i ^ m] is Re w_m[i] of Hamiltonian j), so that H on
        real columns is one batched matmul; above, None, and H v reads the
        groups."""
        if self.n_qubits > _TILE_QUBITS:
            return None
        index = np.arange(1 << self.n_qubits)
        ones = np.ones(index.size)
        dense = np.stack([_scatter(self.real, j, index, index, ones) for j in range(self.count)])
        dense.setflags(write=False)
        return dense


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
    rows = [
        (j, term.coefficient, *masks)
        for j, h in enumerate(hs)
        for term, masks in zip(h.terms, _string_masks(tuple(term.axes for term in h.terms)))
    ]
    # Weights by flip mask and Y-count parity: a string with n_y Y factors
    # carries the phase i**n_y, imaginary for odd n_y.
    keys = {(mask, n_y % 2) for _, _, mask, _, n_y in rows}
    sums = {key: np.zeros((index.size, len(hs), 1)) for key in keys}
    # The terms' products c s(i), at most _SIGN_ENTRIES of them at a time,
    # each added into its group's sum in term order.
    step = max(1, _SIGN_ENTRIES >> n)
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        columns = (np.array(column)[:, None] for column in zip(*chunk))
        _, coefficients, flips, z_masks, n_ys = columns
        # (P v)[i] is P's sign on basis state i ^ mask times v[i ^ mask].
        # The parity of (i ^ mask) & z_mask is that of i & z_mask plus that
        # of mask & z_mask, so the sign is that of a string whose Y count
        # is larger by twice the latter's popcount.
        n_ys += 2 * np.bitwise_count(flips & z_masks)
        products = _string_signs(index, z_masks, n_ys, coefficients)
        for (j, _, mask, _, n_y), product in zip(chunk, products):
            sums[mask, n_y % 2][:, j, 0] += product
    zeros = np.zeros((index.size, len(hs), 1))
    groups = []
    for mask in sorted({mask for mask, _ in sums}):
        weights = sums.get((mask, 0), zeros)
        imag = sums.get((mask, 1))
        if imag is not None and imag.any():
            # The halves side by side are the complex weights; real + 1j *
            # imag would put inf * 0 = nan in the real part wherever an
            # imaginary sum overflows.
            weights = np.concatenate((weights, imag), axis=2).view(np.complex128)
        groups.append((None if mask == 0 else index ^ mask, weights))
    dtype = np.result_type(np.float64, *(weights.dtype for _, weights in groups))
    return CompiledHamiltonian(n, len(hs), tuple(groups), dtype)


@lru_cache(maxsize=256)
def _string_masks(
    strings: tuple[tuple[PauliAxis, ...], ...],
) -> tuple[tuple[int, int, int], ...]:
    """(flip mask, Z mask, Y count) of each axis string, cached per string
    list. Qubit q is basis-index bit n-1-q; X and Y factors set the flip
    mask, Z and Y the Z mask, so the Y count is that of their common bits."""
    masks = []
    for axes in strings:
        flips = z_mask = 0
        for axis in axes:
            flips = 2 * flips + (axis is PauliAxis.X or axis is PauliAxis.Y)
            z_mask = 2 * z_mask + (axis is PauliAxis.Z or axis is PauliAxis.Y)
        masks.append((flips, z_mask, (flips & z_mask).bit_count()))
    return tuple(masks)


def _string_signs(index: np.ndarray, z_mask, n_y, coefficient=1.0) -> np.ndarray:
    """Per basis state k of ``index``, as float64, ``coefficient`` times
    the real sign s(k) of a string P with Z mask ``z_mask``, ``n_y`` Y
    factors and flip mask m, P|k> = s(k) i**(n_y % 2) |k ^ m>. P's phase
    on k is i**n_y (-1)**popcount(k & z_mask), and i**n_y is -1 or -i
    exactly when n_y // 2 is odd, so
    s(k) = (-1)**(popcount(k & z_mask) + n_y // 2). The last three
    arguments may also be arrays that broadcast with ``index``; c s(k) is
    c or -c, so it is exactly the product."""
    odd = np.bitwise_count(index & z_mask)
    odd ^= np.asarray(n_y // 2 & 1, dtype=np.uint8)
    odd &= 1
    return np.where(odd, -coefficient, coefficient)


def _scatter(compiled: CompiledHamiltonian, j: int, reps, pos, amp) -> np.ndarray:
    """Hamiltonian j's matrix at rows ``reps``, its columns folded by the
    tables of a symmetry sector (see ``oracle._sectors``): the
    (reps.size, reps.size) array B, in ``compiled.dtype``, with
    B[k, pos[c]] = sum_m w_m[r_k] amp[c] over the flip masks m, c = r_k ^ m.
    With the identity tables (reps and pos the basis indices, amp ones)
    B is the matrix itself.

    A group puts one entry in each row k, so no two of its entries share
    a cell, and one row-indexed add per group adds every cell's terms in
    group order, as ``np.add.at`` would, with no array wider than a row
    of B beside B itself.
    """
    block = np.zeros((reps.size, reps.size), dtype=compiled.dtype)
    rows = np.arange(reps.size)
    for flip, weights in compiled.groups:
        cols = reps if flip is None else flip[reps]
        block[rows, pos[cols]] += weights[reps, j, 0] * amp[cols]
    return block


def _apply_hamiltonian_rows(hamiltonians: CompiledHamiltonian, cols: np.ndarray) -> np.ndarray:
    """H applied to each column of a (2**n, points) array, or of each
    group of a (G, 2**n, points) one, in the columns' dtype; the columns
    of a group form ``hamiltonians.count`` equal consecutive blocks, block
    j for Hamiltonian j.

    Complex columns read the full weights. Real columns read Re(H)
    (``real``): equal to H when H is real, and in any case symmetric with
    the same quadratic form as H on real columns, so 2 Re(H) v is the
    gradient of <v|H|v> by a real v. That is one stacked matmul with
    ``real_dense`` where there is one, a product per block and group of
    the shape that a group alone makes, so each group's products are
    bitwise those of its columns alone.
    """
    blocks = cols.reshape(*cols.shape[:-1], hamiltonians.count, -1)
    real = cols.dtype.kind != "c"
    if real and hamiltonians.real_dense is not None:
        groups = blocks.reshape(-1, *blocks.shape[-3:])
        out = np.empty(groups.shape, dtype=cols.dtype)
        np.matmul(
            hamiltonians.real_dense[:, None],
            groups.transpose(2, 0, 1, 3),
            out=out.transpose(2, 0, 1, 3),
        )
        return out.reshape(cols.shape)
    out = np.zeros(blocks.shape, dtype=cols.dtype)
    for flip, weights in (hamiltonians.real if real else hamiltonians).groups:
        partner = blocks if flip is None else blocks.take(flip, axis=-3)
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
    complex128 otherwise. Scattered from the compiled groups with the
    identity tables, so it costs O(2**n) per group to build besides the
    matrix itself. Guarded to small registers; use the matrix-free path
    otherwise."""
    if h.n_qubits > DENSE_MAX_QUBITS:
        raise ValueError(
            f"to_dense limited to {DENSE_MAX_QUBITS} qubits, got {h.n_qubits}"
        )
    index = np.arange(1 << h.n_qubits)
    return _scatter(compile_hamiltonians((h,)), 0, index, index, np.ones(index.size))
