"""Exact ground-state reference values by diagonalization.

Two routes to the smallest eigenvalue, both on the compiled flip-mask
groups of :func:`hqcnn.pauli.compile_hamiltonians`:

* ``ground_energy`` and ``spectrum_bounds`` write the groups into the
  rows of the dense matrix that its symmetry sectors read, or into the
  full matrix (``to_dense``) where there is no symmetry, and call the
  symmetric eigensolver on each sector. Exact up to LAPACK rounding,
  limited to ``DENSE_MAX_QUBITS``. The matrix is real for real symmetric
  H (every string has an even number of Y factors, as in the TFIM and
  molecular Jordan-Wigner Hamiltonians), so LAPACK's real symmetric
  solver runs; otherwise the complex Hermitian one.
* ``ground_energy_iterative`` never materializes the matrix: it wraps the
  compiled Hamiltonian's matrix-free product in a LinearOperator and runs
  Lanczos (shift-free, smallest-algebraic), on float64 vectors when every
  compiled weight is real and on complex ones otherwise. The two routes
  share the decoding of the strings, so agreement between them checks the
  eigensolvers and the sector projection; the test suite's
  Kronecker-product matrix is the independent check of the decoding.

Symmetry sectors: if a Pauli string S other than I commutes with every
term, H is block-diagonal in S's +1 and -1 eigenspaces, each of dimension
2**(n-1) (the Z2 symmetry behind qubit tapering; Bravyi, Gambetta,
Mezzacapo & Temme, arXiv:1701.08213). The TFIM commutes with X...X. A
string is a symplectic row (z | x) of 2n bits, and S commutes with a term
exactly when their symplectic product vanishes mod 2, so the candidates
are the null space of the terms' rows over GF(2). ``_string_symmetries``
takes the first null-space basis vector, in elimination order, with an
even number of Y factors, which keeps S, and so every block of a real H,
real. The open chain's mirror symmetry, the qubit reversal R: q -> n-1-q,
splits H further where it commutes with H (the terms, duplicates summed,
map onto themselves with equal coefficients) and with S (reversing S gives
S), as exact diagonalization splits by lattice symmetries (Sandvik,
arXiv:1101.3281). The blocks are then those of the four joint sectors of
S and R, one per character of the group they generate: at n = 10 the TFIM
solves blocks of 272, 256, 240 and 256 rows instead of two of 512, and at
n = 12 blocks of 1056, 1024, 992 and 1024 instead of two of 2048, about a
sixteenth of the work of one full-size eigensolve. ``_group`` builds each
block's index tables from the group alone and caches them, so only H's
rows at the representatives, built from the groups, and their gather and
sums run per Hamiltonian. With only one of S and R there are two blocks,
and with neither one, the full matrix. ``ground_state`` returns a
full-register eigenvector and so stays on the full matrix.

``ground_energy`` takes the dense route up to ``DENSE_MAX_QUBITS`` and the
Lanczos route above it.

``spectrum_bounds`` returns the (min, max) eigenvalues of the dense
route; the dense ``ground_energy`` is its minimum.

Either route raises :class:`EigensolverError` rather than return a
non-finite or unconverged eigenvalue.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import (
    DENSE_MAX_QUBITS,
    PauliAxis,
    PauliHamiltonian,
    PauliTerm,
    _apply_hamiltonian_rows,
    _group_rows,
    _parity_signs,
    _string_masks,
    compile_hamiltonians,
    to_dense,
)
from .statevector import MAX_QUBITS, StateVector


class EigensolverError(RuntimeError):
    """An eigensolver failed: LAPACK or ARPACK raised, the iteration did not
    converge, or an eigenvalue came out non-finite."""


@contextmanager
def _solver_errors(route: str, *errors: type[Exception]):
    """Turn a LAPACK, floating-point or other listed failure inside
    ``route`` into an :class:`EigensolverError`; overflow and invalid
    values raise."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (np.linalg.LinAlgError, FloatingPointError, *errors) as exc:
        raise EigensolverError(f"{route} failed: {exc}") from exc


def _check_finite(values: np.ndarray, route: str) -> None:
    if not np.isfinite(values).all():
        raise EigensolverError(f"{route} returned a non-finite eigenvalue: {values.tolist()}")


@lru_cache(maxsize=256)
def _string_symmetries(n: int, strings: tuple[tuple[PauliAxis, ...], ...]):
    """What the terms' axis strings alone fix about H's symmetries:
    (S, first, partner), cached per string list.

    S is the (flip mask, Z mask) of a Pauli string S != I with an even
    number of Y factors that commutes with every string, or None.
    ``first[i]`` is the first term with term i's string, and
    ``partner[i]`` the first term with its reversal, -1 for none; partner
    is None where the qubit reversal R cannot commute with H: n < 2, or
    reversing S does not give S.

    The masks are the compiled form's (``_string_masks``): qubit q is
    bit n-1-q, X and Y factors set the flip mask, Z and Y the Z mask. A
    term is the row (z | x) and S the vector (x | z), both 2n-bit ints,
    so the parity of their AND is the symplectic product, 0 exactly when
    they commute. The rows are reduced to row echelon form over GF(2),
    and each free bit, lowest first, gives one null-space basis vector;
    the first with an even Y count is S.
    """
    pivots: dict[int, int] = {}  # leading bit -> row, zero at every other leading bit
    for x, z, _ in _string_masks(strings):
        row = z << n | x
        for bit, pivot in pivots.items():
            if row >> bit & 1:
                row ^= pivot
        if row:
            lead = row.bit_length() - 1
            for bit, pivot in list(pivots.items()):
                if pivot >> lead & 1:
                    pivots[bit] = pivot ^ row
            pivots[lead] = row
    for free in range(2 * n):
        if free in pivots:
            continue
        vector = 1 << free
        for bit, pivot in pivots.items():
            if pivot >> free & 1:
                vector |= 1 << bit
        flips, z_mask = vector >> n, vector & ((1 << n) - 1)
        if (flips & z_mask).bit_count() % 2 == 0:
            symmetry = flips, z_mask
            break
    else:
        symmetry = None
    if n < 2 or symmetry is not None and any(_reversal(n)[m] != m for m in symmetry):
        return symmetry, None, None
    seen: dict[tuple[PauliAxis, ...], int] = {}
    first = tuple(seen.setdefault(axes, i) for i, axes in enumerate(strings))
    partner = tuple(seen.get(axes[::-1], -1) for axes in strings)
    return symmetry, first, partner


def _symmetries(h: PauliHamiltonian) -> tuple[tuple[int, int] | None, bool]:
    """(S or None, whether the qubit reversal R commutes with H and S).

    R P R is P's axis string reversed, so R commutes with H exactly when
    the coefficient table, duplicates summed, maps onto itself with equal
    floats under reversal.
    """
    symmetry, first, partner = _string_symmetries(
        h.n_qubits, tuple(term.axes for term in h.terms)
    )
    if partner is None:
        return symmetry, False
    merged = [0.0] * len(first)
    for i, term in zip(first, h.terms):
        merged[i] += term.coefficient
    mirror = all(merged[i] == (merged[p] if p >= 0 else 0.0) for i, p in zip(first, partner))
    return symmetry, mirror


@lru_cache(maxsize=DENSE_MAX_QUBITS)
def _reversal(n: int) -> np.ndarray:
    """Basis index y -> y with its n bits reversed: the qubit reversal
    q -> n-1-q, which maps flip and Z masks alike."""
    index = np.arange(1 << n)
    reverse = np.zeros_like(index)
    for bit in range(n):
        reverse |= (index >> bit & 1) << (n - 1 - bit)
    return _frozen(reverse)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class _Group:
    """Index tables of the sectors of G (see ``_group``).

    ``reps`` are the orbit representatives r, and ``scale`` holds the
    factors f(r) = sqrt(|K| / |stab(r)|) that are not 1, at the positions
    ``scaled``. For the classes q of elements that permute indices alike,
    ``targets`` holds g_q(r) and ``weights`` s_q(r) f(r), both indexed
    [r, q]; ``weights`` is None when all are 1. Per sector,
    ``characters`` holds chi(g_q) for each class and ``kept`` the
    ``np.ix_`` of the kept representatives' positions, None for all.
    """

    reps: np.ndarray
    scaled: np.ndarray
    scale: np.ndarray
    targets: np.ndarray
    weights: np.ndarray | None
    characters: tuple[np.ndarray, ...]
    kept: tuple[tuple[np.ndarray, np.ndarray] | None, ...]


@lru_cache(maxsize=64)
def _group(n: int, symmetry: tuple[int, int] | None, mirror: bool) -> _Group:
    """Tables for the group G generated by S (if ``symmetry``) and the qubit
    reversal R (if ``mirror``), one sector per character chi of G. They
    depend on no coefficient, so each register size and symmetry builds
    them once.

    Every g in G is a signed permutation of basis states, g|y> = s_g(y)
    |g(y)>, with s_g real: S has an even number of Y factors and R only
    permutes. For an orbit representative r (the smallest index of its
    orbit), w = sum_g chi(g) g|r> spans the sector's share of the orbit,
    and |w|^2 = |G| T(r) with T(r) the sum of chi(g) s_g(r) over the g
    that fix r: |stab(r)|, or 0, and then r is dropped from the sector.
    Since H commutes with G, <w_k|H|w_l> = |G| sum_g chi(g) s_g(r_l)
    H[r_k, g(r_l)]. The elements K that move no index (a diagonal S) add
    the same on kept columns, so one element g_q per permutation class
    does with weight |K|, and the block is

        B[k, l] = f(r_k) f(r_l) sum_q chi(g_q) s_q(r_l) H[r_k, g_q(r_l)].
    """
    dim = 1 << n
    index = np.arange(dim)
    generators = []
    if symmetry is not None:
        flips, z_mask = symmetry
        n_y = (flips & z_mask).bit_count()  # even, so i**n_y is +1 or -1
        sign = _parity_signs(index, z_mask) * (-1.0 if n_y % 4 else 1.0)
        generators.append((index ^ flips, sign))
    if mirror:
        generators.append((_reversal(n), np.ones(dim)))
    # Element b is the product of the generators whose bits b sets, so the
    # characters are chi_c(b) = (-1)**popcount(b & c).
    elements = [(index, np.ones(dim))]
    for perm, sign in generators:
        elements += [(perm[p], s * sign[p]) for p, s in elements]
    perms = np.array([p for p, _ in elements])
    reps = np.flatnonzero(perms.min(axis=0) == index)
    images = perms[:, reps]
    signs = np.array([s[reps] for _, s in elements])
    fixed = images == reps
    classes: list[int] = []  # first element of each permutation class
    for b in range(len(elements)):
        if not any(np.array_equal(images[q], images[b]) for q in classes):
            classes.append(b)
    scale = np.sqrt(len(elements) / len(classes) / fixed.sum(axis=0))
    characters, kept = [], []
    for c in range(len(elements)):
        chi = np.array([(-1.0) ** (b & c).bit_count() for b in range(len(elements))])
        keep = np.where(fixed, chi[:, None] * signs, 0.0).sum(axis=0) > 0.5
        if keep.any():
            characters.append(_frozen(chi[classes]))
            at = np.flatnonzero(keep)
            kept.append(None if keep.all() else tuple(map(_frozen, np.ix_(at, at))))
    scaled = np.flatnonzero(scale != 1.0)
    weights = (signs[classes] * scale).T
    return _Group(
        reps=_frozen(reps),
        scaled=_frozen(scaled),
        scale=_frozen(scale[scaled]),
        targets=_frozen(images[classes].T.copy()),
        weights=None if (weights == 1.0).all() else _frozen(weights.copy()),
        characters=tuple(characters),
        kept=tuple(kept),
    )


def _sector_blocks(h: PauliHamiltonian) -> Iterator[np.ndarray]:
    """H's diagonal blocks in the joint eigenspaces of S and of the qubit
    reversal R, as far as ``_symmetries`` finds them, or H alone with
    neither. The blocks' spectra together are H's, and each block has H's
    dtype. Blocks are made one at a time, as they are consumed."""
    if h.n_qubits > DENSE_MAX_QUBITS:
        raise ValueError(f"dense route limited to {DENSE_MAX_QUBITS} qubits, got {h.n_qubits}")
    symmetry, mirror = _symmetries(h)
    if symmetry is None and not mirror:
        yield to_dense(h)
        return
    group = _group(h.n_qubits, symmetry, mirror)
    # Only the representatives' rows are read, so only they are built.
    rows = _group_rows(compile_hamiltonians((h,)).groups, h.n_qubits, 1, group.reps)[0]
    m, width = group.targets.shape
    if width == 1:
        # G moves no index (a diagonal S): every index is its own orbit,
        # every factor is 1, and the one part is H itself.
        parts = rows
    else:
        if group.scaled.size:
            rows[group.scaled] *= group.scale[:, None]
        # parts[k, l, q] = H[r_k, g_q(r_l)] s_q(r_l) f(r_k) f(r_l)
        parts = rows.take(group.targets, axis=1)
        del rows
        if group.weights is not None:
            parts *= group.weights
        parts = parts.reshape(m * m, width)
    for characters, kept in zip(group.characters, group.kept):
        block = parts if width == 1 else (parts @ characters).reshape(m, m)
        yield block if kept is None else block[kept]


def ground_energy(h: PauliHamiltonian) -> float:
    """Smallest eigenvalue of H: dense symmetric diagonalization by symmetry
    sector up to ``DENSE_MAX_QUBITS`` qubits, Lanczos above."""
    if h.n_qubits > DENSE_MAX_QUBITS:
        return ground_energy_iterative(h)
    return spectrum_bounds(h)[0]


def ground_state(h: PauliHamiltonian) -> tuple[float, StateVector]:
    """Smallest eigenvalue and a unit-norm eigenvector for it, from the full
    matrix."""
    with _solver_errors("dense diagonalization"):
        values, vectors = np.linalg.eigh(to_dense(h))
    _check_finite(values[:1], "dense diagonalization")
    return float(values[0]), StateVector(h.n_qubits, vectors[:, 0])


def spectrum_bounds(h: PauliHamiltonian) -> tuple[float, float]:
    """(lowest, highest) eigenvalue of H, over its symmetry blocks."""
    with _solver_errors("dense diagonalization"):
        spectra = [np.linalg.eigvalsh(block) for block in _sector_blocks(h)]
    ends = np.array([(values[0], values[-1]) for values in spectra])
    _check_finite(ends, "dense diagonalization")
    return float(ends[:, 0].min()), float(ends[:, 1].max())


def ground_energy_iterative(h: PauliHamiltonian) -> float:
    """Smallest eigenvalue via Lanczos on the matrix-free operator, to
    machine precision (ARPACK's tol = 0). Raises :class:`EigensolverError`
    if the coefficients' absolute sum overflows, ARPACK fails, the
    iteration does not converge or the eigenvalue is not finite, rather
    than returning a silently inaccurate value. Registers above
    ``MAX_QUBITS`` are refused: their state vectors alone would need
    gigabytes.
    """
    # Imported on first use: importing scipy.sparse makes numpy's f2py parse
    # SOURCE_DATE_EPOCH with int(), so at module level a bad value would end
    # every command in a traceback before the CLI could report it.
    import scipy.sparse.linalg

    if h.n_qubits > MAX_QUBITS:
        raise ValueError(f"Lanczos limited to {MAX_QUBITS} qubits, got {h.n_qubits}")
    # The coefficients' absolute sum bounds |H v| for a unit v. Past the
    # float range ARPACK can overflow inside its Fortran loop unseen and
    # return a wrong finite value (0.0 for a 2-qubit TFIM at field 1e308).
    bound = sum(abs(term.coefficient) for term in h.terms)
    if not np.isfinite(bound):
        raise EigensolverError("Lanczos needs a finite sum of |coefficients|")
    # Lanczos runs on H / 2**e, 2**(e-1) <= bound < 2**e, so that ARPACK
    # stays in range (it returned NaN near 1e308); a power of two scales
    # every coefficient, product and sum exactly, barring underflow.
    exponent = math.frexp(bound)[1]
    scaled = tuple(PauliTerm(math.ldexp(t.coefficient, -exponent), t.axes) for t in h.terms)
    dim = 1 << h.n_qubits
    with _solver_errors("Lanczos", scipy.sparse.linalg.ArpackError):
        compiled = compile_hamiltonians((PauliHamiltonian(h.n_qubits, scaled),))
        # Real weights make a real symmetric operator, which eigsh solves by
        # the symmetric Lanczos instead of the complex Arnoldi route.
        real = not any(np.iscomplexobj(w) for _, w in compiled.groups)
        dtype = np.float64 if real else np.complex128

        def matvec(v: np.ndarray) -> np.ndarray:
            cols = np.asarray(v, dtype=dtype).reshape(dim, 1)
            return _apply_hamiltonian_rows(compiled, cols)[:, 0]

        if dim == 2:
            # Lanczos needs k < dim; a 2x2 problem is cheaper dense anyway.
            m = np.column_stack([matvec(col) for col in np.eye(2, dtype=dtype)])
            values = np.linalg.eigvalsh(m)[:1]
        else:
            op = scipy.sparse.linalg.LinearOperator(shape=(dim, dim), matvec=matvec, dtype=dtype)
            rng = np.random.default_rng(7)
            v0 = rng.standard_normal(dim)
            if not real:
                v0 = v0 + 1j * rng.standard_normal(dim)
            values = scipy.sparse.linalg.eigsh(
                op, k=1, which="SA", tol=0.0, v0=v0, return_eigenvectors=False
            )
        values = np.ldexp(values, exponent)
    _check_finite(values, "Lanczos")
    return float(values[0])
