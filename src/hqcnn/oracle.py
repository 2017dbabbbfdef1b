"""Exact ground-state reference values by diagonalization.

Two routes to the smallest eigenvalue, both on the compiled flip-mask
groups of :func:`hqcnn.pauli.compile_hamiltonians`:

* ``ground_energy`` and ``spectrum_bounds`` scatter the groups straight
  into the blocks of H's symmetry sectors, one block at a time, and call
  the symmetric eigensolver on each. Exact up to LAPACK rounding,
  limited to ``DENSE_MAX_QUBITS``. The blocks are real for real symmetric
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
arXiv:1101.3281). The blocks are then those of the joint sectors of S
and R, one per character of the group G they generate: at n = 10 the
TFIM solves blocks of 272, 256, 240 and 256 rows instead of two of 512,
and at n = 12 blocks of 1056, 1024, 992 and 1024 instead of two of 2048,
about a sixteenth of the work of one full-size eigensolve. ``_sectors``
builds each sector's index tables from G alone and caches them; with no
symmetry G is {I} and its one block is H, by the same code. Per
Hamiltonian, each block is scattered from the groups at the sector's
representatives, a bounded slice of the groups at a time, and scaled by
row once, so no row of H wider than a block is built. ``ground_state``
returns a full-register eigenvector and so stays on the full matrix
(``to_dense``).

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
from functools import lru_cache

import numpy as np

from .pauli import (
    DENSE_MAX_QUBITS,
    PauliAxis,
    PauliHamiltonian,
    PauliTerm,
    _apply_hamiltonian_rows,
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


@lru_cache(maxsize=64)
def _sectors(n: int, symmetry: tuple[int, int] | None, mirror: bool):
    """Read-only tables (reps, scale, pos, amp) of each sector of the group
    G generated by S (if ``symmetry``) and the qubit reversal R (if
    ``mirror``), one per character chi of G that keeps any state. They
    depend on no coefficient, so each register size and symmetry builds
    them once. With neither, G = {I}: one sector, each index its own r.

    Every g in G is a signed permutation of basis states, g|y> = s_g(y)
    |g(y)>, with s_g real: S has an even number of Y factors and R only
    permutes. For an orbit representative r (the smallest index of its
    orbit), w = sum_g chi(g) g|r> spans the sector's share of the orbit,
    and |w|^2 = |G| T(r) with T(r) the sum of chi(g) s_g(r) over the g
    that fix r: |stab(r)|, or 0, and then r is dropped from the sector.
    ``reps`` are the kept r and ``scale`` their factors sqrt(|G| / T(r)).
    For each basis index c, ``pos[c]`` is the position in ``reps`` of c's
    representative r, and ``amp[c]`` is c's amplitude in the normalized
    u = w / sqrt(|G| T(r)), taken as w[c] sqrt(|G| / T(r)) / |G|, zero on
    the orbits that the sector drops.
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
    size = len(elements)
    orbit = np.min([p for p, _ in elements], axis=0)  # each index's representative
    reps = np.flatnonzero(orbit == index)
    sectors = []
    for c in range(size):
        w = np.zeros(dim)  # sum over r of the unnormalized w at every index
        for b, (perm, sign) in enumerate(elements):
            np.add.at(w, perm[reps], (-1.0) ** (b & c).bit_count() * sign[reps])
        keep = w[reps] > 0.5  # w[r] = T(r)
        if keep.any():
            kept = reps[keep]
            scale = np.sqrt(size / w[kept])
            pos = np.zeros(dim, dtype=np.intp)
            pos[kept] = np.arange(kept.size)
            factor = np.zeros(dim)
            factor[kept] = scale / size
            sectors.append(tuple(map(_frozen, (kept, scale, pos[orbit], w * factor[orbit]))))
    return tuple(sectors)


# Most entries in one (groups, rows) array of a block's scatter, 512 KiB of
# float64; the TFIM's n + 1 groups fit one slice up to the 12-qubit cap.
_SCATTER_ENTRIES = 1 << 16


def _sector_blocks(h: PauliHamiltonian) -> Iterator[np.ndarray]:
    """H's diagonal blocks in the joint eigenspaces of S and of the qubit
    reversal R, as far as ``_symmetries`` finds them; with neither, the
    one block is H. The blocks' spectra together are H's, and each block
    has H's dtype. Blocks are made one at a time, as they are consumed.

    Since H commutes with G, B[k, l] = <u_k|H|u_l> is
    sqrt(|G| / T(r_k)) <r_k|H|u_l> = sqrt(|G| / T(r_k)) sum_m w_m[r_k]
    u_l[r_k ^ m], over the compiled groups' flip masks m and weights w_m:
    a scatter of the groups at the representatives, then one row scale.
    The scatter's (groups, rows) arrays take the groups a slice at a time,
    at most ``_SCATTER_ENTRIES`` entries each, so that however many flip
    masks H has, the scatter adds no more than a few such slices.
    """
    if h.n_qubits > DENSE_MAX_QUBITS:
        raise ValueError(f"dense route limited to {DENSE_MAX_QUBITS} qubits, got {h.n_qubits}")
    groups = compile_hamiltonians((h,)).groups
    # A group's flip index at 0 is its mask; the diagonal group has mask 0.
    masks = np.array([0 if flip is None else flip[0] for flip, _ in groups], dtype=np.intp)
    weights = [w.ravel() for _, w in groups]
    dtype = np.result_type(np.float64, *weights)
    for reps, scale, pos, amp in _sectors(h.n_qubits, *_symmetries(h)):
        rows = np.arange(reps.size)
        block = np.zeros((reps.size, reps.size), dtype=dtype)
        step = max(1, _SCATTER_ENTRIES // reps.size)  # groups per scatter
        for lo in range(0, len(groups), step):
            cols = reps ^ masks[lo : lo + step, None]  # r_k ^ m, indexed [group, k]
            at = np.array([w[reps] for w in weights[lo : lo + step]], dtype=dtype)
            at *= amp[cols]
            np.add.at(block, (rows, pos[cols]), at)
        block *= scale[:, None]
        yield block


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
