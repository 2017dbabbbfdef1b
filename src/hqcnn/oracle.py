"""Exact ground-state reference values by diagonalization.

Two routes to the smallest eigenvalue, both on the compiled flip-mask
groups of :func:`hqcnn.pauli.compile_hamiltonians`:

* ``ground_energy`` and ``spectrum_bounds`` scatter the groups straight
  into the blocks of H's symmetry sectors, one block at a time. The
  symmetric eigensolver runs on each block for ``spectrum_bounds``; for
  ``ground_energy``, on the first block and on each later one that a
  Cholesky certificate (below) does not rule out. Exact up to
  LAPACK rounding, limited to ``DENSE_MAX_QUBITS``. The blocks are real
  for real symmetric H (every string has an even number of Y factors, as
  in the TFIM and molecular Jordan-Wigner Hamiltonians), so LAPACK's real
  symmetric solver runs; otherwise the complex Hermitian one.
* ``ground_energy_iterative`` never materializes the matrix: it runs a
  thick-restart Lanczos, written here in numpy, on the compiled
  Hamiltonian's matrix-free product (shift-free, smallest eigenvalue,
  ARPACK's tol = 0 stopping test), on float64 vectors when every compiled
  weight is real and on complex ones otherwise. Its memory is a basis of
  ``_NCV`` + 1 vectors and a few more. The two routes share the decoding
  of the strings, so agreement between them checks the eigensolvers and
  the sector projection; the test suite's Kronecker-product matrix is the
  independent check of the decoding, and scipy's ARPACK that of Lanczos.

Symmetry sectors: if a Pauli string S other than I commutes with every
term, H is block-diagonal in S's +1 and -1 eigenspaces, each of dimension
2**(n-1) (the Z2 symmetry behind qubit tapering; Bravyi, Gambetta,
Mezzacapo & Temme, arXiv:1701.08213). The TFIM commutes with X...X. A
string is a symplectic row (z | x) of 2n bits, and S commutes with a term
exactly when their symplectic product vanishes mod 2, so the candidates
are the null space of the terms' rows over GF(2). ``_string_symmetries``
takes the first null-space basis vector, in elimination order, with an
even number of Y factors, which keeps S, and so every block of a real H,
real, and caches it per list of string masks. The open chain's mirror
symmetry, the qubit reversal R: q -> n-1-q, splits H further where it
commutes with H (the terms, duplicates summed, map onto themselves with
equal coefficients) and with S (reversing S gives S), as exact
diagonalization splits by lattice symmetries (Sandvik, arXiv:1101.3281).
The blocks are then those of the joint sectors of S
and R, one per character of the group G they generate: at n = 10 the
TFIM solves blocks of 272, 256, 240 and 256 rows instead of two of 512,
and at n = 12 blocks of 1056, 1024, 992 and 1024 instead of two of 2048,
about a sixteenth of the work of one full-size eigensolve. ``_sectors``
builds each sector's index tables from G alone and caches them; with no
symmetry G is {I} and its one block is H, by the same code. Each block
is ``pauli._scatter`` of the compiled groups with the sector's tables,
the writer that also builds ``to_dense``, scaled by row once, so no row
of H wider than a block is built. ``ground_state``
returns a full-register eigenvector and so stays on the full matrix
(``to_dense``).

``ground_energy`` takes the dense route up to ``DENSE_MAX_QUBITS`` and the
Lanczos route above it.

``spectrum_bounds`` returns the (min, max) eigenvalues of the dense
route; the dense ``ground_energy`` is its minimum, bit for bit.

Cholesky certificates: one ``eigvalsh`` per block would keep the whole
spectrum of every block and use only its lowest value. So
``ground_energy`` solves only the first block outright. A later block B
is skipped if ``np.linalg.cholesky`` factors B - (lowest + margin) I,
with the lowest eigenvalue found so far. A completed factorization shows
the shifted matrix positive definite up to its backward error
(Sylvester's law of inertia; Higham, *Accuracy and Stability of
Numerical Algorithms*, 2002, section 10.1), so B has no eigenvalue below
the lowest found. The margin, 8 (m + 1)**2 u sum|c_i| for an m-row block
(u the unit roundoff; sum|c_i| bounds the norm of B), covers that
backward error, the rounding of the shift and ``eigvalsh``'s own error
(see ``_certified``). Hence the value ``eigvalsh`` would have returned
for a skipped block lies strictly above the result, and the result is
bit for bit that of solving every block. A failed factorization, the one
``LinAlgError`` caught, sends B to the eigensolver. At n = 10 the TFIM's
first block, 272 rows, holds the ground state and the other three are
certified, each factorization about a quarter of the cost of an
eigensolve.

Either route raises :class:`EigensolverError` rather than return a
non-finite or unconverged eigenvalue.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .pauli import (
    DENSE_MAX_QUBITS,
    PauliHamiltonian,
    PauliTerm,
    _apply_hamiltonian_rows,
    _scatter,
    _string_masks,
    _string_signs,
    compile_hamiltonians,
    to_dense,
)
from .statevector import MAX_QUBITS, StateVector


class EigensolverError(RuntimeError):
    """An eigensolver failed: LAPACK raised, a block or the Lanczos
    products overflowed, Lanczos did not converge within its restart cap,
    or an eigenvalue came out non-finite."""


@contextmanager
def _solver_errors(route: str):
    """Turn a LAPACK or floating-point failure inside ``route`` into an
    :class:`EigensolverError`; overflow and invalid values raise."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise EigensolverError(f"{route} failed: {exc}") from exc


def _check_finite(values: np.ndarray, route: str) -> None:
    if not np.isfinite(values).all():
        raise EigensolverError(f"{route} returned a non-finite eigenvalue: {values.tolist()}")


@lru_cache(maxsize=256)
def _string_symmetries(n: int, masks: tuple[tuple[int, int, int], ...]):
    """The (flip mask, Z mask) of a Pauli string S != I with an even
    number of Y factors that commutes with every one of the terms'
    strings, given by their ``masks``, or None; cached per mask list.

    The masks are the compiled form's (``_string_masks``): qubit q is
    bit n-1-q, X and Y factors set the flip mask, Z and Y the Z mask. A
    term is the row (z | x) and S the vector (x | z), both 2n-bit ints,
    so the parity of their AND is the symplectic product, 0 exactly when
    they commute. The rows are reduced to row echelon form over GF(2),
    and each free bit, lowest first, gives one null-space basis vector;
    the first with an even Y count is S.
    """
    pivots: dict[int, int] = {}  # leading bit -> row, zero at every other leading bit
    for x, z, _ in masks:
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
            return flips, z_mask
    return None


def _symmetries(h: PauliHamiltonian) -> tuple[tuple[int, int] | None, bool]:
    """(S or None, whether the qubit reversal R commutes with H and S).

    R P R is P's axis string reversed, so R commutes with H exactly when
    the coefficient table, duplicates summed, maps onto itself with equal
    floats under reversal; it cannot where n < 2 or reversing S does not
    give S. The table is keyed by each string's masks, which reversal
    maps like basis indices.
    """
    n = h.n_qubits
    masks = _string_masks(tuple(term.axes for term in h.terms))
    symmetry = _string_symmetries(n, masks)
    reverse = _reversal(n)
    if n < 2 or symmetry is not None and any(reverse[m] != m for m in symmetry):
        return symmetry, False
    table: dict[tuple[int, int], float] = {}
    for term, (x, z, _) in zip(h.terms, masks):
        table[x, z] = table.get((x, z), 0.0) + term.coefficient
    pairs = table.items()
    return symmetry, all(table.get((reverse[x], reverse[z]), 0.0) == c for (x, z), c in pairs)


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
        n_y = (flips & z_mask).bit_count()  # even, so the phase is real
        generators.append((index ^ flips, _string_signs(index, z_mask, n_y)))
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


def _sector_blocks(h: PauliHamiltonian) -> Iterator[np.ndarray]:
    """H's diagonal blocks in the joint eigenspaces of S and of the qubit
    reversal R, as far as ``_symmetries`` finds them; with neither, the
    one block is H. The blocks' spectra together are H's, and each block
    has H's dtype. Blocks are made one at a time, as they are consumed.

    Since H commutes with G, B[k, l] = <u_k|H|u_l> is
    sqrt(|G| / T(r_k)) <r_k|H|u_l> = sqrt(|G| / T(r_k)) sum_m w_m[r_k]
    u_l[r_k ^ m], over the compiled groups' flip masks m and weights w_m:
    ``pauli._scatter`` of the groups with the sector's tables, then one
    row scale.
    """
    if h.n_qubits > DENSE_MAX_QUBITS:
        raise ValueError(f"dense route limited to {DENSE_MAX_QUBITS} qubits, got {h.n_qubits}")
    compiled = compile_hamiltonians((h,))
    for reps, scale, pos, amp in _sectors(h.n_qubits, *_symmetries(h)):
        block = _scatter(compiled, 0, reps, pos, amp)
        block *= scale[:, None]
        yield block


def ground_energy(h: PauliHamiltonian) -> float:
    """Smallest eigenvalue of H: dense symmetric diagonalization by symmetry
    sector up to ``DENSE_MAX_QUBITS`` qubits, Lanczos above.

    The dense route runs ``eigvalsh`` on the first block, and on each later
    one unless ``_certified`` shows that it holds no eigenvalue below the
    lowest found so far. A block so skipped would not have moved the
    result, so it is that of all the blocks bit for bit."""
    if h.n_qubits > DENSE_MAX_QUBITS:
        return ground_energy_iterative(h)
    total = sum(abs(term.coefficient) for term in h.terms)
    # Both ends of each solved block: a block whose top end overflows is
    # refused too, and no certificate is tried past it.
    ends: list[tuple[float, float]] = []
    with _solver_errors("dense diagonalization"):
        for block in _sector_blocks(h):
            if ends and _certified(block, total, ends):
                continue
            values = np.linalg.eigvalsh(block)
            ends.append((float(values[0]), float(values[-1])))
    found = np.array(ends)
    _check_finite(found, "dense diagonalization")
    return float(found[:, 0].min())


def ground_state(h: PauliHamiltonian) -> tuple[float, StateVector]:
    """Smallest eigenvalue and a unit-norm eigenvector for it, from the full
    matrix."""
    with _solver_errors("dense diagonalization"):
        values, vectors = np.linalg.eigh(to_dense(h))
    _check_finite(values[:1], "dense diagonalization")
    return float(values[0]), StateVector(h.n_qubits, vectors[:, 0])


def spectrum_bounds(h: PauliHamiltonian) -> tuple[float, float]:
    """(lowest, highest) eigenvalue of H, by ``eigvalsh`` on each of its
    symmetry blocks."""
    with _solver_errors("dense diagonalization"):
        ends = np.array([(v[0], v[-1]) for v in map(np.linalg.eigvalsh, _sector_blocks(h))])
    _check_finite(ends, "dense diagonalization")
    return float(ends[:, 0].min()), float(ends[:, 1].max())


def _certified(block: np.ndarray, total: float, ends) -> bool:
    """Whether B - (lowest + margin) I has a Cholesky factor, for the block
    B, H's coefficients' absolute sum ``total`` and the (lowest, highest)
    pairs ``ends`` of the blocks solved so far.

    If so, every eigenvalue that ``eigvalsh`` would return for B lies
    strictly above the lowest. The m-row block's margin,
    8 (m + 1)**2 u total with u the unit roundoff, covers the sum of these
    errors, as ||B||_2 <= total and the shift is at most total plus the
    margin:

    * Cholesky's backward error. A factor L that LAPACK completes is
      exact for A + dA with |dA| <= gamma_(m+1) |L| |L^H| (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2002, Thm 10.3),
      so ||dA||_2 <= m gamma_(m+1) ||A||_2 / (1 - m gamma_(m+1)), about
      2 m (m + 1) u total. A + dA = L L^H is positive definite, so no
      eigenvalue of B lies below the shift by ||dA||_2 or more.
    * The rounding of the shift and of the shifted diagonal, about
      3 u total.
    * ``eigvalsh``'s own error, p(m) u ||B||_2 with p a modestly growing
      function of m (LAPACK Users' Guide, 3rd ed., section 4.7), taken as
      4 m**2.

    Nothing is certified where the shifted block could overflow (the
    sum or an end not finite, or near the float range's end), nor where
    the margin is below the normal range, as for H = 0. The test reads
    B itself, as ``eigvalsh`` does its lower triangle: the diagonal is
    shifted in place, then restored exactly, so a test adds only the
    factor to memory.
    """
    margin = 8.0 * (len(block) + 1) ** 2 * _EPS * total
    reach = 2.0 * (total + sum(abs(end) for pair in ends for end in pair))
    if not (math.isfinite(reach) and margin >= sys.float_info.min):
        return False
    diagonal = np.einsum("ii->i", block)  # a writable view of B's diagonal
    saved = diagonal.copy()
    diagonal -= min(lo for lo, _ in ends) + margin
    try:
        np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return False
    finally:
        diagonal[:] = saved
    return True


def ground_energy_iterative(h: PauliHamiltonian) -> float:
    """Smallest eigenvalue by thick-restart Lanczos on the matrix-free
    operator, to machine precision (ARPACK's tol = 0 test). Raises
    :class:`EigensolverError` if the coefficients' absolute sum overflows,
    the iteration does not converge within ``_MAX_RESTARTS`` restarts or
    the eigenvalue is not finite, rather than returning a silently
    inaccurate value. Registers above ``MAX_QUBITS`` are refused: their
    state vectors alone would need gigabytes.
    """
    if h.n_qubits > MAX_QUBITS:
        raise ValueError(f"Lanczos limited to {MAX_QUBITS} qubits, got {h.n_qubits}")
    # The coefficients' absolute sum bounds |H v| for a unit v; past the
    # float range the products would overflow.
    bound = sum(abs(term.coefficient) for term in h.terms)
    if not np.isfinite(bound):
        raise EigensolverError("Lanczos needs a finite sum of |coefficients|")
    # Lanczos runs on H / 2**e, 2**(e-1) <= bound < 2**e, so that its sums
    # stay in range near the ends of the float range; a power of two scales
    # every coefficient, product and sum exactly, barring underflow.
    exponent = math.frexp(bound)[1]
    scaled = tuple(PauliTerm(math.ldexp(t.coefficient, -exponent), t.axes) for t in h.terms)
    dim = 1 << h.n_qubits
    with _solver_errors("Lanczos"):
        compiled = compile_hamiltonians((PauliHamiltonian(h.n_qubits, scaled),))
        # Real weights make a real symmetric operator, which real vectors
        # span; otherwise the basis is complex.
        rng = np.random.default_rng(7)
        v0 = rng.standard_normal(dim)
        if compiled.dtype.kind == "c":
            v0 = v0 + 1j * rng.standard_normal(dim)

        def matvec(v: np.ndarray) -> np.ndarray:
            return _apply_hamiltonian_rows(compiled, v.reshape(dim, 1)).reshape(dim)

        value = np.ldexp(_lanczos(matvec, v0), exponent)
    _check_finite(value, "Lanczos")
    return float(value)


# The Lanczos basis size (ARPACK's default NCV for one eigenvalue), the
# Ritz vectors each thick restart keeps, the restarts before giving up,
# and the most entries of a restart's rotation at a time (512 KiB of
# float64: 6553 columns of the kept vectors).
_NCV = 20
_KEEP = 10
_MAX_RESTARTS = 1000
_ROTATION_ENTRIES = 1 << 16
_EPS = 2.0**-53  # unit roundoff: LAPACK's dlamch('E'), ARPACK's tol = 0


def _lanczos(matvec, v0: np.ndarray) -> np.float64:
    """Smallest eigenvalue of the Hermitian operator ``matvec`` by
    thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22,
    2000) from ``v0``, in ``v0``'s dtype.

    The basis holds ``_NCV`` orthonormal vectors and the residual's
    direction. Each new vector is orthogonalized against the whole basis
    by classical Gram-Schmidt, repeated once where the first pass loses
    more than 30% of the norm (Daniel, Gragg, Kaufman & Stewart). The
    projection T is real: the alphas and betas, and after a restart the
    kept Ritz values and their couplings to the residual. When the basis
    is full, the lowest Ritz value theta has converged by ARPACK's tol = 0
    test, beta |y_last| <= eps max(eps^(2/3), |theta|); otherwise the
    ``_KEEP`` lowest Ritz vectors and the residual start the next cycle.
    A Krylov breakdown, a residual at rounding level or a basis that spans
    the space, makes T's lowest eigenvalue exact.

    Memory: the basis (``_NCV`` + 1 vectors), one spare vector, the
    product and its temporaries; the restart rotates the kept vectors a
    bounded slice of columns at a time.
    """
    dim = v0.size
    basis = np.empty((_NCV + 1, dim), dtype=v0.dtype)
    spare = np.empty(dim, dtype=v0.dtype)
    t = np.zeros((_NCV, _NCV))
    np.divide(v0, np.linalg.norm(v0), out=basis[0])
    start = 0
    for _restart in range(_MAX_RESTARTS + 1):
        for j in range(start, _NCV):
            w = matvec(basis[j])
            beta = norm = np.linalg.norm(w)
            for _pass in range(2):
                # <v_i|w> for each basis vector; w.conj() is w itself if real.
                overlaps = (basis[: j + 1] @ w.conj()).conj()
                w -= np.matmul(overlaps, basis[: j + 1], out=spare)
                t[j, j] += overlaps[j].real
                previous, beta = beta, np.linalg.norm(w)
                if beta > 0.717 * previous:
                    break
            if j + 1 == dim or beta <= _NCV * _EPS * norm:
                return np.linalg.eigvalsh(t[: j + 1, : j + 1])[0]
            if j + 1 < _NCV:
                t[j, j + 1] = t[j + 1, j] = beta
            np.divide(w, beta, out=basis[j + 1])
        theta, y = np.linalg.eigh(t)
        if beta * abs(y[-1, 0]) <= _EPS * max(_EPS ** (2 / 3), abs(theta[0])):
            return theta[0]
        step = _ROTATION_ENTRIES // _KEEP  # columns per rotation
        for lo in range(0, dim, step):
            basis[:_KEEP, lo : lo + step] = y[:, :_KEEP].T @ basis[:_NCV, lo : lo + step]
        basis[_KEEP] = basis[_NCV]
        t = np.zeros((_NCV, _NCV))
        t[:_KEEP, :_KEEP] = np.diag(theta[:_KEEP])
        t[_KEEP, :_KEEP] = t[:_KEEP, _KEEP] = beta * y[-1, :_KEEP]
        start = _KEEP
    raise EigensolverError(f"Lanczos did not converge after {_MAX_RESTARTS} restart(s)")
