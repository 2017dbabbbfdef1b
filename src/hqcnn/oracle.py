"""Exact ground-state reference values by diagonalization.

Two independent routes to the smallest eigenvalue:

* ``ground_energy`` and ``spectrum_bounds`` build the dense matrix
  (``to_dense``, a Kronecker product of monomial matrices per term) and
  call the symmetric eigensolver on its symmetry sectors. Exact up to
  LAPACK rounding, limited to ``DENSE_MAX_QUBITS``. The matrix is real for
  real symmetric H (every string has an even number of Y factors, as in
  the TFIM and molecular Jordan-Wigner Hamiltonians), so LAPACK's real
  symmetric solver runs; otherwise the complex Hermitian one.
* ``ground_energy_iterative`` never materializes the matrix: it wraps the
  compiled Hamiltonian's matrix-free product in a LinearOperator and runs
  Lanczos (shift-free, smallest-algebraic), on float64 vectors when every
  compiled weight is real and on complex ones otherwise. Agreement between
  the two routes is a strong check that the compiled flip-mask form and
  the monomial Kronecker construction, which share no code, implement the
  same operator.

Symmetry sectors: if a Pauli string S other than I commutes with every
term, H is block-diagonal in S's +1 and -1 eigenspaces, each of dimension
2**(n-1) (the Z2 symmetry behind qubit tapering; Bravyi, Gambetta,
Mezzacapo & Temme, arXiv:1701.08213). The TFIM commutes with X...X. A
string is a symplectic row (z | x) of 2n bits, and S commutes with a term
exactly when their symplectic product vanishes mod 2, so the candidates
are the null space of the terms' rows over GF(2). ``_symmetry`` takes the
first null-space basis vector, in elimination order, with an even number
of Y factors, which keeps S, and so every block of a real H, real. The
two half-size eigensolves together cost about a quarter of one full-size
one. With no such S the spectrum is one block, the full matrix. ``ground_state``
returns a full-register eigenvector and so stays on the full matrix.

``ground_energy`` takes the dense route up to ``DENSE_MAX_QUBITS`` and the
Lanczos route above it.

``spectrum_bounds`` returns the (min, max) eigenvalues of the dense
route; the dense ``ground_energy`` is its minimum.

Either route raises :class:`EigensolverError` rather than return a
non-finite or unconverged eigenvalue.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .pauli import (
    DENSE_MAX_QUBITS,
    PauliAxis,
    PauliHamiltonian,
    PauliTerm,
    _apply_hamiltonian_rows,
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


def _symmetry(h: PauliHamiltonian) -> tuple[int, int] | None:
    """(flip mask, Z mask) of a Pauli string S != I with an even number of
    Y factors that commutes with every term of h, or None.

    The masks use the basis-index bits of the compiled form: qubit q is
    bit n-1-q, X and Y factors set the flip mask, Z and Y the Z mask. A
    term is the row (z | x) and S the vector (x | z), both 2n-bit ints,
    so the parity of their AND is the symplectic product, 0 exactly when
    they commute. The rows are reduced to row echelon form over GF(2),
    and each free bit, lowest first, gives one null-space basis vector;
    the first with an even Y count is S.
    """
    n = h.n_qubits
    pivots: dict[int, int] = {}  # leading bit -> row, zero at every other leading bit
    for term in h.terms:
        x = z = 0
        for axis in term.axes:
            x = 2 * x + (axis is PauliAxis.X or axis is PauliAxis.Y)
            z = 2 * z + (axis is PauliAxis.Z or axis is PauliAxis.Y)
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


def _sector_blocks(h: PauliHamiltonian) -> list[np.ndarray]:
    """H's diagonal blocks in the +1 and -1 eigenspaces of the string S
    that ``_symmetry`` finds, or [H] without one. The blocks' spectra
    together are H's.

    S|y> = c_y |y ^ m> for flip mask m, with the real phase
    c_y = i**n_y (-1)**(Z and Y bits of y). For m = 0 the sectors are the
    basis states with c = +1 and c = -1. Otherwise, with f the highest bit
    of m and R the basis states with bit f clear, the states
    |y> +- c_y |y ^ m> for y in R span the two sectors, and since H
    commutes with S its blocks in them are H[R, R] +- H[R, R ^ m] diag(c_R).
    """
    matrix = to_dense(h)
    symmetry = _symmetry(h)
    if symmetry is None:
        return [matrix]
    flips, z_mask = symmetry
    dim = matrix.shape[0]
    index = np.arange(dim)
    parity = np.zeros_like(index)
    for bit in range(h.n_qubits):
        if z_mask >> bit & 1:
            parity ^= index >> bit
    n_y = (flips & z_mask).bit_count()  # even, so i**n_y is +1 or -1
    phase = (1.0 - 2.0 * (parity & 1)) * (-1.0 if n_y % 4 else 1.0)
    if flips == 0:
        plus = phase > 0
        return [matrix[np.ix_(keep, keep)] for keep in (plus, ~plus)]
    low = 1 << (flips.bit_length() - 1)
    high = dim // (2 * low)
    half = dim // 2
    kept = index.reshape(high, 2, low)[:, 0].reshape(half)
    rows = matrix.reshape(high, 2, low, dim)[:, 0]  # H[R, :], a view
    same = rows.reshape(high, low, high, 2, low)[:, :, :, 0].reshape(half, half)
    cross = rows.take(kept ^ flips, axis=2).reshape(half, half)
    cross *= phase[kept]
    plus = same + cross
    same -= cross
    return [plus, same]


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
