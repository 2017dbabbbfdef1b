"""Exact ground-state reference values by diagonalization.

Two independent routes to the smallest eigenvalue:

* ``ground_state`` and ``spectrum_bounds`` build the dense matrix
  (``to_dense``, a Kronecker product of monomial matrices per term) and
  call the symmetric eigensolver. Exact up to LAPACK rounding, limited to
  ``DENSE_MAX_QUBITS``. The matrix is real for real symmetric H (every
  string has an even number of Y factors, as in the TFIM and molecular
  Jordan-Wigner Hamiltonians), so LAPACK's real symmetric solver runs;
  otherwise the complex Hermitian one.
* ``ground_energy_iterative`` never materializes the matrix: it wraps the
  compiled Hamiltonian's matrix-free product in a LinearOperator and runs
  Lanczos (shift-free, smallest-algebraic), on float64 vectors when every
  compiled weight is real and on complex ones otherwise. Agreement between
  the two routes is a strong check that the compiled flip-mask form and
  the monomial Kronecker construction, which share no code, implement the
  same operator.

``ground_energy`` takes the dense route up to ``DENSE_MAX_QUBITS`` and the
Lanczos route above it.

``spectrum_bounds`` returns (min, max) eigenvalues, used to express model
errors as a fraction of the spectral range.
"""

from __future__ import annotations

import numpy as np

from .pauli import (
    DENSE_MAX_QUBITS,
    PauliHamiltonian,
    _apply_hamiltonian_rows,
    compile_hamiltonians,
    to_dense,
)
from .statevector import MAX_QUBITS, StateVector


class EigensolverError(RuntimeError):
    """Iterative eigensolver failed to converge."""


def ground_energy(h: PauliHamiltonian) -> float:
    """Smallest eigenvalue of H: dense symmetric diagonalization up to
    ``DENSE_MAX_QUBITS`` qubits, Lanczos above."""
    if h.n_qubits > DENSE_MAX_QUBITS:
        return ground_energy_iterative(h)
    return float(np.linalg.eigvalsh(to_dense(h))[0])


def ground_state(h: PauliHamiltonian) -> tuple[float, StateVector]:
    """Smallest eigenvalue and a unit-norm eigenvector for it."""
    values, vectors = np.linalg.eigh(to_dense(h))
    return float(values[0]), StateVector(h.n_qubits, vectors[:, 0])


def spectrum_bounds(h: PauliHamiltonian) -> tuple[float, float]:
    """(lowest, highest) eigenvalue of H."""
    values = np.linalg.eigvalsh(to_dense(h))
    return float(values[0]), float(values[-1])


def ground_energy_iterative(h: PauliHamiltonian, tol: float = 0.0) -> float:
    """Smallest eigenvalue via Lanczos on the matrix-free operator.

    ``tol = 0`` requests machine precision. Raises
    :class:`EigensolverError` if the iteration does not converge rather
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
    dim = 1 << h.n_qubits
    compiled = compile_hamiltonians((h,))
    # Real weights make a real symmetric operator, which eigsh solves by
    # the symmetric Lanczos instead of the complex Arnoldi route.
    real = not any(np.iscomplexobj(w) for _, w in compiled.groups)
    dtype = np.float64 if real else np.complex128

    def matvec(v: np.ndarray) -> np.ndarray:
        return _apply_hamiltonian_rows(compiled, np.asarray(v, dtype=dtype).reshape(dim, 1))[:, 0]

    op = scipy.sparse.linalg.LinearOperator(shape=(dim, dim), matvec=matvec, dtype=dtype)
    if dim == 2:
        # Lanczos needs k < dim; a 2x2 problem is cheaper dense anyway.
        m = np.column_stack([matvec(col) for col in np.eye(2, dtype=dtype)])
        return float(np.linalg.eigvalsh(m)[0])
    rng = np.random.default_rng(7)
    v0 = rng.standard_normal(dim)
    if not real:
        v0 = v0 + 1j * rng.standard_normal(dim)
    try:
        values = scipy.sparse.linalg.eigsh(
            op, k=1, which="SA", tol=tol, v0=v0, return_eigenvectors=False
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise EigensolverError(f"Lanczos did not converge: {exc}") from exc
    return float(values[0])
