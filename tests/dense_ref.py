"""Independent dense-matrix reference implementations for the tests.

Everything here builds full 2^n x 2^n operators with Kronecker products and
applies them by matrix multiplication, deliberately avoiding the package's
bit-stride kernels, so agreement between the two routes is meaningful.
Qubit 0 is the leftmost Kronecker factor (most significant index bit).
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)

AXIS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def kron_all(ops) -> np.ndarray:
    return reduce(np.kron, ops)


def lift(gate: np.ndarray, q: int, n: int) -> np.ndarray:
    """Embed a one-qubit gate at position q of an n-qubit register."""
    ops = [I2] * n
    ops[q] = gate
    return kron_all(ops)


def cnot(control: int, target: int, n: int) -> np.ndarray:
    a = [I2] * n
    a[control] = P0
    b = [I2] * n
    b[control] = P1
    b[target] = X
    return kron_all(a) + kron_all(b)


def zero(n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=np.complex128)
    v[0] = 1.0
    return v


def pauli_matrix(axes: str) -> np.ndarray:
    return kron_all([AXIS[c] for c in axes])


def hamiltonian_matrix(terms, n: int) -> np.ndarray:
    """terms: iterable of (coefficient, axis string)."""
    m = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for coeff, axes in terms:
        assert len(axes) == n
        m += coeff * pauli_matrix(axes)
    return m


def tfim_ground_energy(n: int, field: float) -> float:
    """Ground energy of the open-chain TFIM -sum Z_i Z_{i+1} - field sum X_i
    by free fermions: minus the sum of the singular values of the
    bidiagonal matrix with the field on the diagonal and the unit coupling
    above it. Needs no 2^n matrix, so it also checks large registers."""
    coupling = np.diag(np.full(n, field)) + np.diag(np.ones(n - 1), 1)
    return -float(np.linalg.svd(coupling, compute_uv=False).sum())


def expect_z(psi: np.ndarray, q: int, n: int) -> float:
    return float((psi.conj() @ lift(Z, q, n) @ psi).real)


# ---------------------------------------------------------------------------
# network reference, by unitary composition
# ---------------------------------------------------------------------------


def ladder(n: int) -> list[tuple[int, int]]:
    return [(c, c + 1) for c in range(0, n - 1, 2)] + [
        (c, c + 1) for c in range(1, n - 1, 2)
    ]


def encode(n: int, angles) -> np.ndarray:
    """Ry(angle) H per qubit applied to |0...0>, as one Kronecker product."""
    return kron_all([ry(angles[q]) @ H for q in range(n)]) @ zero(n)


@lru_cache(maxsize=None)
def ladder_matrix(n: int) -> np.ndarray:
    """One CNOT ladder as a dense unitary, the product of its CNOT
    matrices (cached)."""
    u = np.eye(1 << n, dtype=np.complex128)
    for c, t in ladder(n):
        u = cnot(c, t, n) @ u
    return u


def apply_pqc(n: int, n_layers: int, thetas, psi: np.ndarray) -> np.ndarray:
    """The trainable block applied to psi, one dense layer at a time: the
    ladder's unitary, then the Kronecker product of the layer's Ry's. A
    layer is two matrix-vector products, so registers up to 9 qubits stay
    cheap."""
    for j in range(n_layers):
        layer = kron_all([ry(thetas[i + n * j]) for i in range(n)])
        psi = layer @ (ladder_matrix(n) @ psi)
    return psi


def forward(n: int, with_measurements: bool, a: float, params) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    assert params.size == 2 * n * n
    if not with_measurements:
        return apply_pqc(n, 2 * n, params, encode(n, [a] * n))
    psi = apply_pqc(n, n, params[: n * n], encode(n, [a] * n))
    b = [expect_z(psi, q, n) for q in range(n)]
    return apply_pqc(n, n, params[n * n :], encode(n, [np.pi * v for v in b]))


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def random_terms(rng: np.random.Generator, n: int, n_terms: int):
    """(coefficient, axis string) pairs with at least one non-identity term."""
    terms = []
    for _ in range(n_terms):
        axes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        terms.append((float(rng.normal()), axes))
    if all(set(a) == {"I"} for _, a in terms):
        terms[0] = (terms[0][0], "Z" + "I" * (n - 1))
    return terms
