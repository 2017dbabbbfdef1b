import numpy as np
import pytest

import dense_ref as ref
from hqcnn import oracle
from hqcnn.cli import transverse_field_ising
from hqcnn.oracle import (
    ground_energy,
    ground_energy_iterative,
    ground_state,
    spectrum_bounds,
)
from hqcnn.pauli import PauliHamiltonian, PauliTerm, expectation, to_dense


def _ham(terms, n):
    return PauliHamiltonian(n, tuple(PauliTerm.from_string(c, a) for c, a in terms))


def test_known_two_qubit_values():
    # -ZZ - XI - IX has ground energy -sqrt(5)
    h = _ham([(-1.0, "ZZ"), (-1.0, "XI"), (-1.0, "IX")], 2)
    assert ground_energy(h) == pytest.approx(-np.sqrt(5.0), abs=1e-12)


def test_identity_spectrum():
    h = _ham([(2.5, "II")], 2)
    assert ground_energy(h) == pytest.approx(2.5, abs=1e-12)
    assert spectrum_bounds(h) == pytest.approx((2.5, 2.5), abs=1e-12)


def test_ground_state_satisfies_eigen_equation(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        terms = ref.random_terms(rng, n, 6)
        h = _ham(terms, n)
        energy, psi = ground_state(h)
        m = ref.hamiltonian_matrix(terms, n)
        assert np.linalg.norm(m @ psi.amplitudes - energy * psi.amplitudes) < 1e-9
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_rayleigh_consistency(rng):
    for _ in range(10):
        terms = ref.random_terms(rng, 3, 8)
        h = _ham(terms, 3)
        energy, psi = ground_state(h)
        assert expectation(h, psi) == pytest.approx(energy, abs=1e-9)


def test_iterative_agrees_with_dense(rng):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        terms = ref.random_terms(rng, n, int(rng.integers(2, 9)))
        h = _ham(terms, n)
        assert ground_energy_iterative(h) == pytest.approx(
            ground_energy(h), abs=1e-10
        )


def test_iterative_single_qubit():
    h = _ham([(1.0, "X"), (0.5, "Z")], 1)
    want = -np.sqrt(1.0 + 0.25)
    assert ground_energy_iterative(h) == pytest.approx(want, abs=1e-12)


def test_spectrum_bounds_match_dense(rng):
    for _ in range(8):
        terms = ref.random_terms(rng, 3, 6)
        h = _ham(terms, 3)
        lam = np.linalg.eigvalsh(ref.hamiltonian_matrix(terms, 3))
        lo, hi = spectrum_bounds(h)
        assert lo == pytest.approx(float(lam[0]), abs=1e-10)
        assert hi == pytest.approx(float(lam[-1]), abs=1e-10)


def test_variational_bound_against_random_states(rng):
    terms = ref.random_terms(rng, 3, 7)
    h = _ham(terms, 3)
    lo, hi = spectrum_bounds(h)
    from hqcnn.statevector import StateVector

    for _ in range(20):
        psi = StateVector(3, ref.random_state(rng, 3))
        value = expectation(h, psi)
        assert lo - 1e-9 <= value <= hi + 1e-9


def test_ten_qubit_tfim_matches_free_fermions():
    # The dense route at the benchmark's size, on a real matrix.
    h = transverse_field_ising(10, 0.7)
    assert to_dense(h).dtype == np.float64
    assert ground_energy(h) == pytest.approx(ref.tfim_ground_energy(10, 0.7), abs=1e-9)


def _lanczos_dtypes(h, monkeypatch):
    """Row dtypes the Lanczos matvec saw, and the energy it found."""
    dtypes = set()
    apply_rows = oracle._apply_hamiltonian_rows

    def spy(compiled, rows):
        dtypes.add(rows.dtype)
        return apply_rows(compiled, rows)

    monkeypatch.setattr(oracle, "_apply_hamiltonian_rows", spy)
    return dtypes, ground_energy_iterative(h)


def test_real_hamiltonian_runs_real_lanczos(monkeypatch):
    h = transverse_field_ising(4, 1.1)
    dtypes, energy = _lanczos_dtypes(h, monkeypatch)
    assert dtypes == {np.dtype(np.float64)}
    assert energy == pytest.approx(ref.tfim_ground_energy(4, 1.1), abs=1e-10)


def test_odd_y_hamiltonian_stays_complex(monkeypatch):
    terms = [(-1.0, "ZZI"), (-0.8, "IZZ"), (0.6, "YXI"), (-0.4, "IZY"), (0.3, "XYY")]
    h = _ham(terms, 3)
    assert to_dense(h).dtype == np.complex128
    dtypes, energy = _lanczos_dtypes(h, monkeypatch)
    assert dtypes == {np.dtype(np.complex128)}
    assert energy == pytest.approx(ground_energy(h), abs=1e-10)
