import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_ref as ref
from hqcnn import oracle
from hqcnn.cli import transverse_field_ising
from hqcnn.oracle import (
    EigensolverError,
    ground_energy,
    ground_energy_iterative,
    ground_state,
    spectrum_bounds,
)
from hqcnn.pauli import (
    PauliHamiltonian,
    PauliTerm,
    _scatter,
    compile_hamiltonians,
    expectation,
    to_dense,
)


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


def _matvecs(monkeypatch):
    """A list that gains the rows' dtype of each Lanczos product from now."""
    calls = []
    apply_rows = oracle._apply_hamiltonian_rows

    def spy(compiled, rows):
        calls.append(rows.dtype)
        return apply_rows(compiled, rows)

    monkeypatch.setattr(oracle, "_apply_hamiltonian_rows", spy)
    return calls


def _lanczos_dtypes(h, monkeypatch):
    """Row dtypes the Lanczos matvec saw, and the energy it found."""
    calls = _matvecs(monkeypatch)
    energy = ground_energy_iterative(h)
    return set(calls), energy


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


# ---------------------------------------------------------------------------
# symmetry sectors of the dense route
# ---------------------------------------------------------------------------


def _masks(axes: str) -> tuple[int, int]:
    """(flip mask, Z mask) of an axis string, qubit 0 as the top bit."""
    flips = z = 0
    for a in axes:
        flips = 2 * flips + (a in "XY")
        z = 2 * z + (a in "ZY")
    return flips, z


def _axes(flips: int, z: int, n: int) -> str:
    bits = [(flips >> (n - 1 - q) & 1, z >> (n - 1 - q) & 1) for q in range(n)]
    return "".join("IZXY"[x * 2 + b] for x, b in bits)


def _reversal(n: int) -> np.ndarray:
    """The qubit reversal q -> n-1-q as a permutation matrix."""
    targets = [int(format(y, f"0{n}b")[::-1], 2) for y in range(1 << n)]
    return np.eye(1 << n)[targets]


def _check_sectors(terms, n):
    """S commutes with every term and R with H; the blocks are non-empty,
    keep H's dtype, sum to 2**n rows and together hold H's spectrum; and
    ground_energy and spectrum_bounds match the full matrix. H is the
    reference's Kronecker matrix, since to_dense and the blocks are built
    from the same compiled groups."""
    h = _ham(terms, n)
    dense = ref.hamiltonian_matrix(terms, n)
    full = np.linalg.eigvalsh(dense)
    tol = 1e-10 * max(1.0, sum(abs(c) for c, _ in terms))
    symmetry, mirror = oracle._symmetries(h)
    blocks = list(oracle._sector_blocks(h))
    if symmetry is not None:
        flips, z = symmetry
        assert (flips, z) != (0, 0)
        assert (flips & z).bit_count() % 2 == 0
        for _, axes in terms:
            tf, tz = _masks(axes)
            assert ((tz & flips) ^ (tf & z)).bit_count() % 2 == 0
        s = ref.hamiltonian_matrix([(1.0, _axes(flips, z, n))], n)
        assert np.allclose(s @ dense, dense @ s, rtol=0.0, atol=tol)
    if mirror:
        assert n >= 2
        r = _reversal(n)
        assert np.allclose(r @ dense, dense @ r, rtol=0.0, atol=tol)
        if symmetry is not None:
            assert _axes(*symmetry, n) == _axes(*symmetry, n)[::-1]
    if symmetry is None and not mirror:
        assert len(blocks) == 1
    assert sum(len(b) for b in blocks) == 1 << n
    for block in blocks:
        assert block.shape[0] == block.shape[1] > 0
        assert block.dtype == to_dense(h).dtype
    spectra = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    np.testing.assert_allclose(spectra, full, rtol=0.0, atol=tol)
    assert ground_energy(h) == pytest.approx(float(full[0]), abs=tol)
    lo, hi = spectrum_bounds(h)
    assert lo == pytest.approx(float(full[0]), abs=tol)
    assert hi == pytest.approx(float(full[-1]), abs=tol)
    return symmetry, mirror, blocks


@st.composite
def _term_sets(draw):
    """1 to 8 terms on 1 to 6 qubits. An even set has an even number of Y
    factors in every string (a real H); an odd set has at least one string
    with an odd number (a complex H). A mirrored set adds each string's
    reversal with the same coefficient, a multiple of 1/4, so that sums of
    duplicates are exact; it is mirror-symmetric and says so."""
    n = draw(st.integers(1, 6))
    even = draw(st.booleans())
    mirrored = draw(st.booleans())
    strings = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    if mirrored:
        coefficients = st.integers(-8, 8).map(lambda k: k / 4)
    else:
        coefficients = st.floats(-2.0, 2.0, allow_nan=False)
    terms = draw(st.lists(st.tuples(coefficients, strings), min_size=1, max_size=8))
    if even:
        # Turning the first Y of an odd string into an X makes its count even.
        terms = [
            (c, a.replace("Y", "X", 1) if a.count("Y") % 2 else a) for c, a in terms
        ]
    elif not any(a.count("Y") % 2 for _, a in terms):
        c, a = terms[0]
        terms[0] = (c, "Y" + a[1:] if a[0] != "Y" else "X" + a[1:])
    if mirrored:
        terms += [(c, a[::-1]) for c, a in terms]
    return terms, n, mirrored


@settings(max_examples=200, deadline=None)
@given(_term_sets())
def test_sectors_hold_the_spectrum(case):
    terms, n, mirrored = case
    symmetry, mirror, _ = _check_sectors(terms, n)
    if mirrored:
        # R is used exactly where it is a symmetry of H and of S.
        fixed = symmetry is None or _axes(*symmetry, n) == _axes(*symmetry, n)[::-1]
        assert mirror == (n >= 2 and fixed)


def test_tfim_sectors_split_by_x_string():
    terms = [(t.coefficient, t.axis_string) for t in transverse_field_ising(5, 0.9).terms]
    symmetry, mirror, blocks = _check_sectors(terms, 5)
    assert symmetry == _masks("XXXXX") and mirror
    assert [len(b) for b in blocks] == [10, 10, 6, 6]


def test_all_z_hamiltonian_splits_by_diagonal_string():
    terms = [(-1.0, "ZZI"), (0.4, "IZZ"), (0.7, "ZII"), (0.2, "ZIZ")]
    symmetry, mirror, blocks = _check_sectors(terms, 3)
    flips, z = symmetry
    assert flips == 0 and z != 0 and not mirror
    assert all(np.count_nonzero(b - np.diag(np.diag(b))) == 0 for b in blocks)


def test_mirror_splits_the_sectors_of_a_diagonal_string():
    # The X-coupled chain in a Z field commutes with Z...Z and with R.
    n = 4
    terms = [(-1.0, "XXII"), (-1.0, "IXXI"), (-1.0, "IIXX")]
    terms += [(-0.7, "I" * q + "Z" + "I" * (n - 1 - q)) for q in range(n)]
    symmetry, mirror, blocks = _check_sectors(terms, n)
    assert symmetry == _masks("ZZZZ") and mirror
    assert [len(b) for b in blocks] == [6, 4, 2, 4]


def test_mirror_without_a_symmetry_on_a_complex_matrix():
    terms = [(1.0, "XY"), (1.0, "YX"), (0.5, "ZZ")]
    symmetry, mirror, blocks = _check_sectors(terms, 2)
    assert symmetry is None and mirror
    assert [len(b) for b in blocks] == [3, 1]
    assert all(b.dtype == np.complex128 for b in blocks)


def test_symmetry_that_reversal_does_not_fix():
    # XZ commutes with every term; reversed it is ZX, so R is not used
    # although H itself is mirror-symmetric.
    terms = [(0.8, "XZ"), (0.8, "ZX"), (0.3, "YY")]
    symmetry, mirror, blocks = _check_sectors(terms, 2)
    assert symmetry == _masks("XZ") and not mirror
    assert [len(b) for b in blocks] == [2, 2]


def test_symmetry_with_a_yy_pair():
    # XX, XZ and ZX commute with YY and with no other string but I.
    terms = [(0.8, "XX"), (-0.5, "XZ"), (0.3, "ZX")]
    symmetry, mirror, blocks = _check_sectors(terms, 2)
    assert symmetry == _masks("YY") and not mirror
    assert all(b.dtype == np.float64 for b in blocks)


def test_no_symmetry_falls_back_to_one_block():
    terms = [(1.0, "X"), (1.0, "Z")]
    symmetry, mirror, blocks = _check_sectors(terms, 1)
    assert symmetry is None and not mirror
    assert len(blocks) == 1
    assert np.array_equal(blocks[0], to_dense(_ham(terms, 1)))
    assert ground_energy(_ham(terms, 1)) == pytest.approx(-np.sqrt(2.0), abs=1e-15)


def _solver_calls(monkeypatch):
    """(name, rows) of each np.linalg.eigvalsh and np.linalg.cholesky call
    from now."""
    calls = []
    for name in ("eigvalsh", "cholesky"):
        solve = getattr(np.linalg, name)

        def spy(a, *args, _solve=solve, _name=name, **kwargs):
            calls.append((_name, len(a)))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_ten_qubit_tfim_solves_four_quarter_blocks(monkeypatch):
    # The first block holds the ground state; Cholesky shows that the
    # other three hold no lower eigenvalue, so only the first is solved.
    h = transverse_field_ising(10, 0.7)
    assert [b.shape for b in oracle._sector_blocks(h)] == [(m, m) for m in (272, 256, 240, 256)]
    calls = _solver_calls(monkeypatch)
    ground_energy(h)
    assert calls == [("eigvalsh", 272), ("cholesky", 256), ("cholesky", 240), ("cholesky", 256)]


def test_one_ulp_off_the_mirror_leaves_two_half_blocks(monkeypatch):
    # Coefficients must map onto each other exactly: one X field moved by
    # one ulp keeps X...X but loses R.
    h = transverse_field_ising(10, 0.7)
    terms = list(h.terms)
    terms[9] = PauliTerm(float(np.nextafter(terms[9].coefficient, 0.0)), terms[9].axes)
    h = PauliHamiltonian(10, tuple(terms))
    assert oracle._symmetries(h) == (_masks("X" * 10), False)
    assert [b.shape for b in oracle._sector_blocks(h)] == [(512, 512)] * 2
    pairs = [(t.coefficient, t.axis_string) for t in terms]
    full = np.linalg.eigvalsh(ref.hamiltonian_matrix(pairs, 10))
    calls = _solver_calls(monkeypatch)
    lo, hi = spectrum_bounds(h)
    # Both ends of the spectrum lie in the first block: the second is
    # certified below the lowest and above the highest.
    assert calls == [("eigvalsh", 512), ("cholesky", 512), ("cholesky", 512)]
    assert lo == pytest.approx(float(full[0]), abs=1e-11)
    assert hi == pytest.approx(float(full[-1]), abs=1e-11)


def test_twelve_qubit_tfim_at_the_dense_cap(monkeypatch):
    h = transverse_field_ising(12, 0.9)
    want = ref.tfim_ground_energy(12, 0.9)
    sizes = (1056, 1024, 992, 1024)
    assert [b.shape for b in oracle._sector_blocks(h)] == [(m, m) for m in sizes]
    calls = _solver_calls(monkeypatch)
    assert ground_energy(h) == pytest.approx(want, abs=1e-9)
    assert calls == [("eigvalsh", 1056)] + [("cholesky", m) for m in sizes[1:]]
    assert ground_energy_iterative(h) == pytest.approx(want, abs=1e-9)


def _all_block_ends(h):
    """The lowest and highest eigenvalue of every block, by eigvalsh on
    each, as hex strings: the reference that the certificates must meet
    bit for bit."""
    ends = np.array([(v[0], v[-1]) for v in map(np.linalg.eigvalsh, oracle._sector_blocks(h))])
    return float(ends[:, 0].min()).hex(), float(ends[:, 1].max()).hex()


def _check_ends_bitwise(h):
    lo, hi = _all_block_ends(h)
    bounds = spectrum_bounds(h)
    assert (bounds[0].hex(), bounds[1].hex()) == (lo, hi)
    assert ground_energy(h).hex() == lo


@settings(max_examples=200, deadline=None)
@given(_term_sets())
def test_certified_ends_are_those_of_every_block(case):
    terms, n, _ = case
    _check_ends_bitwise(_ham(terms, n))


@pytest.mark.parametrize(
    "h",
    [
        *(transverse_field_ising(n, 0.0) for n in range(1, 9)),  # degenerate sectors
        PauliHamiltonian(3, ()),
        _ham([(0.0, "XZ"), (-0.0, "ZZ")], 2),
        _ham([(2.5, "II")], 2),
        _ham([(-1.0, "III"), (0.25, "III")], 3),
        _ham([(0.5, "XX"), (0.5, "XX"), (-1.0, "ZI"), (0.25, "ZI"), (-1.0, "IZ")], 2),
        _ham([(0.7, "XYZ"), (0.7, "XYZ"), (0.4, "ZYX"), (1.1, "ZZI")], 3),
        # The top of the spectrum lies in a later block than the bottom.
        _ham([(-1.25, "XIZ"), (2.0, "ZXX"), (-1.25, "ZIX"), (2.0, "XXZ")], 3),
        # Shifting the second block by the first one's lowest eigenvalue
        # would overflow, so nothing is certified.
        _ham([(1.5e308, "ZI"), (1.0, "XX")], 2),
    ],
    ids=[f"tfim{n}_field0" for n in range(1, 9)]
    + ["empty", "zero_coefficients", "identity", "identity_twice"]
    + ["duplicates", "complex_duplicates", "top_in_a_later_block", "near_overflow"],
)
def test_certified_ends_on_degenerate_and_trivial_hamiltonians(h):
    _check_ends_bitwise(h)


@pytest.mark.parametrize(
    "h",
    [
        transverse_field_ising(6, 0.9),  # S and the mirror
        _ham([(0.7, "XYZ"), (0.4, "YIX"), (1.1, "ZZI"), (0.3, "IXY")], 3),  # complex
        # Several flip masks land in one orbit, so cells sum several groups.
        _ham([(0.5, "XXIII"), (0.5, "IIIXX"), (0.3, "YYIII"), (0.3, "IIIYY"),
              (-1.0, "ZIIIZ"), (0.2, "XIIIX"), (-0.7, "IXZXI")], 5),
    ],
)
def test_scatter_adds_in_group_order_as_add_at(h):
    # The blocks are bitwise those of one np.add.at over all the groups'
    # entries, group by group, the order every cell's terms were added in.
    groups = compile_hamiltonians((h,)).groups
    blocks = list(oracle._sector_blocks(h))
    sectors = oracle._sectors(h.n_qubits, *oracle._symmetries(h))
    assert len(blocks) == len(sectors)
    for block, (reps, scale, pos, amp) in zip(blocks, sectors):
        want = np.zeros_like(block)
        masks = np.array([0 if flip is None else flip[0] for flip, _ in groups])
        cols = reps ^ masks[:, None]
        values = np.array([w.ravel()[reps] for _, w in groups]) * amp[cols]
        np.add.at(want, (np.arange(reps.size), pos[cols]), values)
        want *= scale[:, None]
        assert block.dtype == want.dtype
        assert block.tobytes() == want.tobytes()  # every bit, zero signs too


@settings(max_examples=100, deadline=None)
@given(_term_sets(), st.floats(-2.0, 2.0, allow_nan=False))
def test_trivial_sector_scatters_to_dense_bitwise(case, c):
    # The trivial group's one sector has the identity tables, so its block,
    # before any row scale, is to_dense(h) bit for bit, also with a
    # repeated string and a 0.0 coefficient.
    terms, n, _ = case
    h = _ham(terms + [(c, terms[0][1]), (0.0, "Y" + terms[-1][1][1:])], n)
    ((reps, _, pos, amp),) = oracle._sectors(n, None, False)
    block = _scatter(compile_hamiltonians((h,)), 0, reps, pos, amp)
    want = to_dense(h)
    assert block.dtype == want.dtype
    assert block.tobytes() == want.tobytes()


def test_empty_hamiltonian_solves_by_sector():
    h = PauliHamiltonian(3, ())
    assert sum(len(b) for b in oracle._sector_blocks(h)) == 8
    assert spectrum_bounds(h) == (0.0, 0.0)


def test_ten_qubit_dense_route_builds_no_rows_wider_than_a_block():
    # The full 1024 x 1024 matrix alone is 8 MiB, and the 272
    # representatives' full-width rows 2.1 MiB; the largest block is
    # 272 x 272, 0.56 MiB.
    h = transverse_field_ising(10, 0.9)
    ground_energy(h)  # the cached sector tables are not counted
    tracemalloc.start()
    try:
        ground_energy(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_sector_tables_are_built_once_and_read_only():
    oracle._sectors.cache_clear()
    oracle._string_symmetries.cache_clear()
    for a in (0.3, 0.8, 1.4):
        ground_energy(transverse_field_ising(4, a))
    assert oracle._sectors.cache_info().misses == 1
    assert oracle._string_symmetries.cache_info().misses == 1
    sectors = oracle._sectors(4, _masks("XXXX"), True)
    assert len(sectors) == 4
    assert all(not a.flags.writeable for sector in sectors for a in sector)


# ---------------------------------------------------------------------------
# eigensolver failures
# ---------------------------------------------------------------------------


def test_dense_routes_refuse_an_overflowing_matrix():
    # Two 1e308 ZZ terms sum to an entry past the float range.
    h = _ham([(1e308, "ZZ"), (1e308, "ZZ")], 2)
    for solve in (ground_energy, spectrum_bounds, ground_state):
        with pytest.raises(EigensolverError, match="dense diagonalization"):
            solve(h)


def test_dense_route_refuses_a_non_finite_eigenvalue():
    # Every entry is finite, the lowest eigenvalue (-3e308) is not.
    with pytest.raises(EigensolverError, match="non-finite eigenvalue"):
        ground_energy(transverse_field_ising(3, 1e308))


def test_lanczos_refuses_an_overflowing_coefficient_sum():
    # ARPACK returned 0.0 here for an H whose lowest eigenvalue is -2e308.
    for h in (_ham([(1e308, "ZZ"), (1e308, "ZZ")], 2), transverse_field_ising(2, 1e308)):
        with pytest.raises(EigensolverError, match="finite sum"):
            ground_energy_iterative(h)


def test_lanczos_solves_where_the_dense_route_does():
    # The coefficients sum to 1.2e308, still finite. On the unscaled
    # operator ARPACK returned NaN here, while the dense route solves it.
    h = transverse_field_ising(3, 4e307)
    want = ground_energy(h)
    assert want == pytest.approx(-1.2e308, rel=1e-12)
    assert ground_energy_iterative(h) == pytest.approx(want, rel=1e-12)


def test_lanczos_refuses_to_run_past_its_restart_cap(monkeypatch):
    # The 10-qubit TFIM takes 70 to 90 products, four to seven restarts.
    monkeypatch.setattr(oracle, "_MAX_RESTARTS", 1)
    with pytest.raises(EigensolverError, match="did not converge after 1 restart"):
        ground_energy_iterative(transverse_field_ising(10, 0.7))


# ---------------------------------------------------------------------------
# Lanczos against ARPACK
# ---------------------------------------------------------------------------


def _arpack_ground(terms, n):
    """scipy's ARPACK at tol = 0 on the reference Kronecker matrix: its
    symmetric Lanczos on a real matrix, its Arnoldi on a complex one.
    Arnoldi needs k < dim - 1, so a complex 2 x 2 matrix goes to LAPACK."""
    m = ref.hamiltonian_matrix(terms, n)
    if not m.imag.any():
        m = m.real
    elif len(m) == 2:
        return float(np.linalg.eigvalsh(m)[0])
    op = scipy.sparse.linalg.aslinearoperator(m)
    values = scipy.sparse.linalg.eigsh(op, k=1, which="SA", tol=0.0, return_eigenvectors=False)
    return float(values[0])


def _random_term_set(rng, n, odd):
    """1 to 12 random terms on n qubits, every string with an even number
    of Y factors (a real H) or, if ``odd``, the first with an odd number
    (a complex H)."""
    terms = ref.random_terms(rng, n, int(rng.integers(1, 13)))
    terms = [(c, a.replace("Y", "X", 1) if a.count("Y") % 2 else a) for c, a in terms]
    if odd:
        c, a = terms[0]
        terms[0] = (c, ("X" if a[0] == "Y" else "Y") + a[1:])
    return terms


@pytest.mark.parametrize("odd", [False, True], ids=["real", "odd_y"])
@pytest.mark.parametrize("n", range(1, 9))
def test_lanczos_matches_arpack(n, odd, monkeypatch):
    rng = np.random.default_rng(10 * n + odd)
    calls = _matvecs(monkeypatch)
    for _ in range(4):
        terms = _random_term_set(rng, n, odd)
        tol = 1e-10 * sum(abs(c) for c, _ in terms)
        energy = ground_energy_iterative(_ham(terms, n))
        assert energy == pytest.approx(_arpack_ground(terms, n), abs=tol)
    assert set(calls) == {np.dtype(np.complex128 if odd else np.float64)}


# Heisenberg chain XX + YY + ZZ on 5 qubits: an odd chain's ground level is
# a spin-1/2 doublet, so twofold degenerate.
_HEISENBERG_5 = [(1.0, "I" * q + p + p + "I" * (3 - q)) for q in range(4) for p in "XYZ"]


@pytest.mark.parametrize(
    "terms, n, most",
    [
        # Z-only: 4 distinct diagonal values, an invariant space after 4 steps.
        ([(0.7, "ZZIIIII"), (-0.3, "IIZIIIZ"), (0.2, "IIIIIII")], 7, 4),
        ([], 3, 1),  # the empty H: H v = 0 at once
        # dim <= _NCV: the basis spans the space within dim steps.
        (ref.random_terms(np.random.default_rng(3), 2, 5), 2, 4),
        (ref.random_terms(np.random.default_rng(4), 3, 8), 3, 8),
        (ref.random_terms(np.random.default_rng(5), 4, 12), 4, 16),
        (_HEISENBERG_5, 5, oracle._NCV),  # converges in the first cycle
    ],
    ids=["z_only", "empty", "dim4", "dim8", "dim16", "degenerate"],
)
def test_lanczos_breakdowns_and_a_degenerate_ground_level(terms, n, most, monkeypatch):
    h = _ham(terms, n)
    want = ground_energy(h)
    if terms:
        assert want == pytest.approx(_arpack_ground(terms, n), abs=1e-12)
    calls = _matvecs(monkeypatch)
    energy = ground_energy_iterative(h)
    assert len(calls) <= most  # products: a breakdown returns at once
    tol = 1e-10 * max(1.0, sum(abs(c) for c, _ in terms))
    assert energy == pytest.approx(want, abs=tol)


def test_heisenberg_ground_level_is_degenerate():
    values = np.linalg.eigvalsh(ref.hamiltonian_matrix(_HEISENBERG_5, 5))
    assert values[1] - values[0] < 1e-12 < values[2] - values[0]


def test_lanczos_rotates_in_column_slices(monkeypatch):
    # 7-qubit TFIM: 128 columns, rotated 13 at a time at this setting.
    h = transverse_field_ising(7, 0.8)
    whole = ground_energy_iterative(h)
    monkeypatch.setattr(oracle, "_ROTATION_ENTRIES", 13 * oracle._KEEP)
    assert ground_energy_iterative(h) == pytest.approx(whole, abs=1e-13)
    assert whole == pytest.approx(ref.tfim_ground_energy(7, 0.8), abs=1e-12)


def test_twelve_qubit_lanczos_holds_its_basis_and_a_few_vectors():
    # The basis is _NCV + 1 vectors; the compiled TFIM one flip index and
    # one weight vector per group (the diagonal and 12 X fields); the
    # restart rotates at most _ROTATION_ENTRIES entries at a time; the
    # product, its temporaries and the spare vector are a few more.
    h = transverse_field_ising(12, 0.9)
    ground_energy_iterative(h)
    vector = 8 << 12
    bound = (oracle._NCV + 1 + 2 * 13 + 6) * vector + 8 * oracle._ROTATION_ENTRIES
    tracemalloc.start()
    try:
        ground_energy_iterative(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
