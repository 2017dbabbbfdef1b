import gc
import math
import pickle
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_ref as ref
from hqcnn import pauli
from hqcnn.pauli import (
    _apply_hamiltonian_rows,
    _expectation_rows,
    compile_hamiltonians,
)
from hqcnn.pauli import (
    HamParseError,
    PauliAxis,
    PauliHamiltonian,
    PauliTerm,
    ascii_float,
    ascii_int,
    expectation,
    format_hamiltonian,
    parse_hamiltonian,
    to_dense,
)
from hqcnn.statevector import StateVector, zero_state


def _ham(terms, n, bond=None):
    return PauliHamiltonian(
        n, tuple(PauliTerm.from_string(c, a) for c, a in terms), bond
    )


class TestAxis:
    def test_members_hash_key_dicts_and_round_trip_through_pickle(self):
        members = list(PauliAxis)
        table = {axis: axis.value for axis in members}
        for axis in members:
            copy = pickle.loads(pickle.dumps(axis))
            assert copy is axis and hash(copy) == hash(axis)
            assert table[copy] == axis.value

    def test_unpickled_strings_hit_the_mask_cache(self):
        strings = (PauliTerm.from_string(1.0, "XYZI").axes,)
        first = pauli._string_masks(strings)
        hits = pauli._string_masks.cache_info().hits
        assert pauli._string_masks(pickle.loads(pickle.dumps(strings))) is first
        assert pauli._string_masks.cache_info().hits == hits + 1


class TestParsing:
    def test_minimal_document(self):
        h = parse_hamiltonian("qubits: 2\nterm: 0.5 ZZ\n")
        assert h.n_qubits == 2
        assert h.bond_length is None
        assert h.terms == (PauliTerm(0.5, (PauliAxis.Z, PauliAxis.Z)),)

    def test_identity_term_document(self):
        h = parse_hamiltonian("qubits: 4\nterm: -0.8105 IIII\n")
        assert expectation(h, zero_state(4)) == pytest.approx(-0.8105, abs=1e-15)

    def test_comments_blanks_and_metadata(self):
        text = "# a comment\n\nqubits: 2\nbond_length: 0.74\n\nterm: 1.0 XY\n"
        h = parse_hamiltonian(text)
        assert h.bond_length == pytest.approx(0.74)
        assert len(h.terms) == 1

    def test_unknown_axis_reports_line(self):
        with pytest.raises(HamParseError) as exc:
            parse_hamiltonian("qubits: 2\nterm: 0.5 ZQ\n")
        assert exc.value.line == 2
        assert "'Q'" in str(exc.value)

    def test_term_before_header(self):
        with pytest.raises(HamParseError) as exc:
            parse_hamiltonian("term: 0.5 ZZ\nqubits: 2\n")
        assert exc.value.line == 1

    def test_missing_header(self):
        with pytest.raises(HamParseError):
            parse_hamiltonian("# nothing here\n")

    def test_duplicate_header(self):
        with pytest.raises(HamParseError) as exc:
            parse_hamiltonian("qubits: 2\nqubits: 3\n")
        assert exc.value.line == 2

    def test_duplicate_bond_length(self):
        with pytest.raises(HamParseError):
            parse_hamiltonian("qubits: 1\nbond_length: 1\nbond_length: 2\n")

    def test_axis_length_mismatch(self):
        with pytest.raises(HamParseError) as exc:
            parse_hamiltonian("qubits: 3\nterm: 1.0 ZZ\n")
        assert "length 2" in str(exc.value)

    def test_bad_coefficient(self):
        with pytest.raises(HamParseError):
            parse_hamiltonian("qubits: 1\nterm: abc Z\n")
        with pytest.raises(HamParseError):
            parse_hamiltonian("qubits: 1\nterm: nan Z\n")

    def test_complex_coefficient_rejected(self):
        with pytest.raises(HamParseError):
            parse_hamiltonian("qubits: 1\nterm: 1j Z\n")

    def test_unknown_key(self):
        with pytest.raises(HamParseError) as exc:
            parse_hamiltonian("qubits: 1\nspin: 3\n")
        assert exc.value.line == 2

    def test_missing_colon(self):
        with pytest.raises(HamParseError):
            parse_hamiltonian("qubits 2\n")

    def test_scientific_notation(self):
        h = parse_hamiltonian("qubits: 1\nterm: -1.5e-3 X\n")
        assert h.terms[0].coefficient == pytest.approx(-1.5e-3)

    @pytest.mark.parametrize(
        "text",
        [
            "qubits: \u0662\n",  # an Arabic-Indic two
            "qubits: 1_0\n",
            "qubits: 1\nterm: 1_0 Z\n",
            "qubits: 1\nterm: \u0662 Z\n",
            "qubits: 1\nbond_length: 1_0\n",
            "qubits: 1\nbond_length: \uff11.5\n",  # a fullwidth one
        ],
    )
    def test_numbers_are_ascii(self, text):
        with pytest.raises(HamParseError, match="line "):
            parse_hamiltonian(text)


class TestNumberGrammar:
    @pytest.mark.parametrize("token", ["0", "-7", "+12", "0012"])
    def test_integers(self, token):
        assert ascii_int(token) == int(token)

    @pytest.mark.parametrize("token", ["", "+", "1_0", "\u0662", " 1", "1.0", "1e3", "0x10"])
    def test_not_integers(self, token):
        with pytest.raises(ValueError):
            ascii_int(token)

    @pytest.mark.parametrize(
        "token", ["1", "-1.5e-3", ".5", "5.", "+1E+308", "1e-320", "1e999", "-inf", "Infinity"]
    )
    def test_reals(self, token):
        assert ascii_float(token) == float(token)

    def test_nan_parses_for_the_caller_to_reject(self):
        assert math.isnan(ascii_float("nan"))

    @pytest.mark.parametrize(
        "token",
        ["", ".", "e5", "1e", "1_0", "1.0_1", " 1", "1j", "0x1p3", "infinit",
         "\u0662", "\u0661.\u0665"],
    )
    def test_not_reals(self, token):
        with pytest.raises(ValueError):
            ascii_float(token)

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_real_grammar_is_a_strict_ascii_subset_of_float(self, token):
        try:
            value = ascii_float(token)
        except ValueError:
            return
        assert token.isascii() and "_" not in token and token == token.strip()
        assert value == float(token) or math.isnan(value)


class TestRoundTrip:
    def test_single_term(self):
        h = _ham([(0.5, "ZZ")], 2)
        assert parse_hamiltonian(format_hamiltonian(h)) == h

    def test_empty_terms(self):
        h = PauliHamiltonian(3, ())
        again = parse_hamiltonian(format_hamiltonian(h))
        assert again.terms == ()
        assert again.n_qubits == 3

    def test_random_hamiltonians(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            terms = ref.random_terms(rng, n, int(rng.integers(1, 8)))
            bond = float(rng.uniform(0.1, 3.0)) if rng.integers(0, 2) else None
            h = _ham(terms, n, bond)
            assert parse_hamiltonian(format_hamiltonian(h)) == h

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_property_parse_format_parse_is_exact(self, data, n):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        terms = data.draw(st.lists(st.tuples(finite, st.text("IXYZ", min_size=n, max_size=n))))
        bond = data.draw(st.none() | finite)
        h = _ham(terms, n, bond)
        assert parse_hamiltonian(format_hamiltonian(h)) == h


class TestEvaluation:
    def test_zz_on_bell_state(self):
        bell = StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
        assert expectation(_ham([(1.0, "ZZ")], 2), bell) == pytest.approx(1.0, abs=1e-12)

    def test_x_on_zero(self):
        assert expectation(_ham([(1.0, "X")], 1), zero_state(1)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_identity_short_circuit_uses_norm(self):
        h = _ham([(2.5, "II")], 2)
        scaled = StateVector(2, np.array([2, 0, 0, 0], dtype=complex))
        assert expectation(h, scaled) == pytest.approx(2.5 * 4.0, abs=1e-12)

    def test_expectation_matches_dense_quadratic_form(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 5))
            terms = ref.random_terms(rng, n, int(rng.integers(1, 10)))
            psi = ref.random_state(rng, n)
            h = _ham(terms, n)
            want = (psi.conj() @ ref.hamiltonian_matrix(terms, n) @ psi).real
            assert expectation(h, StateVector(n, psi)) == pytest.approx(
                float(want), abs=1e-10
            )

    def test_linearity_of_merged_sums(self, rng):
        n = 3
        t1 = ref.random_terms(rng, n, 4)
        t2 = ref.random_terms(rng, n, 4)
        alpha, beta = 0.7, -1.3
        psi = StateVector(n, ref.random_state(rng, n))
        # One Hamiltonian holding both term lists, duplicates and all.
        combined = _ham([(alpha * c, a) for c, a in t1] + [(beta * c, a) for c, a in t2], n)
        assert expectation(combined, psi) == pytest.approx(
            alpha * expectation(_ham(t1, n), psi)
            + beta * expectation(_ham(t2, n), psi),
            abs=1e-10,
        )

    def test_spectrum_brackets_expectation(self, rng):
        for _ in range(10):
            n = 3
            terms = ref.random_terms(rng, n, 6)
            h = _ham(terms, n)
            lam = np.linalg.eigvalsh(to_dense(h))
            for _ in range(5):
                value = expectation(h, StateVector(n, ref.random_state(rng, n)))
                assert lam[0] - 1e-9 <= value <= lam[-1] + 1e-9

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            expectation(_ham([(1.0, "Z")], 1), zero_state(2))


@st.composite
def pauli_sums(draw, n):
    """(coefficient, axis string) terms on n qubits; the last term has
    exactly one Y, so every sum holds an odd-Y string."""
    axes = st.text("IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False)
    terms = draw(st.lists(st.tuples(coeffs, axes), max_size=8))
    y_at = draw(st.integers(0, n - 1))
    odd_y = "".join(draw(st.sampled_from("IXZ")) if q != y_at else "Y" for q in range(n))
    return terms + [(draw(coeffs), odd_y)]


@st.composite
def repeated_pauli_sums(draw, n):
    """``pauli_sums(n)`` with one of its strings repeated and a term of
    coefficient 0.0 added."""
    terms = draw(pauli_sums(n))
    _, repeat = draw(st.sampled_from(terms))
    zero = draw(st.text("IXYZ", min_size=n, max_size=n))
    return terms + [(draw(st.floats(-2.0, 2.0, allow_nan=False)), repeat), (0.0, zero)]


@st.composite
def stacked_hamiltonians(draw, qubits=st.integers(1, 5)):
    n = draw(qubits)
    count = draw(st.integers(1, 3))
    return n, [draw(pauli_sums(n)) for _ in range(count)]


def _weights_term_by_term(hams, n):
    """[(flip mask, weights)] of the Hamiltonians, built one term at a
    time from the axis strings: each term adds c * s(k ^ mask) into its
    (flip mask, Y parity) sum, which starts at zeros, in term order; the
    masks ascending, the weights complex where the imaginary sum has a
    nonzero entry."""
    index = np.arange(1 << n)
    sums = {}
    for j, h in enumerate(hams):
        for term in h.terms:
            axes = term.axis_string
            flips = int("".join("1" if a in "XY" else "0" for a in axes), 2)
            z = int("".join("1" if a in "ZY" else "0" for a in axes), 2)
            n_y = axes.count("Y")
            odd = [(bin((k ^ flips) & z).count("1") + n_y // 2) % 2 for k in index]
            sign = np.where(odd, -1.0, 1.0)
            w = sums.setdefault((flips, n_y % 2), np.zeros((index.size, len(hams))))
            w[:, j] += term.coefficient * sign
    groups = []
    for mask in sorted({mask for mask, _ in sums}):
        weights = sums.get((mask, 0), np.zeros((index.size, len(hams))))
        imag = sums.get((mask, 1))
        if imag is not None and imag.any():
            weights = np.stack((weights, imag), axis=-1).view(np.complex128)[..., 0]
        groups.append((mask, weights))
    return groups


@st.composite
def repeated_stacks(draw):
    """(n, Hamiltonians' terms) on 1-6 qubits: repeated strings, mixed Y
    counts and signed zero coefficients."""
    n = draw(st.integers(1, 6))
    axes = st.text("IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 0.5])
    sums = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.lists(st.tuples(coeffs, axes), max_size=10))
        repeats = draw(st.lists(st.sampled_from(terms), max_size=4)) if terms else []
        sums.append(terms + [(draw(coeffs), a) for _, a in repeats])
    return n, sums


class TestCompiled:
    @settings(max_examples=150, deadline=None)
    @given(case=repeated_stacks(), entries=st.sampled_from([1, 3, 40, pauli._SIGN_ENTRIES]))
    def test_weights_are_those_of_term_by_term_sums(self, case, entries):
        # Bit for bit, signed zeros too, however many sign products the
        # compiler holds at a time.
        n, sums = case
        hams = [_ham(terms, n) for terms in sums]
        with mock.patch.object(pauli, "_SIGN_ENTRIES", entries):
            compiled = compile_hamiltonians(hams)
        want = _weights_term_by_term(hams, n)
        assert len(compiled.groups) == len(want)
        for (flip, weights), (mask, expected) in zip(compiled.groups, want):
            assert (0 if flip is None else int(flip[0])) == mask
            assert weights.shape == (1 << n, len(hams), 1)
            assert weights.dtype == expected.dtype
            assert weights[:, :, 0].tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=stacked_hamiltonians(), rows_per=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_real_rows_match_dense_quadratic_form(self, case, rows_per, seed):
        n, sums = case
        compiled = compile_hamiltonians(_ham(terms, n) for terms in sums)
        rng = np.random.default_rng(seed)
        cols = rng.standard_normal((1 << n, len(sums) * rows_per))
        got = _expectation_rows(compiled, cols)
        for b, v in enumerate(cols.T):
            dense = ref.hamiltonian_matrix(sums[b // rows_per], n)
            assert got[b] == pytest.approx(float((v @ dense @ v).real), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(case=stacked_hamiltonians(), seed=st.integers(0, 2**32 - 1))
    def test_complex_matvec_matches_dense(self, case, seed):
        n, sums = case
        hams = [_ham(terms, n) for terms in sums]
        compiled = compile_hamiltonians(hams)
        rng = np.random.default_rng(seed)
        cols = np.stack([ref.random_state(rng, n) for _ in hams], axis=1)
        got = _apply_hamiltonian_rows(compiled, cols)
        assert got.flags["C_CONTIGUOUS"]
        for h, v, out in zip(hams, cols.T, got.T):
            assert np.max(np.abs(out - to_dense(h) @ v)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(case=stacked_hamiltonians(st.just(5)), seed=st.integers(0, 2**32 - 1))
    def test_real_matvec_on_groups_matches_dense(self, case, seed):
        # Above _TILE_QUBITS real columns read the groups' real parts.
        n, sums = case
        hams = [_ham(terms, n) for terms in sums]
        compiled = compile_hamiltonians(hams)
        assert compiled.real_dense is None
        cols = np.random.default_rng(seed).standard_normal((1 << n, len(hams)))
        got = _apply_hamiltonian_rows(compiled, cols)
        assert got.dtype == np.float64
        for h, v, out in zip(hams, cols.T, got.T):
            assert np.max(np.abs(out - to_dense(h).real @ v)) < 1e-12

    def test_odd_y_strings_drop_out_on_real_rows(self):
        for n in (2, 5):  # the dense stack, then the groups
            pad = "I" * (n - 2)
            compiled = compile_hamiltonians([_ham([(0.7, "YZ" + pad), (-1.1, "YI" + pad)], n)])
            assert (compiled.real_dense is None) == (n == 5)
            assert len(compiled.groups) == 1  # both strings flip qubit 0 only
            cols = np.random.default_rng(3).standard_normal((1 << n, 4))
            assert np.array_equal(_expectation_rows(compiled, cols), np.zeros(4))
            assert compiled.real.groups == ()  # an imaginary group alone drops out

    def test_overflowed_odd_y_sum_leaves_re_h_finite(self):
        # The YI sum overflows to inf in the imaginary half of the one
        # group; Re(H) is the XI term alone, on the stack and the groups.
        for n in (2, 5):
            pad = "I" * (n - 2)
            terms = [(1e308, "YI" + pad), (1e308, "YI" + pad), (0.5, "XI" + pad)]
            with np.errstate(over="ignore"):
                compiled = compile_hamiltonians([_ham(terms, n)])
            assert len(compiled.groups) == 1
            want = to_dense(_ham([(0.5, "XI" + pad)], n))
            if n == 2:
                assert compiled.real_dense[0].tobytes() == want.tobytes()
            cols = np.random.default_rng(5).standard_normal((1 << n, 3))
            with np.errstate(all="raise"):
                got = _apply_hamiltonian_rows(compiled, cols)
            assert np.array_equal(got, want @ cols)

    def test_real_columns_leave_no_reference_cycle(self):
        # The forms that real columns build on first read must not point
        # back at the compiled form, or only the cyclic collector frees it.
        for n, axes in ((2, "XI"), (2, "YI"), (5, "XIIII"), (5, "YIIII")):
            compiled = compile_hamiltonians([_ham([(0.5, axes)], n)])
            _apply_hamiltonian_rows(compiled, np.ones((1 << n, 1)))
            alive = weakref.ref(compiled)
            gc.disable()
            try:
                del compiled
                assert alive() is None
            finally:
                gc.enable()

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        complex_cols=st.booleans(),
        odd_y=st.booleans(),
        lead=st.sampled_from([(), (2,)]),
        rows_per=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matvec_is_bitwise_one_product_per_group(
        self, data, complex_cols, odd_y, lead, rows_per, seed
    ):
        # The formula the in-place products replaced: out += partner *
        # weights per group, on the full weights for complex columns and on
        # Re(H) for real ones, which take the groups above _TILE_QUBITS.
        n = data.draw(st.integers(1, 6) if complex_cols else st.integers(5, 6))
        even = st.text("IXYZ", min_size=n, max_size=n).filter(lambda a: a.count("Y") % 2 == 0)
        coeffs = st.floats(-2.0, 2.0, allow_nan=False)
        count = data.draw(st.integers(1, 3))
        sums = [
            data.draw(pauli_sums(n) if odd_y else st.lists(st.tuples(coeffs, even), max_size=8))
            for _ in range(count)
        ]
        compiled = compile_hamiltonians(_ham(terms, n) for terms in sums)
        rng = np.random.default_rng(seed)
        cols = rng.standard_normal((*lead, 1 << n, count * rows_per))
        if complex_cols:
            cols = cols + 1j * rng.standard_normal(cols.shape)
        blocks = cols.reshape(*cols.shape[:-1], count, -1)
        want = np.zeros(blocks.shape, dtype=cols.dtype)
        for flip, weights in (compiled if complex_cols else compiled.real).groups:
            partner = blocks if flip is None else blocks.take(flip, axis=-3)
            want += partner * weights
        before = cols.copy()
        got = _apply_hamiltonian_rows(compiled, cols)
        assert got.shape == cols.shape and got.dtype == cols.dtype
        assert got.tobytes() == want.reshape(cols.shape).tobytes()
        assert cols.tobytes() == before.tobytes()


class TestRealDense:
    """Up to 4 qubits the compiled form also keeps Re(H) as a dense stack,
    and H v on real columns is one batched matmul; it matches the group
    form and ``to_dense``, also with Y factors in both parities."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        count=st.integers(1, 3),
        rows_per=st.integers(1, 3),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_real_matvec_matches_groups_and_to_dense(self, n, count, rows_per, data, seed):
        even_y = [(0.3, "YY" + "I" * (n - 2))] if n >= 2 else []
        hams = [_ham(data.draw(pauli_sums(n)) + even_y, n) for _ in range(count)]
        compiled = compile_hamiltonians(hams)
        size = 1 << n
        assert "real_dense" not in vars(compiled)  # built on first read
        assert compiled.real_dense.shape == (count, size, size)
        assert not compiled.real_dense.flags.writeable
        cols = np.random.default_rng(seed).standard_normal((size, count * rows_per))
        got = _apply_hamiltonian_rows(compiled, cols)
        assert got.dtype == np.float64
        assert got.flags["C_CONTIGUOUS"]
        # Complex columns read the full groups; on real columns the real
        # part of H v is Re(H) v.
        groups = _apply_hamiltonian_rows(compiled, cols.astype(np.complex128)).real
        assert np.max(np.abs(got - groups)) < 1e-12
        for j, h in enumerate(hams):
            block = slice(j * rows_per, (j + 1) * rows_per)
            assert np.max(np.abs(got[:, block] - to_dense(h).real @ cols[:, block])) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 4), count=st.integers(1, 3), data=st.data())
    def test_stack_is_to_dense_bitwise(self, n, count, data):
        # One writer builds both, so every bit agrees, zero signs too.
        hams = [_ham(data.draw(repeated_pauli_sums(n)), n) for _ in range(count)]
        dense = compile_hamiltonians(hams).real_dense
        for j, h in enumerate(hams):
            assert dense[j].tobytes() == to_dense(h).real.tobytes()

    def test_only_up_to_four_qubits(self):
        assert compile_hamiltonians([_ham([(1.0, "ZZZZ")], 4)]).real_dense is not None
        assert compile_hamiltonians([_ham([(1.0, "ZZZZZ")], 5)]).real_dense is None


@st.composite
def mixed_pauli_sums(draw):
    """(n, terms) on 1-5 qubits; in about half of the draws every string
    has an even number of Y factors, so the sum is real symmetric."""
    n = draw(st.integers(1, 5))
    axes = st.text("IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False)
    terms = draw(st.lists(st.tuples(coeffs, axes), max_size=8))
    if draw(st.booleans()):
        terms = [(c, a.replace("Y", "X", 1) if a.count("Y") % 2 else a) for c, a in terms]
    return n, terms


class TestDense:
    @settings(max_examples=100, deadline=None)
    @given(case=mixed_pauli_sums())
    def test_matches_kronecker_reference(self, case):
        n, terms = case
        got = to_dense(_ham(terms, n))
        want = ref.hamiltonian_matrix(terms, n)
        assert got.dtype in (np.float64, np.complex128)
        assert (got.dtype == np.float64) == (not np.any(want.imag))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_cancelling_odd_y_strings_give_a_real_matrix(self):
        m = to_dense(_ham([(0.5, "YZ"), (1.0, "XX"), (-0.5, "YZ")], 2))
        assert m.dtype == np.float64
        assert np.array_equal(m, ref.hamiltonian_matrix([(1.0, "XX")], 2).real)

    def test_single_qubit_z(self):
        assert np.array_equal(to_dense(_ham([(1.0, "Z")], 1)), np.diag([1, -1]))

    def test_zi_plus_iz(self):
        m = to_dense(_ham([(1.0, "ZI"), (1.0, "IZ")], 2))
        assert np.allclose(m, np.diag([2, 0, 0, -2]), atol=1e-15)

    def test_hermitian(self, rng):
        for _ in range(10):
            terms = ref.random_terms(rng, 3, 7)
            m = to_dense(_ham(terms, 3))
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_qubit_guard(self):
        h = PauliHamiltonian(13, ())
        with pytest.raises(ValueError):
            to_dense(h)


class TestConstruction:
    def test_rejects_non_finite_coefficient(self):
        with pytest.raises(ValueError):
            PauliTerm(float("inf"), (PauliAxis.Z,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PauliHamiltonian(2, (PauliTerm.from_string(1.0, "Z"),))
