import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_ref as ref
from hqcnn.statevector import (
    MAX_QUBITS,
    _PRODUCT_GATHER_QUBITS,
    _TILE_QUBITS,
    StateVector,
    _angle_factors,
    _cnot_permutation,
    _cnot_rows,
    _h_rows,
    _product_index,
    _product_rows,
    _ry_rows,
    _ry_tiles,
    _tile_rows,
    apply_cnot,
    apply_h,
    apply_ry,
    expect_z,
    norm,
    zero_state,
)


def test_zero_state_amplitudes():
    assert np.array_equal(zero_state(2).amplitudes, [1, 0, 0, 0])
    assert np.array_equal(zero_state(1).amplitudes, [1, 0])
    assert norm(zero_state(8)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [0, -1, 21])
def test_zero_state_range_guard(n):
    with pytest.raises(ValueError):
        zero_state(n)


def test_statevector_validates_shape():
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3, dtype=complex))


class _Unconvertible:
    def __array__(self, *args, **kwargs):
        raise AssertionError("amplitudes converted")


@pytest.mark.parametrize("n", [0, -1, MAX_QUBITS + 1])
def test_statevector_range_guard_runs_before_conversion(n):
    # Nothing of size 2**n is built or converted: the register size is
    # checked first.
    with pytest.raises(ValueError, match="n_qubits must be in"):
        StateVector(n, _Unconvertible())


def test_hadamard_on_single_qubit():
    psi = apply_h(zero_state(1), 0)
    assert np.allclose(psi.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_hadamard_involution(rng):
    v = ref.random_state(rng, 3)
    psi = StateVector(3, v)
    again = apply_h(apply_h(psi, 1), 1)
    assert np.allclose(again.amplitudes, v, atol=1e-12)


def test_hadamard_on_second_qubit():
    psi = apply_h(zero_state(2), 1)
    # |00> -> (|00> + |01>)/sqrt(2): indices 0 and 1 (qubit 1 is the low bit)
    assert np.allclose(psi.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-15)


def test_ry_identity_and_pi():
    psi = apply_ry(zero_state(1), 0, 0.0)
    assert np.allclose(psi.amplitudes, [1, 0], atol=1e-15)
    flipped = apply_ry(zero_state(1), 0, np.pi)
    # amplitude of |1> is +1, not a phase variant
    assert np.allclose(flipped.amplitudes, [0, 1], atol=1e-15)


def test_ry_rotation_angle():
    theta = 0.7
    psi = apply_ry(zero_state(1), 0, theta)
    assert np.allclose(
        psi.amplitudes, [np.cos(theta / 2), np.sin(theta / 2)], atol=1e-15
    )


def test_cnot_examples():
    one_zero = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
    assert np.array_equal(apply_cnot(one_zero, 0, 1).amplitudes, [0, 0, 0, 1])
    assert np.array_equal(apply_cnot(zero_state(2), 0, 1).amplitudes, [1, 0, 0, 0])


def test_bell_state():
    psi = apply_cnot(apply_h(zero_state(2), 0), 0, 1)
    assert np.allclose(
        psi.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15
    )


def test_cnot_rejects_equal_or_bad_indices():
    psi = zero_state(2)
    with pytest.raises(ValueError):
        apply_cnot(psi, 1, 1)
    with pytest.raises(ValueError):
        apply_cnot(psi, 0, 2)


def test_gate_index_out_of_range():
    psi = zero_state(2)
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            apply_h(psi, bad)
        with pytest.raises(ValueError):
            expect_z(psi, bad)


def test_rotation_rejects_non_finite_angle():
    with pytest.raises(ValueError):
        apply_ry(zero_state(1), 0, np.nan)


def test_expect_z_basics():
    assert expect_z(zero_state(1), 0) == pytest.approx(1.0, abs=1e-15)
    plus = apply_h(zero_state(1), 0)
    assert expect_z(plus, 0) == pytest.approx(0.0, abs=1e-15)


def test_expect_z_encoding_composition():
    for a in np.linspace(-np.pi, np.pi, 17):
        psi = apply_ry(apply_h(zero_state(1), 0), 0, a)
        assert expect_z(psi, 0) == pytest.approx(-np.sin(a), abs=1e-12)


def test_norm_of_scaled_state():
    psi = StateVector(1, np.array([2.0, 0.0], dtype=complex))
    assert norm(psi) == pytest.approx(2.0, abs=1e-15)


def test_gates_do_not_mutate_input(rng):
    v = ref.random_state(rng, 2)
    psi = StateVector(2, v.copy())
    apply_h(psi, 0)
    apply_ry(psi, 1, 0.3)
    apply_cnot(psi, 0, 1)
    assert np.array_equal(psi.amplitudes, v)


def test_kernels_return_fresh_rows(rng):
    # Every kernel maps C-ordered (2**n, points) columns to fresh C-ordered
    # columns and leaves its input unchanged.
    for n in (1, 2, 4):
        cols = np.stack([ref.random_state(rng, n) for _ in range(3)], axis=1)
        before = cols.copy()
        c, s = _angle_factors(0.7)
        perm = _cnot_permutation(n, ((0, n - 1),) if n > 1 else ())
        for q in range(n):
            for out in (
                _h_rows(cols, q),
                _ry_rows(cols, q, c, s),
                _cnot_rows(cols, perm),
            ):
                assert out.shape == cols.shape
                assert out.flags["C_CONTIGUOUS"]
                assert not np.shares_memory(out, cols)
        assert np.array_equal(cols, before)


def test_ry_kernel_rounds_as_the_two_by_two_formula(rng):
    # (lo, hi) -> (c lo - s hi, c hi + s lo), each product and sum rounded
    # once.
    for n in (1, 3, 5):
        cols = rng.normal(size=(1 << n, 4))
        c, s = _angle_factors(rng.normal())
        for q in range(n):
            v = cols.reshape(1 << q, 2, -1)
            lo, hi = v[:, 0], v[:, 1]
            want = np.stack([c * lo - s * hi, c * hi + s * lo], axis=1)
            got = _ry_rows(cols, q, c, s)
            assert np.array_equal(got, want.reshape(cols.shape))


def _tile_rows_one_reshape_per_tile(cols, tiles):
    # The formula _tile_rows replaced: each tile reshapes the columns to
    # its (-1, 2**k, rest) view and its product back to their shape.
    for t, tile in enumerate(tiles):
        size = tile.shape[-1]
        rest = (cols.shape[-2] >> (_TILE_QUBITS * t)) // size * cols.shape[-1]
        cols = np.matmul(tile, cols.reshape(-1, size, rest)).reshape(cols.shape)
    return cols


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(5, 10),
    lead=st.sampled_from([(), (2,)]),
    points=st.integers(1, 8),
    transposed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_tile_rows_are_bitwise_one_reshape_per_tile(n, lead, points, transposed, seed):
    # One running view per tile layer gives the same products on the same
    # views, remainder tiles (n % 4 != 0) and the sweep's transposed tiles
    # included, and leaves its input alone.
    rng = np.random.default_rng(seed)
    (tiles,) = _ry_tiles(*_angle_factors(rng.normal(0, 1.5, n)), n)
    if transposed:
        tiles = [tile.T for tile in tiles]
    cols = rng.normal(size=(*lead, 1 << n, points))
    before = cols.copy()
    got = _tile_rows(cols, tiles)
    want = _tile_rows_one_reshape_per_tile(cols, tiles)
    assert got.shape == cols.shape and got.flags["C_CONTIGUOUS"]
    assert got.tobytes() == want.tobytes()
    assert cols.tobytes() == before.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    lead=st.sampled_from([(), (2,)]),
    points=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_rows_multiply_in_qubit_order(n, lead, points, seed):
    # Bit for bit the successive Kronecker products of the qubits' pairs,
    # qubit 0 first, each amplitude ((f0 f1) f2) ... rounded in order: one
    # broadcast product per qubit, the formula the gather replaced.
    factors = np.random.default_rng(seed).normal(size=(*lead, n, 2, points))
    want = factors[..., 0, :, :]
    for q in range(1, n):
        want = want[..., :, None, :] * factors[..., q, None, :, :]
        want = want.reshape(*lead, -1, points)
    got = _product_rows(factors)
    assert got.shape == (*lead, 1 << n, points) and got.flags["C_CONTIGUOUS"]
    assert got.tobytes() == want.tobytes()
    assert _product_index.cache_info().maxsize >= _PRODUCT_GATHER_QUBITS


def _random_gate(rng, n):
    """(name, args, dense unitary) for one uniformly chosen gate."""
    kind = rng.integers(0, 3)
    q = int(rng.integers(0, n))
    theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
    if kind == 0:
        return ("h", (q,), ref.lift(ref.H, q, n))
    if kind == 1:
        return ("ry", (q, theta), ref.lift(ref.ry(theta), q, n))
    if n == 1:
        return ("h", (q,), ref.lift(ref.H, q, n))
    t = int(rng.integers(0, n))
    while t == q:
        t = int(rng.integers(0, n))
    return ("cnot", (q, t), ref.cnot(q, t, n))


_APPLY = {
    "h": apply_h,
    "ry": apply_ry,
    "cnot": apply_cnot,
}


class TestDenseEquivalence:
    def test_random_circuits_match_dense(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            v = ref.random_state(rng, n)
            psi = StateVector(n, v.copy())
            for _ in range(12):
                name, args, u = _random_gate(rng, n)
                psi = _APPLY[name](psi, *args)
                v = u @ v
            assert np.allclose(psi.amplitudes, v, atol=1e-12)

    def test_norm_preserved_over_thousand_gates(self, rng):
        psi = zero_state(4)
        for _ in range(1000):
            name, args, _ = _random_gate(rng, 4)
            psi = _APPLY[name](psi, *args)
        assert norm(psi) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        gate=st.sampled_from(sorted(_APPLY)),
        theta=st.floats(-20.0, 20.0, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_gates_preserve_norm(self, data, n, gate, theta, seed):
        psi = StateVector(n, ref.random_state(np.random.default_rng(seed), n))
        q = data.draw(st.integers(0, n - 1))
        if gate == "cnot":
            assume(n > 1)
            t = data.draw(st.integers(0, n - 1).filter(lambda t: t != q))
            args = (q, t)
        elif gate == "h":
            args = (q,)
        else:
            args = (q, theta)
        out = _APPLY[gate](psi, *args)
        assert norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_gate_locality(self, rng):
        # Product state: a gate on qubit 0 must not move <sigma_z> on qubit 2.
        psi = zero_state(3)
        psi = apply_ry(psi, 2, 0.9)
        before = expect_z(psi, 2)
        psi = apply_ry(apply_h(psi, 0), 0, 1.3)
        assert expect_z(psi, 2) == pytest.approx(before, abs=1e-12)

    def test_expect_z_stays_in_range(self, rng):
        for _ in range(25):
            v = ref.random_state(rng, 3)
            psi = StateVector(3, v)
            for q in range(3):
                assert -1 - 1e-12 <= expect_z(psi, q) <= 1 + 1e-12
