import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damped_szego.errors import InvalidGridError
from damped_szego.hardy import (
    HardyState,
    from_grid,
    grid_points,
    inner_with_one,
    l2_norm_sq,
    momentum,
    to_grid,
)
from helpers import dft_from_grid_oracle, dft_to_grid_oracle, hs_norm_sq


def make_state(coeffs, n):
    full = np.zeros(n // 2, dtype=complex)
    full[: len(coeffs)] = coeffs
    return HardyState(full, n)


def test_constant_function_on_grid():
    u = make_state([1.0], 8)
    assert np.allclose(to_grid(u), 1.0, atol=1e-14)


def test_single_mode_on_grid():
    u = make_state([0.0, 1.0], 8)
    assert np.allclose(to_grid(u), np.exp(1j * grid_points(8)), atol=1e-14)


def test_round_trip_random_modes(rng):
    coeffs = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    u = HardyState(coeffs, 64)
    back = from_grid(to_grid(u))
    assert np.max(np.abs(back.coeffs - coeffs)) < 1e-13 * np.max(np.abs(coeffs))


def test_to_grid_matches_direct_summation(rng):
    coeffs = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    u = HardyState(coeffs, 64)
    assert np.max(np.abs(to_grid(u) - dft_to_grid_oracle(u))) < 1e-12


def test_projector_annihilates_negative_mode():
    x = grid_points(8)
    u = from_grid(np.exp(-1j * x))
    assert np.max(np.abs(u.coeffs)) < 1e-14


def test_projector_on_cosine():
    x = grid_points(8)
    u = from_grid(2.0 * np.cos(x))
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1.0
    assert np.max(np.abs(u.coeffs - expected)) < 1e-14


def test_from_grid_gaussian_matches_oracle():
    n = 4096
    x = grid_points(n)
    values = np.exp(-10.0 * x**2).astype(complex)
    got = from_grid(values).coeffs
    want = dft_from_grid_oracle(values)
    assert np.max(np.abs(got - want)) < 1e-12


def test_from_grid_rejects_odd_length():
    # and an empty or a 2-D sample array
    for values in (np.ones(7), np.ones(0), np.ones((4, 2))):
        with pytest.raises(InvalidGridError):
            from_grid(values)


def test_inner_with_one():
    assert inner_with_one(make_state([0.0, 1.0], 8)) == 0
    u = make_state([0.3 + 0.4j, 0.1], 8)
    assert inner_with_one(u) == 0.3 + 0.4j


def test_inner_with_one_rank_one_state():
    # u = b + c e^{ix}/(1 - p e^{ix}) has zeroth coefficient b
    b, c, p = 0.2 - 0.1j, 1.1, 0.4
    coeffs = np.zeros(64, dtype=complex)
    coeffs[0] = b
    coeffs[1:] = c * p ** np.arange(63)
    assert inner_with_one(HardyState(coeffs, 128)) == b


def test_l2_norm_single_pole():
    coeffs = np.zeros(256, dtype=complex)
    coeffs[1:] = 0.5 ** np.arange(255)
    u = HardyState(coeffs, 512)
    assert abs(l2_norm_sq(u) - 4.0 / 3.0) < 1e-12


def test_l2_norm_zero_and_direct_sum(rng):
    assert l2_norm_sq(make_state([0.0], 8)) == 0.0
    coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    u = HardyState(coeffs, 32)
    assert l2_norm_sq(u) == pytest.approx(sum(abs(z) ** 2 for z in coeffs), abs=0)


def test_momentum_single_pole():
    coeffs = np.zeros(256, dtype=complex)
    coeffs[1:] = 0.5 ** np.arange(255)
    u = HardyState(coeffs, 512)
    assert abs(momentum(u) - 16.0 / 9.0) < 1e-12


def test_momentum_constant_and_circle():
    assert momentum(make_state([3.0 - 1j], 16)) == 0.0
    c = 1.3 + 0.2j
    assert momentum(make_state([0.0, c], 16)) == pytest.approx(abs(c) ** 2, rel=1e-15)


def test_hs_norm_constant_and_single_mode():
    for s in (0.5, 1.0, 2.0):
        assert hs_norm_sq(make_state([1.0], 8), s) == 1.0
    assert hs_norm_sq(make_state([0.0, 1.0], 8), 1.0) == 2.0


def test_hs_norm_geometric_tail():
    p = 0.9
    coeffs = np.zeros(2048, dtype=complex)
    coeffs[1:] = p ** np.arange(2047)
    u = HardyState(coeffs, 4096)
    k = np.arange(1, 5000)
    oracle = np.sum((1.0 + k**2) * (p**2) ** (k - 1))
    assert hs_norm_sq(u, 1.0) == pytest.approx(oracle, rel=1e-12)


def test_parseval(rng):
    coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    u = HardyState(coeffs, 32)
    grid = to_grid(u)
    assert np.sum(np.abs(grid) ** 2) / 32 == pytest.approx(l2_norm_sq(u), rel=1e-12)


def test_projection_idempotent(rng):
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    once = from_grid(values)
    twice = from_grid(to_grid(once))
    assert np.max(np.abs(once.coeffs - twice.coeffs)) < 1e-13


def test_hs_monotone_in_s(rng):
    coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    u = HardyState(coeffs, 32)
    values = [hs_norm_sq(u, s) for s in (0.5, 0.75, 1.0, 1.5, 2.0)]
    assert all(a <= b * (1 + 1e-15) for a, b in zip(values, values[1:]))


def test_state_validation():
    with pytest.raises(InvalidGridError):
        HardyState(np.ones(4, dtype=complex), 7)
    with pytest.raises(InvalidGridError):
        HardyState(np.ones(3, dtype=complex), 8)
    with pytest.raises(InvalidGridError):
        HardyState(np.array([1.0, np.inf, 0, 0], dtype=complex), 8)


def test_state_immutable():
    u = HardyState(np.zeros(4, dtype=complex), 8)
    with pytest.raises(ValueError):
        u.coeffs[0] = 1.0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
        ),
        min_size=1,
        max_size=16,
    )
)
def test_round_trip_property(parts):
    coeffs = np.zeros(16, dtype=complex)
    for i, (re, im) in enumerate(parts):
        coeffs[i] = re + 1j * im
    u = HardyState(coeffs, 32)
    back = from_grid(to_grid(u))
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    assert np.max(np.abs(back.coeffs - coeffs)) < 1e-13 * scale
