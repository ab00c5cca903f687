import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damped_szego.errors import BlowUpError, ResolutionLossWarning
from damped_szego.hardy import HardyState
from damped_szego.hankel import eigenvalues, gram_k
from damped_szego.initial_conditions import parse_initial_condition, pole_state
from damped_szego.reporting import diagnostics_csv
from damped_szego.solver import (
    SolverConfig,
    _grid,
    _nonlinear_coeffs,
    check_lyapunov,
    evolve,
    rhs,
    rk4_step,
)

from helpers import full_grid_evolve, full_grid_rhs


def mode_state(values, n):
    coeffs = np.zeros(n // 2, dtype=complex)
    coeffs[: len(values)] = values
    return HardyState(coeffs, n)


# --- right-hand side -------------------------------------------------------

def test_rhs_circle_orbit():
    c = 2.0 - 0.5j
    u = mode_state([0.0, c], 32)
    for alpha in (0.0, 1.0, 3.0):
        out = rhs(u, alpha)
        expected = np.zeros(16, dtype=complex)
        expected[1] = -1j * abs(c) ** 2 * c
        assert np.max(np.abs(out.coeffs - expected)) < 1e-13


def test_rhs_zero():
    u = mode_state([0.0], 16)
    assert np.max(np.abs(rhs(u, 1.0).coeffs)) == 0.0


def test_rhs_constant_state():
    b = 0.7 + 0.2j
    alpha = 1.3
    out = rhs(mode_state([b], 16), alpha)
    assert out.coeffs[0] == pytest.approx(-1j * abs(b) ** 2 * b - alpha * b, rel=1e-14)
    assert np.max(np.abs(out.coeffs[1:])) < 1e-15


def test_rhs_dealias_agrees_on_resolved_state():
    u = pole_state(0.4, 256)
    a = rhs(u, 1.0).coeffs
    # the same term on a doubled, alias-free 2N-point grid
    b = full_grid_rhs(u.coeffs, 512, 1.0)
    # aliasing only pollutes the (zero-padded) unresolved tail here
    assert np.max(np.abs(a - b)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_band_grid_is_alias_free(data):
    n = data.draw(st.sampled_from([16, 64, 256, 1024]))
    ka = data.draw(st.integers(1, n // 4))
    alpha = data.draw(st.floats(0.0, 3.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # ka live modes: the cubic term fills exactly the b = 2*ka - 1 lowest modes
    u = mode_state(rng.standard_normal(ka) + 1j * rng.standard_normal(ka), n)
    expected = full_grid_rhs(u.coeffs, n, alpha)
    out = rhs(u, alpha).coeffs
    assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))
    # an RK4 stage input fills all b modes; its term on them must still be exact
    b = 2 * ka - 1
    band = rng.standard_normal(b) + 1j * rng.standard_normal(b)
    expected = full_grid_rhs(band, n, 0.0)
    out = -1j * _nonlinear_coeffs(band, _grid(b, n))
    assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))


# --- single steps ----------------------------------------------------------

def test_rk4_zero_state_fixed():
    u = mode_state([0.0], 16)
    out = rk4_step(u, 1.0, 1e-2)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_rk4_circle_phase_accuracy():
    # exact solution c e^{-i|c|^2 t} e^{ix}; alpha irrelevant on the circle
    u = mode_state([0.0, 1.0], 16)
    dt = 1e-3
    for _ in range(1000):
        u = rk4_step(u, 0.0, dt)
    assert abs(u.coeffs[1] - np.exp(-1j)) < 1e-10


def test_rk4_halving_dt_gains_factor_16():
    # resolved to t=2 at N=512; unfiltered, so no 1e-12 error floor (see criterion 11)
    u0 = pole_state(0.5, 512)
    t_end = 2.0

    def final(dt):
        cfg = SolverConfig(alpha=1.0, dt=dt, t_end=t_end, grid_size=512, krasny_threshold=0.0,
                           record_stride=round(0.04 / dt))
        result = evolve(u0, cfg)
        assert not result.resolution_loss, (dt, result.resolution_loss_time)
        return result.u_final.coeffs

    ref = final(2.5e-4)
    err_h = np.linalg.norm(final(4e-3) - ref)
    err_h2 = np.linalg.norm(final(2e-3) - ref)
    ratio = err_h / err_h2
    assert 10.0 < ratio < 24.0


def test_krasny_filter():
    # the filter evolve runs: after the step, every mode below the threshold is zeroed
    u = mode_state([1.0, 1e-13, 1e-11], 16)
    out = rk4_step(u, 1.0, 1e-3, krasny_threshold=1e-12)
    assert out.coeffs[1] == 0.0
    assert abs(out.coeffs[2]) == pytest.approx(1e-11, rel=1e-2)
    untouched = rk4_step(u, 1.0, 1e-3, krasny_threshold=0.0)
    assert abs(untouched.coeffs[1]) == pytest.approx(1e-13, rel=1e-2)
    kept = np.where(np.abs(untouched.coeffs) >= 1e-12, untouched.coeffs, 0.0)
    assert np.allclose(out.coeffs, kept, rtol=0.0, atol=1e-15)
    zero = rk4_step(mode_state([0.0], 16), 1.0, 1e-3, krasny_threshold=1e-12)
    assert np.max(np.abs(zero.coeffs)) == 0.0


# --- evolve ----------------------------------------------------------------

def test_evolve_circle_conserves_l2_and_momentum():
    u0 = mode_state([0.0, 1.5], 16)
    cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=20.0, grid_size=16, record_stride=100)
    series = evolve(u0, cfg).diagnostics
    assert np.max(np.abs(series.l2_sq - series.l2_sq[0])) < 1e-12 * series.l2_sq[0]
    assert np.max(np.abs(series.momentum - series.momentum[0])) < 1e-12 * series.momentum[0]


def test_evolve_undamped_conserves_l2():
    # resolved to t=1.5 at N=512
    u0 = pole_state(0.5, 512)
    cfg = SolverConfig(alpha=0.0, dt=1e-3, t_end=1.5, grid_size=512, record_stride=100)
    result = evolve(u0, cfg)
    assert not result.resolution_loss, result.resolution_loss_time
    series = result.diagnostics
    drift = np.max(np.abs(series.l2_sq - series.l2_sq[0])) / series.l2_sq[0]
    assert drift < 1e-9


def test_evolve_damped_monotone_l2_and_momentum():
    u0 = pole_state(0.5, 1024)
    cfg = SolverConfig(alpha=1.0, dt=5e-4, t_end=5.0, grid_size=1024, record_stride=10)
    series = evolve(u0, cfg).diagnostics
    assert np.all(np.diff(series.l2_sq) <= 1e-10)
    drift = np.max(np.abs(series.momentum - series.momentum[0])) / series.momentum[0]
    assert drift < 1e-10


def test_evolve_perturbed_circle_l2_dips():
    # N=2048 resolves the run to t=20 (N=512 loses resolution at t=13.26).
    u0 = mode_state([0.1, 1.0], 2048)
    cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=20.0, grid_size=2048, record_stride=20)
    result = evolve(u0, cfg)
    assert not result.resolution_loss
    series = result.diagnostics
    assert series.l2_sq.min() < series.l2_sq[0] - 0.1**2


def test_evolve_records_requested_sobolev_norms():
    u0 = pole_state(0.3, 64)
    cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=0.1, grid_size=64,
                       sobolev_exponents=(0.5, 1.0, 1.5))
    series = evolve(u0, cfg).diagnostics
    assert set(series.hs_sq) == {0.5, 1.0, 1.5}
    assert all(len(series.hs_sq[s]) == len(series) for s in series.hs_sq)


@pytest.mark.filterwarnings("ignore::damped_szego.errors.ResolutionLossWarning")
def test_evolve_snapshots():
    u0 = pole_state(0.5, 64)
    cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=1.0, grid_size=64)
    result = evolve(u0, cfg, snapshot_times=(0.0, 0.5, 1.0))
    assert [t for t, _ in result.snapshots] == [0.0, 0.5, 1.0]
    assert np.array_equal(result.snapshots[0][1].coeffs, u0.coeffs)


@pytest.mark.filterwarnings("ignore::damped_szego.errors.ResolutionLossWarning")
@pytest.mark.parametrize(
    "u0, dt, t_end, threshold",
    [
        (parse_initial_condition("gaussian:10", 1024), 2e-3, 5.0, 1e-12),
        (pole_state(0.5, 256), 1e-3, 3.0, 1e-12),
        # filter off on a zero-padded state: every step runs on the full grid
        (mode_state([0.5, 0.8, 0.6j, 0.3], 64), 1e-2, 1.0, 0.0),
        # odd modes only: the flow keeps them odd, so the even mode b-1 stays
        # empty while the band really grows
        (mode_state([0.0, 1.0, 0.0, 0.5], 64), 1e-2, 1.0, 1e-12),
    ],
    ids=["gaussian", "pole", "unfiltered", "odd_modes"],
)
def test_evolve_matches_full_grid_oracle(u0, dt, t_end, threshold):
    cfg = SolverConfig(alpha=1.0, dt=dt, t_end=t_end, grid_size=u0.grid_size,
                       krasny_threshold=threshold, record_stride=10)
    result = evolve(u0, cfg)
    rows, loss_time, _ = full_grid_evolve(u0, 1.0, dt, cfg.n_steps, threshold, 10)
    series = result.diagnostics
    assert np.array_equal(series.t, rows[:, 0])
    for col, got in enumerate((series.l2_sq, series.momentum, series.u0_abs, series.hs_sq[1.0]), 1):
        assert np.max(np.abs(got - rows[:, col])) <= 1e-12 * np.max(np.abs(rows[:, col]))
    assert result.resolution_loss_time == loss_time


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_evolve_matches_full_grid_oracle_on_sparse_data(data):
    # a few live modes in one residue class r mod p, which the flow keeps
    p = data.draw(st.integers(1, 4))
    r = data.draw(st.integers(0, p - 1))
    live = data.draw(st.integers(1, 4))
    dt = data.draw(st.sampled_from([1e-2, 1e-3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(r + p * live, dtype=complex)
    values[r::p] = rng.standard_normal(live) + 1j * rng.standard_normal(live)
    u0 = mode_state(values, 128)
    cfg = SolverConfig(alpha=1.0, dt=dt, t_end=20 * dt, grid_size=128, record_stride=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionLossWarning)
        series = evolve(u0, cfg).diagnostics
    rows, _, _ = full_grid_evolve(u0, 1.0, dt, cfg.n_steps, cfg.krasny_threshold, 5)
    for col, got in enumerate((series.l2_sq, series.momentum, series.u0_abs, series.hs_sq[1.0]), 1):
        assert np.max(np.abs(got - rows[:, col])) <= 1e-12 * np.max(np.abs(rows[:, col]))


def test_evolve_with_dealias_matches_on_resolved_data():
    u0 = pole_state(0.4, 256)
    cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=0.5, grid_size=256, record_stride=100)
    plain = evolve(u0, cfg).u_final.coeffs
    # full-grid RK4 on a doubled, alias-free 2N-point grid
    _, _, padded = full_grid_evolve(u0, 1.0, 1e-3, cfg.n_steps, cfg.krasny_threshold, 100, grid=512)
    # the resolved run keeps aliasing below the Krasny floor
    assert np.max(np.abs(plain - padded)) < 1e-11


def test_evolve_grid_mismatch():
    u0 = pole_state(0.5, 64)
    cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=1.0, grid_size=128)
    with pytest.raises(ValueError):
        evolve(u0, cfg)


def test_blow_up_detection():
    u0 = mode_state([10.0, 10.0], 32)
    cfg = SolverConfig(alpha=0.0, dt=10.0, t_end=100.0, grid_size=32)
    with pytest.raises(BlowUpError) as err:
        evolve(u0, cfg)
    assert 0 < err.value.t_reached <= 100.0


def test_resolution_loss_flag():
    u0 = pole_state(0.5, 16)
    cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=0.01, grid_size=16, krasny_threshold=0.0)
    with pytest.warns(ResolutionLossWarning):
        result = evolve(u0, cfg)
    assert result.resolution_loss
    assert result.resolution_loss_time == 0.0


def test_spectrum_invariant_under_damping():
    u0 = pole_state(0.5, 512)
    cfg = SolverConfig(alpha=1.0, dt=5e-4, t_end=2.0, grid_size=512)
    result = evolve(u0, cfg)
    ev0 = eigenvalues(gram_k(u0, 192))[:3]
    ev1 = eigenvalues(gram_k(result.u_final, 192))[:3]
    assert np.max(np.abs(ev0 - ev1)) < 1e-6 * ev0[0]


# --- Lyapunov check --------------------------------------------------------

@pytest.mark.filterwarnings("ignore::damped_szego.errors.ResolutionLossWarning")
def test_lyapunov_residual_undamped():
    u0 = pole_state(0.5, 256)
    cfg = SolverConfig(alpha=0.0, dt=1e-3, t_end=2.0, grid_size=256, record_stride=10)
    series = evolve(u0, cfg).diagnostics
    assert check_lyapunov(series, 0.0) < 1e-10


def test_lyapunov_residual_circle():
    u0 = mode_state([0.0, 1.0], 16)
    cfg = SolverConfig(alpha=2.0, dt=1e-3, t_end=2.0, grid_size=16, record_stride=10)
    series = evolve(u0, cfg).diagnostics
    assert check_lyapunov(series, 2.0) < 1e-10


def test_lyapunov_residual_damped_pole():
    dt, stride = 5e-4, 2
    u0 = pole_state(0.5, 512)
    cfg = SolverConfig(alpha=1.0, dt=dt, t_end=2.0, grid_size=512, record_stride=stride)
    series = evolve(u0, cfg).diagnostics
    assert check_lyapunov(series, 1.0) < max(1e-6, 2.0 * (stride * dt) ** 2)


def test_lyapunov_needs_three_rows():
    u0 = pole_state(0.5, 64)
    cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=1e-3, grid_size=64)
    series = evolve(u0, cfg).diagnostics
    with pytest.raises(ValueError):
        check_lyapunov(series, 1.0)


# --- serialization ---------------------------------------------------------

def test_diagnostics_csv_layout_and_determinism():
    u0 = pole_state(0.5, 64)
    cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=0.05, grid_size=64,
                       sobolev_exponents=(1.0, 0.5))
    a = diagnostics_csv(evolve(u0, cfg).diagnostics)
    b = diagnostics_csv(evolve(u0, cfg).diagnostics)
    assert a == b
    header = a.splitlines()[0]
    assert header == "t,l2_sq,momentum,u0_abs,hs_sq_0.50,hs_sq_1.00"
    assert a.endswith("\n") and "\r" not in a


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=-1.0, dt=1e-3, t_end=1.0, grid_size=64)
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0, dt=0.0, t_end=1.0, grid_size=64)
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0, dt=1e-3, t_end=1.0, grid_size=63)
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0, dt=1e-3, t_end=1.0, grid_size=64, krasny_threshold=1.5)
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0, dt=1e-3, t_end=1.0, grid_size=64, sobolev_exponents=(0.2,))
