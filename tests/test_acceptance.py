"""End-to-end acceptance criteria at their stated tolerances.

Each test prints a PASS line (collected in the terminal summary) so a full
run reads as a checklist.  The heavy spectral runs share module-scoped
fixtures; expect the module to take several minutes.
"""

import numpy as np
import pytest

from conftest import log_acceptance
from damped_szego.fitting import linear_fit, r_squared
from damped_szego.hankel import Verdict, eigenvalues, gram_k
from damped_szego.hardy import momentum as state_momentum
from damped_szego.initial_conditions import (
    blaschke_state,
    circle_state,
    parse_initial_condition,
    pole_state,
)
from damped_szego.presets import build_config, run_experiment
from damped_szego.solver import SolverConfig, check_lyapunov, evolve
from damped_szego.wmanifold import (
    ReducedState,
    WState,
    asymptotic_constants,
    beta_decay_rate,
    delta_beta_ratio,
    gamma_tail_fit,
    integrate_reduced,
    linearization_matrix,
    linearized_q0,
    stable_manifold_trajectory,
    w_to_hardy,
)
from helpers import criterion, reference_integrate_w

PARAM_GRID = [(a, m) for a in (1.0, 2.0) for m in (1.0, 16.0 / 9.0, 3.0)]


@pytest.fixture(scope="module")
def single_pole_run():
    """The reference experiment: p=0.5, alpha=1, N=4096, dt=2e-4, t in [0, 20]."""
    u0 = pole_state(0.5, 4096)
    cfg = SolverConfig(alpha=1.0, dt=2e-4, t_end=20.0, grid_size=4096,
                       record_stride=10)
    return u0, evolve(u0, cfg)


@pytest.fixture(scope="module")
def two_pole_run():
    """Two-pole preset configuration integrated to t=5 with spectrum snapshots."""
    u0 = parse_initial_condition("poles:0.7,0.8", 4096)
    cfg = SolverConfig(alpha=1.0, dt=2e-4, t_end=5.0, grid_size=4096, record_stride=50)
    return evolve(u0, cfg, snapshot_times=(0.0, 2.5, 5.0))


def test_criterion_01_h1_growth_slope(single_pole_run):
    u0, result = single_pole_run
    series = result.diagnostics
    m = state_momentum(u0)
    target = asymptotic_constants(1.0, m).growth_coeff(1.0)
    mask = series.t >= 10.0
    slope, _ = linear_fit(series.t[mask], series.h1_sq[mask])
    rel = abs(slope - target) / target
    assert rel < 0.05
    log_acceptance(f"PASS 01 H1 growth slope: fitted {slope:.4f} vs {target:.4f} "
                   f"({100 * rel:.2f}% off, tol 5%)")


def test_criterion_02_momentum_conservation(single_pole_run):
    _, result = single_pole_run
    series = result.diagnostics
    drift = np.max(np.abs(series.momentum - series.momentum[0])) / series.momentum[0]
    assert drift <= 1e-9
    log_acceptance(f"PASS 02 momentum conservation: relative drift {drift:.3e} (tol 1e-9)")


def test_criterion_03_lyapunov_residual(single_pole_run):
    _, result = single_pole_run
    resid = check_lyapunov(result.diagnostics, alpha=1.0)
    assert resid <= 1e-5

    # N=512 keeps the undamped run resolved to t=1.5 (N=256 loses resolution at t=1.3)
    u0 = pole_state(0.5, 512)
    cfg = SolverConfig(alpha=0.0, dt=1e-3, t_end=1.5, grid_size=512, record_stride=100)
    run0 = evolve(u0, cfg)
    assert not run0.resolution_loss, run0.resolution_loss_time
    series0 = run0.diagnostics
    drift0 = np.max(np.abs(series0.l2_sq - series0.l2_sq[0])) / series0.l2_sq[0]
    assert drift0 <= 1e-9
    log_acceptance(f"PASS 03 Lyapunov residual {resid:.3e} (tol 1e-5); "
                   f"undamped L2 drift {drift0:.3e} (tol 1e-9)")


def test_criterion_04_spectrum_invariance(two_pole_run):
    result = two_pole_run
    assert [t for t, _ in result.snapshots] == [0.0, 2.5, 5.0]

    def top5(state):
        evals = eigenvalues(gram_k(state, 512))
        out = np.zeros(5)
        out[:5] = evals[:5]
        return out

    spectra = [top5(state) for _, state in result.snapshots]
    base = spectra[0]
    worst = max(float(np.max(np.abs(s - base)) / base[0]) for s in spectra[1:])
    assert worst <= 1e-6
    log_acceptance(f"PASS 04 Lax spectrum invariance: worst relative change {worst:.3e} "
                   f"(tol 1e-6)")


def test_criterion_05_verdicts():
    strict = criterion(pole_state(0.5, 1024), size=256)
    assert strict.verdict is Verdict.EXPLODES_STRICT
    equal = criterion(blaschke_state([0.3], 1024), size=256)
    assert equal.verdict is Verdict.EXPLODES_EQUAL_CASE
    circle = criterion(circle_state(1.0, 1024), size=256)
    assert circle.verdict is Verdict.INCONCLUSIVE
    log_acceptance("PASS 05 verdicts: pole 0.5 strict, Blaschke 0.3 equal-case, "
                   "circle inconclusive")


def test_criterion_06_cross_oracle_agreement():
    w0 = WState(0, 1.0, 0.5)
    n = 1024
    cfg = SolverConfig(alpha=1.0, dt=2.5e-4, t_end=5.0, grid_size=n, record_stride=20000)
    pde = evolve(w_to_hardy(w0, n), cfg).u_final
    # the (b, c, p) system, which only the test oracle steps
    _, b, c, p, _ = reference_integrate_w(w0, 1.0, 1e-4, 5.0, 50000)
    ode = w_to_hardy(WState(b[-1], c[-1], p[-1]), n)
    diff = float(np.sqrt(np.sum(np.abs(pde.coeffs - ode.coeffs) ** 2)))
    assert diff <= 1e-6
    log_acceptance(f"PASS 06 cross-oracle: PDE vs rank-one ODE l2 distance {diff:.3e} "
                   f"at t=5 (tol 1e-6)")


def test_criterion_07_kappa_asymptotics():
    m = 16.0 / 9.0
    kappa = asymptotic_constants(1.0, m).kappa
    r0 = ReducedState(beta=0.0, gamma=0.75 * m, zeta=0j)
    traj = integrate_reduced(r0, 1.0, m, dt=1e-3, t_end=500.0, record_stride=100)
    fitted = gamma_tail_fit(traj, window=(250.0, 500.0))
    rel = abs(fitted - kappa) / kappa
    assert rel < 0.05
    log_acceptance(f"PASS 07 kappa fit: gamma*t on [250,500] = {fitted:.4f} vs "
                   f"kappa {kappa:.4f} ({100 * rel:.2f}% off, tol 5%)")


def test_criterion_08_closed_form_identities():
    worst = 0.0
    for alpha, m in PARAM_GRID:
        c = asymptotic_constants(alpha, m)
        root = np.sqrt(c.a**2 - alpha**2)
        resid = abs(c.a * root - 2.0 * m * alpha) / (2.0 * m * alpha)
        resid = max(resid, abs(c.lambda_plus + c.lambda_minus + alpha))
        _, eigvals = linearization_matrix(alpha, m)
        expected = sorted(
            [alpha - c.a, alpha - 1j * root, alpha + 1j * root, alpha + c.a],
            key=lambda z: (z.real, z.imag),
        )
        resid = max(resid, float(np.max(np.abs(eigvals - np.array(expected)))) / (alpha + c.a))
        worst = max(worst, resid)
    assert worst <= 1e-10
    log_acceptance(f"PASS 08 closed-form identities on {len(PARAM_GRID)} (alpha, M) pairs: "
                   f"worst residual {worst:.3e} (tol 1e-10)")


def test_criterion_09_stable_manifold():
    c = asymptotic_constants(1.0, 1.0)
    res = stable_manifold_trajectory(1.0, 1.0, 1.0)
    rate, _ = beta_decay_rate(res)
    ratio, _ = delta_beta_ratio(res)
    ratio_target = (c.a - 1.0) / (c.a + 1.0)
    rate_rel = abs(rate - c.decay_rate) / c.decay_rate
    ratio_rel = abs(ratio - ratio_target) / ratio_target
    assert rate_rel < 0.01
    assert ratio_rel < 0.01
    assert res.roundtrip_residual <= 1e-8
    log_acceptance(f"PASS 09 stable manifold: decay rate off {100 * rate_rel:.4f}%, "
                   f"delta/beta off {100 * ratio_rel:.4f}%, roundtrip "
                   f"{res.roundtrip_residual:.3e} (tols 1%, 1%, 1e-8)")


def test_criterion_10_baby_example():
    eps = 0.05
    u0 = parse_initial_condition(f"perturbed_circle:{eps}", 2048)
    cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=20.0, grid_size=2048, record_stride=10)
    series = evolve(u0, cfg).diagnostics
    min_l2 = float(series.l2_sq.min())
    assert min_l2 <= 1.0

    c = asymptotic_constants(1.0, 1.0)
    t = np.linspace(30.0, 40.0, 3)
    q = linearized_q0(1.0, 1.0, 1.0, -(1.0 + 1j), t)
    rate = (np.log(abs(q[-1])) - np.log(abs(q[0]))) / (t[-1] - t[0])
    rate_err = abs(rate - 0.5 * (c.a - 1.0))
    assert rate_err <= 1e-10
    log_acceptance(f"PASS 10 baby example: min L2^2 {min_l2:.4f} <= 1; linearized "
                   f"growth-rate error {rate_err:.2e} (tol 1e-10)")


def test_criterion_11_rk4_order():
    # N=512 keeps the run resolved to t=2 (N=256 loses resolution at t=1.63).
    # The Krasny filter is off: its 1e-12 floor caps the error at 2.99e-9 at
    # dt=2e-3 (2.34e-9 unfiltered), which bends the second order down to 3.66.
    # t_end is a multiple of every dt, so each run stops at the same time.
    u0 = pole_state(0.5, 512)
    t_end = 2.0

    def final(dt):
        cfg = SolverConfig(alpha=1.0, dt=dt, t_end=t_end, grid_size=512, krasny_threshold=0.0,
                           record_stride=round(0.04 / dt))
        result = evolve(u0, cfg)
        assert not result.resolution_loss, (dt, result.resolution_loss_time)
        return result.u_final.coeffs

    ref = final(1.25e-4)
    errs = [float(np.linalg.norm(final(dt) - ref)) for dt in (8e-3, 4e-3, 2e-3)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(3.7 <= o <= 4.3 for o in orders)
    log_acceptance(f"PASS 11 RK4 order: observed {', '.join(f'{o:.2f}' for o in orders)} "
                   f"(required [3.7, 4.3])")


@pytest.fixture(scope="module")
def gaussian_preset_run():
    """The ``gaussian`` preset as configured: width 10, N=4096, dt=2e-3, t in [0, 100]."""
    return run_experiment(build_config("gaussian"))


def test_gaussian_substitute_check(gaussian_preset_run):
    """Desk-scale stand-in for the long-horizon Gaussian experiment.

    The datum has ||u0||^2 < F(u0), so every H^s norm with s > 1/2 tends to
    infinity along the flow; no growth rate is proved off the rank-one
    manifold.  The preset gates what is proved and conserved: the
    ExplodesStrict verdict, momentum drift <= 1e-8, top-5 K_u^2 eigenvalues
    of u(0) and u(100) equal to 1e-6, and a positive trend of the squared
    H^1 norm.  The last-half R^2 of its linear fit (0.756: the window covers
    about 0.6 of a beat of period ~2 pi / lambda_1) is reported, not gated.
    """
    result = gaussian_preset_run
    by_name = {c["name"]: c for c in result.checks}
    assert set(by_name) == {"momentum_drift", "positive_slope", "verdict",
                            "spectrum_invariance"}
    drift = by_name["momentum_drift"]["value"]
    invariance = by_name["spectrum_invariance"]["value"]
    assert drift <= 1e-8
    assert by_name["positive_slope"]["value"] > 0
    assert by_name["verdict"]["value"] == "ExplodesStrict"
    assert invariance <= 1e-6
    assert result.passed
    r2 = result.values["hs_fit_r2"]
    log_acceptance(f"PASS gaussian substitute: verdict ExplodesStrict; momentum drift "
                   f"{drift:.2e} (tol 1e-8); K_u^2 top-5 change {invariance:.2e} (tol 1e-6); "
                   f"H1^2 slope {by_name['positive_slope']['value']:.4f} > 0; "
                   f"last-half R^2 {r2:.4f} (measured, not gated)")


def test_gaussian_run_is_resolved(gaussian_preset_run):
    """The gaussian preset's squared H^1 norm, R^2 included, is resolved.

    A run on a quarter of the grid at half the step must reproduce the
    preset's squared H^1 norm at every shared record time.
    """
    series = gaussian_preset_run.artifacts["diagnostics"]
    u0 = parse_initial_condition("gaussian:10", 1024)
    cfg = SolverConfig(alpha=1.0, dt=1e-3, t_end=100.0, grid_size=1024, record_stride=20)
    coarse = evolve(u0, cfg)
    assert not coarse.resolution_loss
    other = coarse.diagnostics
    # Both runs record every 0.02 time units.
    keys, ours, theirs = np.intersect1d(np.rint(series.t / 0.02).astype(int),
                                        np.rint(other.t / 0.02).astype(int),
                                        return_indices=True)
    assert keys.shape[0] == series.t.shape[0]
    h1, h1_other = series.h1_sq[ours], other.h1_sq[theirs]
    rel = float(np.max(np.abs(h1_other - h1) / h1))
    assert rel <= 1e-9

    half = other.t >= 0.5 * other.t[-1]
    slope, intercept = linear_fit(other.t[half], other.h1_sq[half])
    r2_other = r_squared(other.t[half], other.h1_sq[half], slope, intercept)
    r2 = gaussian_preset_run.values["hs_fit_r2"]
    assert abs(r2_other - r2) <= 1e-6
    log_acceptance(f"PASS gaussian resolution: N=1024, dt=1e-3 vs preset N=4096, dt=2e-3: "
                   f"H1^2 max relative difference {rel:.2e} (tol 1e-9); last-half R^2 "
                   f"{r2_other:.6f} vs {r2:.6f} (tol 1e-6)")
