import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damped_szego.errors import (
    FitError,
    FixedPointDivergenceError,
    NotInManifoldError,
)
from damped_szego.hardy import GridField, from_grid, grid_points, hs_norm_sq
from damped_szego.initial_conditions import gaussian_state
from damped_szego.solver import SolverConfig, evolve
from damped_szego.wmanifold import (
    ReducedState,
    ReducedTrajectory,
    WState,
    WTrajectory,
    asymptotic_constants,
    beta_decay_rate,
    classify_w_run,
    delta_beta_ratio,
    gamma_tail_fit,
    growth_fit,
    hardy_to_w,
    integrate_reduced,
    integrate_w,
    linearization_matrix,
    linearized_q0,
    reduced_from_w,
    reduced_rhs,
    sobolev_sq_w,
    stable_manifold_trajectory,
    w_rhs,
    w_to_hardy,
)
from damped_szego.wmanifold import _delta_rhs
from helpers import (
    finite_diff,
    reference_delta_run,
    reference_integrate_reduced,
    reference_integrate_w,
)

PARAM_GRID = [(a, m) for a in (1.0, 2.0) for m in (1.0, 16.0 / 9.0, 3.0)]


# --- conversions ------------------------------------------------------------

def test_w_to_hardy_simple_cases():
    u = w_to_hardy(WState(0, 1, 0), 16)
    expected = np.zeros(8, dtype=complex)
    expected[1] = 1.0
    assert np.array_equal(u.coeffs, expected)

    u = w_to_hardy(WState(0, 1, 0.5), 512)
    assert np.allclose(u.coeffs[1:], 0.5 ** np.arange(255), atol=0)
    assert WState(0, 1, 0.5).momentum == pytest.approx(16.0 / 9.0, rel=1e-15)


def test_w_to_hardy_matches_rational_sampling():
    w = WState(1.0, 1.0, 0.5)
    n = 256
    x = grid_points(n)
    z = np.exp(1j * x)
    sampled = from_grid(GridField(w.b + w.c * z / (1.0 - w.p * z)))
    direct = w_to_hardy(w, n)
    assert np.max(np.abs(sampled.coeffs - direct.coeffs)) < 1e-12


def test_w_rejects_bad_parameters():
    with pytest.raises(NotInManifoldError):
        WState(0, 1, 1.0)
    with pytest.raises(NotInManifoldError):
        WState(0, 0, 0.5)


def test_hardy_to_w_round_trip():
    w = WState(0.3 - 0.1j, 0.8 + 0.2j, 0.4 * np.exp(0.3j))
    back = hardy_to_w(w_to_hardy(w, 256))
    assert abs(back.b - w.b) < 1e-12
    assert abs(back.c - w.c) < 1e-12
    assert abs(back.p - w.p) < 1e-12


def test_hardy_to_w_rejects_gaussian():
    with pytest.raises(NotInManifoldError) as err:
        hardy_to_w(gaussian_state(10.0, 256))
    assert err.value.max_deviation is not None


def test_hardy_to_w_rejects_vanishing_c():
    u = w_to_hardy(WState(1.0, 1.0, 0.0), 64)
    coeffs = u.coeffs.copy()
    coeffs[1] = 0.0
    from damped_szego.hardy import HardyState

    with pytest.raises(NotInManifoldError):
        hardy_to_w(HardyState(coeffs, 64))


# --- vector fields ----------------------------------------------------------

def test_w_rhs_circle_orbit():
    c = 1.2 - 0.4j
    db, dc, dp = w_rhs(0j, c, 0j, alpha=1.0)
    m = abs(c) ** 2
    assert db == 0
    assert dp == 0
    assert abs(dc - (-1j * m * c)) < 1e-14


def test_w_rhs_b_zero():
    c, p = 1.0 + 0.5j, 0.3 - 0.2j
    m = WState(0, c, p).momentum
    db, dc, dp = w_rhs(0j, c, p, alpha=2.0)
    assert abs(db - (-1j * m * c * np.conj(p))) < 1e-12
    assert abs(dc - (-1j * m * c)) < 1e-12
    assert abs(dp - (-1j * m * (1 - abs(p) ** 2) * p)) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_momentum_derivative_vanishes(alpha):
    w = WState(0.4 - 0.2j, 1.1 + 0.3j, 0.35 * np.exp(1.1j))
    db, dc, dp = w_rhs(w.b, w.c, w.p, alpha)
    gt = 1.0 - abs(w.p) ** 2
    # chain rule with closed-form partial derivatives of M(b, c, p)
    dm = (
        2.0 * (np.conj(w.c) * dc).real / gt**2
        + 4.0 * abs(w.c) ** 2 * (np.conj(w.p) * dp).real / gt**3
    )
    scale = w.momentum * (1.0 + alpha + w.momentum)
    assert abs(dm) < 1e-12 * scale

    # finite-difference oracle along the flow direction
    def m_along(tau):
        return WState(w.b + tau * db, w.c + tau * dc, w.p + tau * dp).momentum

    d1, _ = finite_diff(m_along, 0.0, 1e-3)
    assert abs(d1) < 1e-10 * scale


def test_reduced_fixed_point_on_circle():
    m = 2.0
    db, dg, dz = reduced_rhs(0.0, m, 0j, alpha=1.0, m=m)
    assert db == 0 and dg == 0 and dz == 0

    # off the circle radius the zeta source does not vanish
    _, _, dz = reduced_rhs(0.0, 0.5 * m, 0j, alpha=1.0, m=m)
    assert abs(dz - 1j * (0.5 * m) ** 2 * (m - 0.5 * m)) < 1e-14


def test_reduced_rhs_is_pushforward_of_w_rhs():
    alpha = 1.3
    w = WState(0.25 + 0.1j, 0.9 - 0.2j, 0.45 * np.exp(0.7j))
    m = w.momentum
    db, dc, dp = w_rhs(w.b, w.c, w.p, alpha)
    # exact chain rule for beta = |b|^2, gamma = M(1-|p|^2), zeta = M c conj(b p)
    dbeta = 2.0 * (np.conj(w.b) * db).real
    dgamma = -2.0 * m * (np.conj(w.p) * dp).real
    dzeta = m * (
        dc * np.conj(w.b * w.p)
        + w.c * np.conj(db) * np.conj(w.p)
        + w.c * np.conj(w.b) * np.conj(dp)
    )
    r = reduced_from_w(w)
    rb, rg, rz = reduced_rhs(r.beta, r.gamma, r.zeta, alpha, m)
    scale = max(1.0, m**2)
    assert abs(rb - dbeta) < 1e-12 * scale
    assert abs(rg - dgamma) < 1e-12 * scale
    assert abs(rz - dzeta) < 1e-12 * scale

    # finite-difference pushforward oracle
    def pulled(tau):
        ws = WState(w.b + tau * db, w.c + tau * dc, w.p + tau * dp)
        r = reduced_from_w(ws)
        return np.array([r.beta, r.gamma, r.zeta.real, r.zeta.imag])

    d1 = (pulled(1e-4) - pulled(-1e-4)) / 2e-4
    got = np.array([rb, rg, rz.real, rz.imag])
    assert np.max(np.abs(d1 - got)) < 1e-7 * scale


def test_constraint_derivative_vanishes():
    w = WState(0.3, 1.0, 0.5)
    m = w.momentum
    r = reduced_from_w(w)
    db, dg, dz = reduced_rhs(r.beta, r.gamma, r.zeta, alpha=1.0, m=m)
    # d/dt [ |zeta|^2 - (M - gamma) gamma^2 beta ] via the chain rule
    d_constraint = (
        2.0 * (np.conj(r.zeta) * dz).real
        + dg * r.gamma**2 * r.beta
        - (m - r.gamma) * (2.0 * r.gamma * dg * r.beta + r.gamma**2 * db)
    )
    assert abs(d_constraint) < 1e-10 * max(1.0, m**3)


def test_delta_form_matches_gamma_form():
    alpha, m = 1.0, 1.5
    beta, delta = 0.04, 0.03
    zeta = 0.01 - 0.02j
    db, dd, dz = _delta_rhs(beta, delta, zeta, alpha, m)
    rb, rg, rz = reduced_rhs(beta, m - delta, zeta, alpha, m)
    assert abs(db - rb) < 1e-14
    assert abs(dd - (-rg)) < 1e-14
    assert abs(dz - rz) < 1e-14

    # its linear part is -A, with A the linearization matrix
    eps = 1e-7
    x = np.array([beta, delta, zeta.real, zeta.imag])
    a_mat, _ = linearization_matrix(alpha, m)
    db, dd, dz = _delta_rhs(eps * beta, eps * delta, eps * zeta, alpha, m)
    lin = np.array([db, dd, dz.real, dz.imag]) / eps
    assert np.max(np.abs(lin + a_mat @ x)) < 1e-8


# --- integrators ------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [dict(dt=0.0), dict(t_end=-1.0), dict(record_stride=0),
                                    dict(record_stride=-5)])
def test_integrators_reject_bad_steps(kwargs):
    args = {"dt": 1e-3, "t_end": 1.0, "record_stride": 1, **kwargs}
    with pytest.raises(ValueError):
        integrate_w(WState(0, 1.0, 0.5), 1.0, **args)
    with pytest.raises(ValueError):
        integrate_reduced(ReducedState(0.0, 1.0, 0j), 1.0, 2.0, **args)


def test_integrate_w_circle_is_steady():
    traj = integrate_w(WState(0, 1.0, 0), alpha=1.0, dt=1e-3, t_end=5.0, record_stride=100)
    assert np.max(np.abs(traj.b)) < 1e-12
    assert np.max(np.abs(traj.p)) < 1e-12
    assert np.max(np.abs(np.abs(traj.c) - 1.0)) < 1e-12


def test_integrate_w_conserves_momentum():
    traj = integrate_w(WState(0.2, 1.0, 0.4), alpha=1.0, dt=1e-3, t_end=10.0, record_stride=50)
    drift = np.max(np.abs(traj.momentum - traj.momentum[0])) / traj.momentum[0]
    assert drift < 1e-10


def test_integrate_w_matches_pde_solver():
    w0 = WState(0, 1.0, 0.5)
    traj = integrate_w(w0, alpha=1.0, dt=1e-4, t_end=1.0, record_stride=10000)
    u_ode = w_to_hardy(traj.state(-1), 256)
    cfg = SolverConfig(alpha=1.0, dt=2.5e-4, t_end=1.0, grid_size=256, record_stride=4000)
    u_pde = evolve(w_to_hardy(w0, 256), cfg).u_final
    diff = np.sqrt(np.sum(np.abs(u_ode.coeffs - u_pde.coeffs) ** 2))
    assert diff < 1e-8


def test_integrate_w_baby_l2_dips_below_momentum_level():
    traj = integrate_w(WState(0.1, 1.0, 0), alpha=1.0, dt=1e-3, t_end=20.0, record_stride=20)
    assert traj.l2_sq[0] == pytest.approx(1.01, rel=1e-12)
    assert traj.l2_sq.min() < 1.0


def test_integrate_w_gauge_covariance():
    theta = 0.7
    rot = np.exp(1j * theta)
    w0 = WState(0.1 + 0.05j, 1.0, 0.3)
    w0r = WState(w0.b * rot, w0.c * rot, w0.p)
    t1 = integrate_w(w0, alpha=1.0, dt=1e-3, t_end=2.0, record_stride=100)
    t2 = integrate_w(w0r, alpha=1.0, dt=1e-3, t_end=2.0, record_stride=100)
    assert np.max(np.abs(t2.b - rot * t1.b)) < 1e-10
    assert np.max(np.abs(t2.c - rot * t1.c)) < 1e-10
    assert np.max(np.abs(t2.p - t1.p)) < 1e-10


def test_classification_and_dichotomy():
    for dt in (1e-3, 5e-4):
        exploding = integrate_w(WState(0, 1.0, 0.5), alpha=1.0, dt=dt, t_end=10.0,
                                record_stride=100)
        assert classify_w_run(exploding) == "exploding"
        circle = integrate_w(WState(0, 1.0, 0), alpha=1.0, dt=dt, t_end=10.0,
                             record_stride=100)
        assert classify_w_run(circle) == "bounded"
        assert circle.l2_sq[0] >= circle.momentum[0] - 1e-9


def test_reduced_integration_consistent_with_w_pushforward():
    w0 = WState(0.2, 1.0, 0.3)
    alpha, m = 1.0, w0.momentum
    wtraj = integrate_w(w0, alpha, dt=1e-3, t_end=10.0, record_stride=100)
    rtraj = integrate_reduced(reduced_from_w(w0), alpha, m, dt=1e-3, t_end=10.0,
                              record_stride=100)
    zeta_w = wtraj.momentum * wtraj.c * np.conj(wtraj.b) * np.conj(wtraj.p)
    assert np.max(np.abs(wtraj.beta - rtraj.beta)) < 1e-7
    assert np.max(np.abs(wtraj.gamma - rtraj.gamma)) < 1e-7
    assert np.max(np.abs(zeta_w - rtraj.zeta)) < 1e-7


def test_reduced_integration_preserves_constraint():
    w0 = WState(0.2, 1.0, 0.3)
    m = w0.momentum
    traj = integrate_reduced(reduced_from_w(w0), 1.0, m, dt=1e-3, t_end=10.0, record_stride=100)
    resid = np.abs(np.abs(traj.zeta) ** 2 - (m - traj.gamma) * traj.gamma**2 * traj.beta)
    assert resid.max() < 1e-8 * m**3


W_STATES = [
    WState(0.2, 1.0, 0.4),
    WState(0.3, 1.0, 0.3 + 0.2j),
    WState(0.1 - 0.05j, 0.8 + 0.3j, 0.6 * np.exp(1.0j)),
]


@pytest.mark.parametrize("w0", W_STATES)
def test_integrate_w_matches_reference_bitwise(w0):
    traj = integrate_w(w0, 1.0, dt=1e-3, t_end=2.0, record_stride=7)
    ref = reference_integrate_w(w0, 1.0, 1e-3, 2.0, 7)
    for got, want in zip((traj.t, traj.b, traj.c, traj.p, traj.momentum), ref):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("w0", W_STATES)
def test_integrate_reduced_matches_reference_bitwise(w0):
    r0, m = reduced_from_w(w0), w0.momentum
    traj = integrate_reduced(r0, 1.0, m, dt=1e-3, t_end=2.0, record_stride=7)
    ref = reference_integrate_reduced(r0, 1.0, m, 1e-3, 2.0, 7)
    for got, want in zip((traj.t, traj.beta, traj.gamma, traj.zeta), ref):
        assert np.array_equal(got, want)


def test_stable_manifold_matches_reference_run():
    alpha, m = 1.0, 2.0
    res = stable_manifold_trajectory(0.5, alpha, m)
    t, y = reference_delta_run(res.seed, alpha, m, res.t_start, 0.0, 2.5e-4)
    assert np.array_equal(res.t, t[::-1])
    got = np.column_stack([res.beta, res.delta, res.zeta.real, res.zeta.imag])
    want = y[::-1]
    assert np.max(np.abs(got - want) / np.abs(want).max(axis=0)) < 1e-14


@pytest.mark.parametrize("system", ["w", "reduced"])
def test_ode_rk4_halving_dt_gains_factor_16(system):
    w0 = W_STATES[2]
    m = w0.momentum
    r0 = reduced_from_w(w0)
    t_end = 2.0

    def final(dt):
        if system == "w":
            traj = integrate_w(w0, 1.0, dt, t_end, record_stride=10**9)
            return np.array([traj.b[-1], traj.c[-1], traj.p[-1]])
        traj = integrate_reduced(r0, 1.0, m, dt, t_end, record_stride=10**9)
        return np.array([traj.beta[-1], traj.gamma[-1], traj.zeta[-1]])

    ref = final(1.25e-3)
    errs = [np.linalg.norm(final(dt) - ref) for dt in (0.04, 0.02, 0.01)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 10.0 < coarse / fine < 24.0


@settings(max_examples=25, deadline=None)
@given(
    b=st.complex_numbers(max_magnitude=1.0),
    m=st.floats(0.5, 3.0),
    phase=st.floats(0.0, 2.0 * np.pi),
    r=st.floats(0.0, 0.9),
    arg=st.floats(0.0, 2.0 * np.pi),
    alpha=st.floats(0.5, 2.0),
)
def test_ode_invariants_on_random_states(b, m, phase, r, arg, alpha):
    # c is chosen so that the momentum is m
    p = r * np.exp(1j * arg)
    w0 = WState(b, np.sqrt(m) * (1.0 - r * r) * np.exp(1j * phase), p)
    traj = integrate_w(w0, alpha, dt=5e-4, t_end=2.0, record_stride=200)
    assert np.max(np.abs(traj.momentum - w0.momentum)) < 1e-10 * w0.momentum
    assert np.all(np.diff(traj.l2_sq) <= 1e-12 * traj.l2_sq[0])

    rtraj = integrate_reduced(reduced_from_w(w0), alpha, w0.momentum, dt=5e-4, t_end=2.0,
                              record_stride=200)
    pushed = [reduced_from_w(traj.state(i)) for i in range(len(traj.t))]
    scale = max(1.0, w0.momentum) ** 3
    assert np.max(np.abs(rtraj.beta - [r.beta for r in pushed])) < 1e-9 * scale
    assert np.max(np.abs(rtraj.gamma - [r.gamma for r in pushed])) < 1e-9 * scale
    assert np.max(np.abs(rtraj.zeta - [r.zeta for r in pushed])) < 1e-9 * scale


# --- closed forms -----------------------------------------------------------

def test_asymptotic_constants_reference_values():
    c = asymptotic_constants(1.0, 1.0)
    assert c.a == pytest.approx(np.sqrt((np.sqrt(17.0) + 1.0) / 2.0), rel=1e-15)
    assert c.a == pytest.approx(1.600485, abs=1e-6)
    assert c.kappa == 1.0
    assert c.lambda_plus.real == pytest.approx(0.5 * (c.a - 1.0), rel=1e-15)

    c2 = asymptotic_constants(1.0, 16.0 / 9.0)
    m = 16.0 / 9.0
    assert c2.growth_coeff(1.0) == pytest.approx(4.0 * m**3 / (1.0 + m**2), rel=1e-13)
    assert c2.growth_coeff(1.0) == pytest.approx(5.4019, abs=1e-4)


@pytest.mark.parametrize("alpha,m", PARAM_GRID)
def test_closed_form_identities(alpha, m):
    c = asymptotic_constants(alpha, m)
    assert c.a > alpha
    assert abs(c.a * np.sqrt(c.a**2 - alpha**2) - 2.0 * m * alpha) < 1e-12 * m * alpha
    assert abs(c.lambda_plus + c.lambda_minus + alpha) < 1e-13 * max(1.0, alpha)
    assert abs(c.lambda_plus * c.lambda_minus + 1j * m * alpha) < 1e-12 * m * alpha
    for lam in (c.lambda_plus, c.lambda_minus):
        assert abs(lam**2 + alpha * lam - 1j * m * alpha) < 1e-12 * m * alpha
    assert c.lambda_plus.real > 0 > c.lambda_minus.real
    assert c.decay_rate == pytest.approx(c.a + alpha, rel=1e-15)
    assert c.dist_rate == pytest.approx(0.5 * (c.a + alpha), rel=1e-15)


def test_asymptotic_constants_rejects_bad_input():
    with pytest.raises(ValueError):
        asymptotic_constants(0.0, 1.0)
    with pytest.raises(ValueError):
        asymptotic_constants(1.0, -2.0)


@pytest.mark.parametrize("alpha,m", PARAM_GRID)
def test_linearization_matrix_spectrum(alpha, m):
    c = asymptotic_constants(alpha, m)
    a_mat, eigvals = linearization_matrix(alpha, m)
    root = np.sqrt(c.a**2 - alpha**2)
    expected = sorted(
        [alpha + c.a, alpha - c.a, alpha + 1j * root, alpha - 1j * root],
        key=lambda z: (z.real, z.imag),
    )
    assert np.max(np.abs(eigvals - np.array(expected))) < 1e-10 * (alpha + c.a)
    assert np.trace(a_mat) == pytest.approx(4.0 * alpha, rel=1e-14)
    det_expected = np.prod(expected).real
    assert np.linalg.det(a_mat) == pytest.approx(det_expected, rel=1e-10)


# --- fits --------------------------------------------------------------------

def test_gamma_tail_fit_exact_data():
    kappa = 1.37
    t = np.linspace(1.0, 100.0, 2000)
    traj = ReducedTrajectory(t=t, beta=np.zeros_like(t), gamma=kappa / t,
                             zeta=np.zeros_like(t, dtype=complex), momentum=2.0)
    assert gamma_tail_fit(traj) == pytest.approx(kappa, rel=1e-14)


def test_gamma_tail_fit_rejects_constant_gamma():
    t = np.linspace(0.0, 100.0, 500)
    traj = ReducedTrajectory(t=t, beta=np.zeros_like(t), gamma=np.full_like(t, 2.0),
                             zeta=np.zeros_like(t, dtype=complex), momentum=2.0)
    with pytest.raises(FitError):
        gamma_tail_fit(traj)


def test_gamma_tail_fit_rejects_short_window():
    t = np.linspace(1.0, 10.0, 20)
    traj = ReducedTrajectory(t=t, beta=np.zeros_like(t), gamma=1.0 / t,
                             zeta=np.zeros_like(t, dtype=complex), momentum=2.0)
    with pytest.raises(FitError):
        gamma_tail_fit(traj, window=(9.9, 10.0))


def test_linearized_q0_reference_case():
    # unit perturbation of the circle: q(0)=1, q'(0)=-(alpha+i), alpha=M=1
    c = asymptotic_constants(1.0, 1.0)
    assert c.lambda_plus.real == pytest.approx(0.3002426, abs=1e-7)
    t = np.linspace(30.0, 40.0, 5)
    vals = linearized_q0(1.0, 1.0, 1.0, -(1.0 + 1j), t)
    rate = (np.log(abs(vals[-1])) - np.log(abs(vals[0]))) / (t[-1] - t[0])
    assert abs(rate - 0.5 * (c.a - 1.0)) < 1e-10


def test_linearized_q0_zero_data():
    assert linearized_q0(1.0, 1.0, 0.0, 0.0, 3.0) == 0.0


def test_linearized_q0_satisfies_ode():
    alpha, m = 1.0, 16.0 / 9.0

    def q(t):
        return linearized_q0(alpha, m, 1.0 + 0.3j, -0.2 + 0.1j, t)

    for t in (0.5, 1.5, 3.0):
        d1, d2 = finite_diff(q, t, 5e-3)
        resid = d2 + alpha * d1 - 1j * alpha * m * q(t)
        assert abs(resid) < 1e-8


# --- stable manifold ---------------------------------------------------------

def test_stable_manifold_construction():
    c = asymptotic_constants(1.0, 1.0)
    res = stable_manifold_trajectory(1.0, 1.0, 1.0)
    assert res.roundtrip_residual < 1e-8
    rate = beta_decay_rate(res)
    assert abs(rate - c.decay_rate) < 0.01 * c.decay_rate
    ratio = delta_beta_ratio(res)
    target = (c.a - 1.0) / (c.a + 1.0)
    assert abs(ratio - target) < 0.01 * target
    assert np.all(res.beta > 0)
    assert res.t[0] == pytest.approx(0.0)
    assert res.t[-1] == pytest.approx(res.t_start)


def test_stable_manifold_seed_matches_eigenvector_direction():
    c = asymptotic_constants(1.0, 2.0)
    res = stable_manifold_trajectory(0.5, 1.0, 2.0)
    v = np.array([
        1.0,
        (c.a - 1.0) / (c.a + 1.0),
        2.0 * (1.0 - c.a) / c.a,
        0.5 * (1.0 - c.a),
    ])
    lead = 0.5 * np.exp(-c.decay_rate * res.t_start) * v
    assert np.max(np.abs(res.seed - lead)) < 1e-6 * np.max(np.abs(lead))


def test_stable_manifold_divergence_suggests_larger_t_start():
    with pytest.raises(FixedPointDivergenceError) as err:
        stable_manifold_trajectory(1e3, 1.0, 1.0, t_start=0.05)
    assert "t_start" in str(err.value)


def test_stable_manifold_rejects_bad_window():
    with pytest.raises(ValueError):
        stable_manifold_trajectory(1.0, 1.0, 1.0, t_start=2.0, t_end_back=3.0)
    with pytest.raises(ValueError):
        stable_manifold_trajectory(-1.0, 1.0, 1.0)


# --- Sobolev growth ----------------------------------------------------------

def test_sobolev_sq_w_matches_coefficient_sum():
    w = WState(0.3, 1.0, 0.6)
    u = w_to_hardy(w, 2048)
    for s in (0.75, 1.0, 2.0):
        assert sobolev_sq_w(w.b, w.c, w.p, s) == pytest.approx(
            hs_norm_sq(u, s), rel=1e-12
        )


def test_growth_fit_on_planted_asymptotic_profile():
    alpha, m = 1.0, 16.0 / 9.0
    c = asymptotic_constants(alpha, m)
    t = np.linspace(50.0, 500.0, 800)
    gamma = c.kappa / t
    p = np.sqrt(1.0 - gamma / m)
    amp = np.sqrt(m) * (1.0 - p**2)
    traj = WTrajectory(t=t, b=np.zeros_like(t, dtype=complex),
                       c=amp.astype(complex), p=p.astype(complex),
                       momentum=np.full_like(t, m))
    report = growth_fit(traj, c, s=1.0)
    assert abs(report.fitted_slope - 1.0) < 0.02
    assert report.prefactor_rel_dev < 0.02


def test_growth_fit_rejects_circle():
    t = np.linspace(0.0, 20.0, 100)
    traj = WTrajectory(t=t, b=np.zeros_like(t, dtype=complex),
                       c=np.ones_like(t, dtype=complex),
                       p=np.zeros_like(t, dtype=complex),
                       momentum=np.ones_like(t))
    with pytest.raises(FitError):
        growth_fit(traj, asymptotic_constants(1.0, 1.0), s=1.0)


def test_growth_fit_single_pole_run():
    # the log-log exponent needs t >> 20 to settle; the cheap ODE gets there
    w0 = WState(0, 1.0, 0.5)
    alpha = 1.0
    consts = asymptotic_constants(alpha, w0.momentum)
    traj = integrate_w(w0, alpha, dt=2e-3, t_end=500.0, record_stride=200)
    report = growth_fit(traj, consts, s=1.0)
    assert report.slope_rel_dev < 0.05
    assert report.prefactor_rel_dev < 0.10


def test_linear_slope_single_pole_run_matches_prediction():
    # least-squares slope of the squared H^1 norm on [10, 20]
    from damped_szego.fitting import linear_fit

    w0 = WState(0, 1.0, 0.5)
    consts = asymptotic_constants(1.0, w0.momentum)
    traj = integrate_w(w0, 1.0, dt=1e-3, t_end=20.0, record_stride=20)
    hs = np.array([
        sobolev_sq_w(traj.b[i], traj.c[i], traj.p[i], 1.0) for i in range(len(traj.t))
    ])
    mask = traj.t >= 10.0
    slope, _ = linear_fit(traj.t[mask], hs[mask])
    target = consts.growth_coeff(1.0)
    assert abs(slope - target) < 0.05 * target


def test_integrate_w_warns_near_unit_pole():
    p = 1.0 - 4e-7
    w0 = WState(0, (1.0 - p**2), p)  # momentum 1, parameterisation nearly exhausted
    with pytest.warns(RuntimeWarning):
        integrate_w(w0, alpha=1.0, dt=1e-4, t_end=1e-3, record_stride=1)
