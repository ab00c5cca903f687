import gc
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from damped_szego import wmanifold
from damped_szego.errors import (
    BlowUpError,
    FitError,
    FixedPointDivergenceError,
    NotInManifoldError,
)
from damped_szego.hardy import from_grid, grid_points
from damped_szego.presets import build_config, run_experiment, spectrum_report
from damped_szego.solver import SolverConfig, evolve, run_grid
from damped_szego.wmanifold import (
    ReducedState,
    ReducedTrajectory,
    WState,
    asymptotic_constants,
    beta_decay_rate,
    classify_w_run,
    delta_beta_ratio,
    gamma_tail_fit,
    growth_fit,
    integrate_reduced,
    linearization_matrix,
    linearized_q0,
    require_rank_one,
    sobolev_sq_w,
    stable_manifold_trajectory,
    w_to_hardy,
)
from damped_szego.wmanifold import (
    _manifold_terms,
    _rk4_reduced,
)
from helpers import (
    complex_delta_rhs,
    complex_reduced_rhs,
    delta_rhs,
    factored_reduced_rhs,
    finite_diff,
    hs_norm_sq,
    reduced_rhs,
    reference_delta_run,
    reference_integrate_reduced,
    reference_integrate_w,
    reference_rk4,
    reference_sobolev_sq_w,
    trapezoid_manifold_seed,
    w_rhs,
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
    sampled = from_grid(w.b + w.c * z / (1.0 - w.p * z))
    direct = w_to_hardy(w, n)
    assert np.max(np.abs(sampled.coeffs - direct.coeffs)) < 1e-12


def test_w_rejects_bad_parameters():
    with pytest.raises(NotInManifoldError):
        WState(0, 1, 1.0)
    with pytest.raises(NotInManifoldError):
        WState(0, 0, 0.5)


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
    assert reduced_rhs(0.0, m, 0.0, 0.0, alpha=1.0, m=m) == (0.0, 0.0, 0.0, 0.0)

    # off the circle radius the zeta source does not vanish
    _, _, dzr, dzi = reduced_rhs(0.0, 0.5 * m, 0.0, 0.0, alpha=1.0, m=m)
    assert abs(complex(dzr, dzi) - 1j * (0.5 * m) ** 2 * (m - 0.5 * m)) < 1e-14


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
    r = w.reduced()
    rb, rg, rzr, rzi = reduced_rhs(r.beta, r.gamma, r.zeta.real, r.zeta.imag, alpha, m)
    rz = complex(rzr, rzi)
    scale = max(1.0, m**2)
    assert abs(rb - dbeta) < 1e-12 * scale
    assert abs(rg - dgamma) < 1e-12 * scale
    assert abs(rz - dzeta) < 1e-12 * scale

    # finite-difference pushforward oracle
    def pulled(tau):
        ws = WState(w.b + tau * db, w.c + tau * dc, w.p + tau * dp)
        r = ws.reduced()
        return np.array([r.beta, r.gamma, r.zeta.real, r.zeta.imag])

    d1 = (pulled(1e-4) - pulled(-1e-4)) / 2e-4
    got = np.array([rb, rg, rz.real, rz.imag])
    assert np.max(np.abs(d1 - got)) < 1e-7 * scale


def test_constraint_derivative_vanishes():
    w = WState(0.3, 1.0, 0.5)
    m = w.momentum
    r = w.reduced()
    db, dg, dzr, dzi = reduced_rhs(r.beta, r.gamma, r.zeta.real, r.zeta.imag, alpha=1.0, m=m)
    dz = complex(dzr, dzi)
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
    zr, zi = 0.01, -0.02
    db, dd, dzr, dzi = delta_rhs(beta, delta, zr, zi, alpha, m)
    rb, rg, rzr, rzi = reduced_rhs(beta, m - delta, zr, zi, alpha, m)
    assert abs(db - rb) < 1e-14
    assert abs(dd - (-rg)) < 1e-14
    assert abs(complex(dzr, dzi) - complex(rzr, rzi)) < 1e-14

    # its linear part is -A, with A the linearization matrix
    eps = 1e-7
    x = np.array([beta, delta, zr, zi])
    a_mat, _ = linearization_matrix(alpha, m)
    lin = np.array(delta_rhs(*(eps * x).tolist(), alpha, m)) / eps
    assert np.max(np.abs(lin + a_mat @ x)) < 1e-8


_PART = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(beta=st.one_of(st.just(0.0), st.floats(0.0, 3.0)), gamma=_PART, zr=_PART, zi=_PART,
       alpha=st.floats(0.0, 2.0), m=st.floats(0.1, 3.0))
@example(beta=0.0, gamma=1.5, zr=0.0, zi=0.0, alpha=1.0, m=2.0)  # the kappa_fit start
@example(beta=0.0, gamma=2.0, zr=0.0, zi=0.0, alpha=1.0, m=2.0)  # the circle orbit
def test_real_rhs_equal_complex_oracles_bitwise(beta, gamma, zr, zi, alpha, m):
    # gamma doubles as delta
    zeta = complex(zr, zi)
    db, dg, dz = complex_reduced_rhs(beta, gamma, zeta, alpha, m)
    assert np.array_equal(reduced_rhs(beta, gamma, zr, zi, alpha, m),
                          [db, dg, dz.real, dz.imag])
    db, dd, dz = complex_delta_rhs(beta, gamma, zeta, alpha, m)
    assert np.array_equal(delta_rhs(beta, gamma, zr, zi, alpha, m),
                          [db, dd, dz.real, dz.imag])


@settings(max_examples=300, deadline=None)
@given(beta=st.one_of(st.just(0.0), st.floats(0.0, 3.0)), gamma=_PART, zr=_PART, zi=_PART,
       alpha=st.floats(0.0, 2.0), m=st.floats(0.1, 3.0))
@example(beta=3.0, gamma=3.0, zr=3.0, zi=3.0, alpha=2.0, m=3.0)
def test_factored_rhs_match_unfactored_to_roundoff(beta, gamma, zr, zi, alpha, m):
    # gamma doubles as delta, which the chart g0 = M carries as x = -delta
    to_x = np.array([1.0, -1.0, 1.0, 1.0])
    for got, want in (
        (factored_reduced_rhs(beta, gamma, zr, zi, alpha, m),
         reduced_rhs(beta, gamma, zr, zi, alpha, m)),
        (factored_reduced_rhs(beta, -gamma, zr, zi, alpha, m, m),
         to_x * delta_rhs(beta, gamma, zr, zi, alpha, m)),
    ):
        got, want = np.array(got), np.array(want)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


# --- integrators ------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [dict(dt=0.0), dict(t_end=-1.0), dict(record_stride=0),
                                    dict(record_stride=-5)])
def test_integrators_reject_bad_steps(kwargs):
    args = {"dt": 1e-3, "t_end": 1.0, "record_stride": 1, **kwargs}
    with pytest.raises(ValueError):
        integrate_reduced(ReducedState(0.0, 1.0, 0j), 1.0, 2.0, **args)


def test_non_finite_runs_raise_blow_up_at_last_finite_record():
    # a step far too large for the momentum: the first recorded step is already nan
    w0 = WState(0, 1e3, 0.5)
    with pytest.raises(BlowUpError) as err:
        integrate_reduced(w0.reduced(), 1.0, w0.momentum, dt=1e-3, t_end=2.0, record_stride=10)
    assert err.value.t_reached == 0.0
    with pytest.raises(BlowUpError) as err:
        integrate_reduced(ReducedState(0.0, 750.0, 0j), 1.0, 1e3, dt=1e-2, t_end=5.0,
                          record_stride=1)
    n, recorded = run_grid(1e-2, 5.0)
    assert err.value.t_reached in np.array([*recorded, n]) * 1e-2


@pytest.mark.parametrize("c", [10.0, 30.0])
def test_steps_too_large_for_the_momentum_leave_the_invariant(c):
    # the reduced chart stays finite where the (b, c, p) loop blew up at this step; its
    # records leave |zeta|^2 = (M - gamma) gamma^2 beta instead, here by the first one
    w0 = WState(0, c, 0.5)
    traj = integrate_reduced(w0.reduced(), 1.0, w0.momentum, dt=1e-3, t_end=2.0,
                             record_stride=10)
    assert np.isfinite(traj.gamma).all()
    with pytest.raises(BlowUpError, match="too large for the state") as err:
        require_rank_one(traj)
    assert err.value.t_reached == 0.0
    # at c = 1 it holds to roundoff
    w0 = WState(0, 1.0, 0.5)
    require_rank_one(integrate_reduced(w0.reduced(), 1.0, w0.momentum, dt=1e-3, t_end=2.0,
                                       record_stride=10))


@pytest.mark.parametrize("b, c, p, raises", [(10, 1, 0.5, False), (10, 1, 0.9, False),
                                              (8, 1, 0.9, False), (10, 1.5, 0.9, True)])
def test_invariant_bound_scales_with_beta(b, c, p, raises):
    # beta = |b|^2 = 64 or 100 against M = 1.8 to 62: the residual scales with
    # max(M, beta)^3.  At b = 10, c = 1.5, p = 0.9 gamma ends 9.4e-5 off at this step.
    w0 = WState(b, c, p)
    traj = integrate_reduced(w0.reduced(), 1.0, w0.momentum, dt=1e-3, t_end=20.0,
                             record_stride=10)
    if not raises:
        require_rank_one(traj)
        return
    with pytest.raises(BlowUpError, match=r"M = 62\.3\d*, beta\(0\) = 100\)"):
        require_rank_one(traj)


# The (b, c, p) system itself is stepped by the test oracle reference_integrate_w.

def test_integrate_w_circle_is_steady():
    _, b, c, p, _ = reference_integrate_w(WState(0, 1.0, 0), 1.0, 1e-3, 5.0, 100)
    assert np.max(np.abs(b)) < 1e-12
    assert np.max(np.abs(p)) < 1e-12
    assert np.max(np.abs(np.abs(c) - 1.0)) < 1e-12


def test_integrate_w_conserves_momentum():
    *_, momentum = reference_integrate_w(WState(0.2, 1.0, 0.4), 1.0, 1e-3, 10.0, 50)
    drift = np.max(np.abs(momentum - momentum[0])) / momentum[0]
    assert drift < 1e-10


def test_integrate_w_matches_pde_solver():
    w0 = WState(0, 1.0, 0.5)
    _, b, c, p, _ = reference_integrate_w(w0, 1.0, 1e-4, 1.0, 10000)
    u_ode = w_to_hardy(WState(b[-1], c[-1], p[-1]), 256)
    cfg = SolverConfig(alpha=1.0, dt=2.5e-4, t_end=1.0, grid_size=256, record_stride=4000)
    u_pde = evolve(w_to_hardy(w0, 256), cfg).u_final
    diff = np.sqrt(np.sum(np.abs(u_ode.coeffs - u_pde.coeffs) ** 2))
    assert diff < 1e-8


def test_integrate_w_baby_l2_dips_below_momentum_level():
    w0 = WState(0.1, 1.0, 0)
    traj = integrate_reduced(w0.reduced(), 1.0, w0.momentum, dt=1e-3, t_end=20.0,
                             record_stride=20)
    l2_sq = traj.beta + traj.gamma
    assert l2_sq[0] == pytest.approx(1.01, rel=1e-12)
    assert l2_sq.min() < 1.0


def test_integrate_w_gauge_covariance():
    theta = 0.7
    rot = np.exp(1j * theta)
    w0 = WState(0.1 + 0.05j, 1.0, 0.3)
    w0r = WState(w0.b * rot, w0.c * rot, w0.p)
    _, b1, c1, p1, _ = reference_integrate_w(w0, 1.0, 1e-3, 2.0, 100)
    _, b2, c2, p2, _ = reference_integrate_w(w0r, 1.0, 1e-3, 2.0, 100)
    assert np.max(np.abs(b2 - rot * b1)) < 1e-10
    assert np.max(np.abs(c2 - rot * c1)) < 1e-10
    assert np.max(np.abs(p2 - p1)) < 1e-10


def test_classification_and_dichotomy():
    def run(w0, dt):
        return integrate_reduced(w0.reduced(), 1.0, w0.momentum, dt=dt, t_end=10.0,
                                 record_stride=100)

    for dt in (1e-3, 5e-4):
        exploding = run(WState(0, 1.0, 0.5), dt)
        assert classify_w_run(exploding) == "exploding"
        circle = run(WState(0, 1.0, 0), dt)
        assert classify_w_run(circle) == "bounded"
        assert circle.beta[0] + circle.gamma[0] >= circle.momentum - 1e-9


@settings(max_examples=10, deadline=None)
@given(b=st.complex_numbers(max_magnitude=1.5),
       c=st.complex_numbers(min_magnitude=0.2, max_magnitude=1.5),
       p=st.complex_numbers(max_magnitude=0.9))
@example(b=0j, c=1 + 0j, p=0.5 + 0j)  # the wode default, ExplodesStrict
@example(b=0j, c=0.25 + 0j, p=0.5 + 0j)  # slow: 2 kappa / gamma0 is about 109
@example(b=0j, c=0.2 + 0j, p=0.5 + 0j)  # slower: 2 kappa / gamma0 is about 265
@example(b=0j, c=0.25 + 0j, p=0.125 + 0j)  # near the circle: leaves it after t = 500
def test_explodes_strict_rank_one_states_explode(b, c, p):
    # the proved direction only: ExplodesStrict data have unbounded H^s norms, which on
    # the rank-one manifold means |p| -> 1; Inconclusive data may do either.  A run
    # first leaves the circle orbit, at the rate a - alpha of its unstable direction,
    # from the margin F - ||u||^2 > 0 (F = M here); then gamma ~ kappa / t halves
    # 1 - |p|^2 near t = 2 kappa / gamma0.  Each run goes to the escape time plus twice
    # that, and to t = 50 at least.
    w0 = WState(b, c, p)
    _, _, summary = spectrum_report(w_to_hardy(w0, 1024), size=128)
    if summary["verdict"] == "ExplodesStrict":
        m = w0.momentum
        consts = asymptotic_constants(1.0, m)
        escape = np.log(m / (summary["f_value"] - summary["l2_sq"])) / (consts.a - 1.0)
        t_end = max(50.0, escape + 4.0 * consts.kappa / (m * (1.0 - abs(p) ** 2)))
        traj = integrate_reduced(w0.reduced(), 1.0, m, dt=2e-3, t_end=t_end,
                                 record_stride=max(1, round(t_end / 2e-3 / 1000)))
        assert classify_w_run(traj) == "exploding"


def test_reduced_integration_consistent_with_w_pushforward():
    w0 = WState(0.2, 1.0, 0.3)
    alpha, m = 1.0, w0.momentum
    _, b, c, p, momentum = reference_integrate_w(w0, alpha, 1e-3, 10.0, 100)
    rtraj = integrate_reduced(w0.reduced(), alpha, m, dt=1e-3, t_end=10.0,
                              record_stride=100)
    zeta_w = momentum * c * np.conj(b) * np.conj(p)
    assert np.max(np.abs(np.abs(b) ** 2 - rtraj.beta)) < 1e-7
    assert np.max(np.abs(momentum * (1.0 - np.abs(p) ** 2) - rtraj.gamma)) < 1e-7
    assert np.max(np.abs(zeta_w - rtraj.zeta)) < 1e-7


def test_reduced_integration_preserves_constraint():
    w0 = WState(0.2, 1.0, 0.3)
    m = w0.momentum
    traj = integrate_reduced(w0.reduced(), 1.0, m, dt=1e-3, t_end=10.0, record_stride=100)
    resid = np.abs(np.abs(traj.zeta) ** 2 - (m - traj.gamma) * traj.gamma**2 * traj.beta)
    assert resid.max() < 1e-8 * m**3


W_STATES = [
    WState(0.2, 1.0, 0.4),
    WState(0.3, 1.0, 0.3 + 0.2j),
    WState(0.1 - 0.05j, 0.8 + 0.3j, 0.6 * np.exp(1.0j)),
]


def _roundoff_close(got, want):
    """|got - want| <= 1e-12 max(1, max |want|): the factored loops against the complex formula."""
    return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("w0", W_STATES)
def test_integrate_reduced_matches_reference_to_roundoff(w0):
    r0, m = w0.reduced(), w0.momentum
    traj = integrate_reduced(r0, 1.0, m, dt=1e-3, t_end=2.0, record_stride=7)
    ref = reference_integrate_reduced(r0, 1.0, m, 1e-3, 2.0, 7)
    assert np.array_equal(traj.t, ref[0])
    for got, want in zip((traj.beta, traj.gamma, traj.zeta), ref[1:]):
        assert _roundoff_close(got, want)


def test_stable_manifold_matches_reference_run():
    alpha, m = 1.0, 2.0
    res = stable_manifold_trajectory(0.5, alpha, m)
    t, y = reference_delta_run(res.seed, alpha, m, res.t_start, 0.0, wmanifold.BACKWARD_STEP)
    assert np.array_equal(res.t, t[::-1])
    got = np.column_stack([res.beta, res.delta, res.zeta.real, res.zeta.imag])
    want = y[::-1]
    assert np.max(np.abs(got - want) / np.abs(want).max(axis=0)) < 1e-14
    # the delta chart's purpose: small entries keep their relative accuracy
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def record_steps(n_steps, stride):
    """The steps a run of ``n_steps`` steps records: run_grid's, at dt = 1."""
    n, recorded = run_grid(1.0, n_steps, stride)
    return [*recorded, n]


# (n_steps, stride): a single step, a stride past the end, a partial last chunk
RUN_SHAPES = [(1, 1), (1, 4), (5, 9), (10, 3), (12, 4), (37, 1)]
_UNIT = st.floats(-1.0, 1.0)


@pytest.mark.parametrize("n_steps, stride", RUN_SHAPES)
@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.0, 1.0), gamma=_UNIT, zr=_UNIT, zi=_UNIT, alpha=st.floats(0.0, 2.0),
       m=st.floats(0.1, 3.0), dt=st.floats(1e-3, 0.02), backward=st.booleans())
def test_fused_real_loops_equal_references_bitwise(n_steps, stride, beta, gamma, zr, zi,
                                                   alpha, m, dt, backward):
    dt = -dt if backward else dt
    steps = record_steps(n_steps, stride)
    y0 = (beta, gamma, zr, zi)
    # both charts: gamma doubles as x = gamma - g0
    for g0 in (0.0, m):
        got = _rk4_reduced(y0, dt, steps, alpha, m, g0)
        want = reference_rk4(lambda *x: factored_reduced_rhs(*x, alpha, m, g0), y0, dt,
                             n_steps, stride)
        assert got.tobytes() == want.tobytes()
        _, rb, rg, rz = reference_integrate_reduced(
            ReducedState(beta, g0 + gamma, complex(zr, zi)), alpha, m, dt, n_steps * dt, stride)
        assert _roundoff_close(got, np.column_stack([rb, rg - g0, rz.real, rz.imag]))


@pytest.mark.parametrize("n_steps, stride", RUN_SHAPES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 2.0), m=st.floats(0.1, 3.0),
       dt=st.floats(1e-3, 0.02), backward=st.booleans())
def test_reduced_loop_on_arrays_equals_scalar_runs_bitwise(n_steps, stride, seed, alpha, m,
                                                           dt, backward):
    dt = -dt if backward else dt
    steps = record_steps(n_steps, stride)
    rng = np.random.default_rng(seed)
    y0 = (rng.uniform(0.0, 1.0, 7), *rng.uniform(-1.0, 1.0, (3, 7)))
    before = [v.copy() for v in y0]
    for g0 in (0.0, m):  # both charts
        got = _rk4_reduced(y0, dt, steps, alpha, m, g0)
        assert got.shape == (len(steps), 4, 7)
        assert all(np.array_equal(v, w) for v, w in zip(y0, before))
        for j in range(7):
            want = _rk4_reduced(tuple(float(v[j]) for v in y0), dt, steps, alpha, m, g0)
            assert got[:, :, j].tobytes() == want.tobytes()


@settings(max_examples=12, deadline=None)
@given(alpha=st.floats(0.2, 2.0), m=st.floats(0.5, 3.0), ratio=st.floats(0.3, 0.95),
       stride=st.sampled_from([10, 25, 50, 100]), windows=st.integers(256, 600),
       tail=st.integers(0, 10**6))
def test_windowed_reduced_run_matches_sequential_loop(alpha, m, ratio, stride, windows, tail):
    """Parareal sweeps over 256-600 windows against the sequential loop, to 1e-13 of each
    column's maximum.  At dt = 1e-3 a window of >= 100 steps fits only for max(alpha, M) <= 2;
    beyond that the run must take the sequential loop itself."""
    dt = 1e-3
    intervals = wmanifold._window_intervals(dt, stride, alpha, m)
    window_steps = max(intervals, 1) * stride
    n_steps = windows * window_steps + tail % window_steps
    r0 = ReducedState(0.0, ratio * m, 0j)
    traj = integrate_reduced(r0, alpha, m, dt, n_steps * dt, record_stride=stride)
    steps = record_steps(n_steps, stride)
    want = _rk4_reduced((0.0, ratio * m, 0.0, 0.0), dt, steps, alpha, m)
    got = np.column_stack([traj.beta, traj.gamma, traj.zeta.real, traj.zeta.imag])
    assert np.array_equal(traj.t, np.array(steps) * dt)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want).max(axis=0)))
    if intervals * stride >= wmanifold._MIN_WINDOW_STEPS:
        assert 1 <= traj.sweeps <= wmanifold._MAX_SWEEPS
    else:
        assert traj.sweeps == 0 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("beta0", [1e6, 3081.25])
def test_windowed_blow_up_raises_at_the_sequential_record(monkeypatch, beta0):
    # alpha = M = 1 at stride 100 and dt = 1e-3: 300 windows of 200 steps.  Both states leave
    # the float range; 3081.25 only after the records at t = 0.1 to 0.4.
    def last_finite_time():
        with pytest.raises(BlowUpError) as err:
            integrate_reduced(ReducedState(beta0, 0.75, 0j), 1.0, 1.0, 1e-3, 60.0,
                              record_stride=100)
        return err.value.t_reached

    windowed = last_finite_time()
    monkeypatch.setattr(wmanifold, "_MIN_WINDOWS", float("inf"))
    assert windowed == last_finite_time()
    assert (windowed > 0) == (beta0 < 1e6)


def test_kappa_fit_reports_its_sweeps():
    fine = run_experiment(build_config("kappa_fit", {"ode_dt": 1e-3, "t_end": 100.0}))
    assert 1 <= fine.artifacts["trajectory"].sweeps <= 8
    assert run_experiment(build_config("kappa_fit")).artifacts["trajectory"].sweeps == 0


def _python_calls(run):
    """Python function calls (profiler "call" events) made while ``run()`` runs.

    The garbage collector is off meanwhile: a collection could run the finalizers
    of other tests' objects, calls that ``run`` does not make."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


def test_rank_one_loops_make_no_python_call_per_step():
    # doubling the steps at the same record count must not add a call
    r0 = ReducedState(0.0, 1.5, 0j)
    runs = [
        lambda n: integrate_reduced(r0, 1.0, 2.0, 1e-3, n * 1e-3, record_stride=n // 10),
        # the stable manifold's chart: x = -delta at g0 = M
        lambda n: _rk4_reduced((0.01, -0.005, 0.0, -0.001), -1e-3, record_steps(n, n // 10),
                               1.0, 2.0, 2.0),
    ]
    for run in runs:
        assert _python_calls(lambda: run(1000)) == _python_calls(lambda: run(2000)) > 0
    # at equal windows and sweeps, doubling the steps per window must not add a call:
    # alpha = 1, M = 1.5 puts one 0.1 record interval in each of 256 windows
    trajs = []
    calls = [_python_calls(lambda: trajs.append(integrate_reduced(
        ReducedState(0.0, 1.0, 0j), 1.0, 1.5, dt, 25.6, record_stride=round(0.1 / dt))))
        for dt in (1e-3, 5e-4)]
    assert trajs[0].sweeps == trajs[1].sweeps > 0
    assert calls[0] == calls[1]


@pytest.mark.parametrize("system", ["w", "reduced", "delta"])
def test_ode_rk4_halving_dt_gains_factor_16(system):
    # "w" is the test oracle reference_integrate_w, which criterion 06 holds the PDE to
    w0 = W_STATES[2]
    m = w0.momentum
    r0 = w0.reduced()
    t_end = 2.0

    def final(dt):
        if system == "w":
            _, b, c, p, _ = reference_integrate_w(w0, 1.0, dt, t_end, 10**9)
            return np.array([b[-1], c[-1], p[-1]])
        if system == "delta":
            x0 = (r0.beta, r0.gamma - m, r0.zeta.real, r0.zeta.imag)  # x = -delta
            return _rk4_reduced(x0, dt, [0, round(t_end / dt)], 1.0, m, m)[-1]
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
    _, bs, cs, ps, momentum = reference_integrate_w(w0, alpha, 5e-4, 2.0, 200)
    assert np.max(np.abs(momentum - w0.momentum)) < 1e-10 * w0.momentum
    l2_sq = np.abs(bs) ** 2 + momentum * (1.0 - np.abs(ps) ** 2)
    assert np.all(np.diff(l2_sq) <= 1e-12 * l2_sq[0])

    rtraj = integrate_reduced(w0.reduced(), alpha, w0.momentum, dt=5e-4, t_end=2.0,
                              record_stride=200)
    pushed = [WState(*bcp).reduced() for bcp in zip(bs, cs, ps)]
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


# gamma/M falling to 0.4 of its start (the fits once refused it, above a quarter), and
# falling to 0.1 then rising to 0.2 over the second half (the fits once ran on it)
@pytest.mark.parametrize("gamma, label", [
    (np.linspace(1.0, 0.4, 200), "exploding"),
    (np.r_[np.linspace(1.0, 0.1, 150), np.linspace(0.1, 0.2, 50)], "bounded"),
])
def test_fits_refuse_exactly_the_runs_labelled_bounded(gamma, label):
    t = np.linspace(0.0, 20.0, 200)
    traj = ReducedTrajectory(t=t, beta=np.zeros_like(t), gamma=gamma,
                             zeta=np.zeros_like(t, dtype=complex), momentum=1.0)
    assert classify_w_run(traj) == label
    fits = [lambda: gamma_tail_fit(traj),
            lambda: growth_fit(traj, asymptotic_constants(1.0, 1.0), s=1.0)]
    for fit in fits:
        if label == "bounded":
            with pytest.raises(FitError, match="not in the exploding regime"):
                fit()
        else:
            fit()


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
    rate, _ = beta_decay_rate(res)
    assert abs(rate - c.decay_rate) < 0.01 * c.decay_rate
    ratio, _ = delta_beta_ratio(res)
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


@settings(max_examples=8, deadline=None)
@given(alpha=st.floats(0.5, 2.0), m=st.floats(0.5, 3.0), beta_inf=st.floats(0.1, 2.0))
def test_manifold_series_solves_the_delta_system(alpha, m, beta_inf):
    # X = sum c_k eps^k with eps = beta_inf e^{-(a+alpha)t} has dX/dt = sum -k(a+alpha) c_k eps^k;
    # held to the complex right-hand side, which does not read _delta_form_q, at eps = 0.2 M
    # (about 10 orders) and at and after the default t_start (4 orders)
    rate = asymptotic_constants(alpha, m).decay_rate
    t_start = wmanifold.stable_manifold_t_start(beta_inf, alpha, m)
    for t in (np.log(beta_inf / (0.2 * m)) / rate, t_start, t_start + 2.0 / rate):
        terms = _manifold_terms(beta_inf, alpha, m, t)
        beta, delta, zr, zi = terms.sum(axis=0)
        rhs = complex_delta_rhs(beta, delta, complex(zr, zi), alpha, m)
        want = np.array([rhs[0], rhs[1], rhs[2].real, rhs[2].imag])
        got = -rate * (np.arange(1, len(terms) + 1) @ terms)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_trapezoid_fixed_point_seed_converges_to_the_series():
    # the integral fixed point on a trapezoid grid of step h carries an O(h^2) error;
    # halving h must shrink its distance from the series seed by about 4
    alpha = m = beta_inf = 1.0
    t_start = wmanifold.stable_manifold_t_start(beta_inf, alpha, m)
    series = _manifold_terms(beta_inf, alpha, m, t_start).sum(axis=0)
    errors = [np.max(np.abs(trapezoid_manifold_seed(beta_inf, alpha, m, t_start, h) - series))
              for h in (1e-3, 5e-4)]
    assert errors[0] >= 3.5 * errors[1] > 0


def test_stable_manifold_divergence_suggests_larger_t_start():
    with pytest.raises(FixedPointDivergenceError) as err:
        stable_manifold_trajectory(1e3, 1.0, 1.0, t_start=0.05)
    assert "t_start" in str(err.value)


def test_stable_manifold_backward_blow_up_is_reported():
    # far enough back the orbit leaves the float range; it once raised OverflowError
    with pytest.raises(BlowUpError) as err:
        stable_manifold_trajectory(1.0, 1.0, 1.0, t_end_back=-30.0)
    assert -30.0 < err.value.t_reached < 0.0


def test_stable_manifold_backward_chunks_join_bitwise(monkeypatch):
    # the backward run goes chunk by chunk; with 1000-step chunks the default run's 5 313
    # steps take six, and its records and round trip, and a blow-up's time, stay the same
    whole = stable_manifold_trajectory(1.0, 1.0, 1.0)
    with pytest.raises(BlowUpError) as whole_err:
        stable_manifold_trajectory(1.0, 1.0, 1.0, t_end_back=-30.0)
    monkeypatch.setattr(wmanifold, "_BACKWARD_CHUNK", 1000)
    chunked = stable_manifold_trajectory(1.0, 1.0, 1.0)
    for name in ("t", "beta", "delta", "zeta"):
        assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes(), name
    assert chunked.roundtrip_residual == whole.roundtrip_residual
    with pytest.raises(BlowUpError) as err:
        stable_manifold_trajectory(1.0, 1.0, 1.0, t_end_back=-30.0)
    assert err.value.t_reached == whole_err.value.t_reached


def test_stable_manifold_rejects_bad_window():
    with pytest.raises(ValueError):
        stable_manifold_trajectory(1.0, 1.0, 1.0, t_start=2.0, t_end_back=3.0)
    with pytest.raises(ValueError):
        stable_manifold_trajectory(-1.0, 1.0, 1.0)
    # beta_inf e^{-(a+alpha) t_start} falls below sys.float_info.min after t_start = 272.4
    assert wmanifold.stable_manifold_t_max(1.0, 1.0, 1.0) == pytest.approx(272.409, abs=1e-3)
    with pytest.raises(ValueError, match="t_start"):
        stable_manifold_trajectory(1.0, 1.0, 1.0, t_start=272.5)


# --- Sobolev growth ----------------------------------------------------------

def _sobolev_sq_bcp(b, c, p, s):
    """sobolev_sq_w of the (b, c, p) state, through its reduced chart."""
    w = WState(b, c, p)
    r = w.reduced()
    return sobolev_sq_w(r.beta, r.gamma, w.momentum, s)


def test_sobolev_sq_w_matches_coefficient_sum():
    w = WState(0.3, 1.0, 0.6)
    u = w_to_hardy(w, 2048)
    for s in (0.75, 1.0, 2.0):
        assert _sobolev_sq_bcp(w.b, w.c, w.p, s) == pytest.approx(
            hs_norm_sq(u, s), rel=1e-12
        )


@pytest.mark.parametrize("r", [0.0, 1e-8, 0.3, 0.6, 0.9, 0.99, 0.999])
def test_sobolev_sq_w_closed_form_matches_reference_sum(r):
    b, c = 0.3 - 0.2j, 1.1 + 0.4j
    p = np.sqrt(r) * np.exp(0.7j)
    want = reference_sobolev_sq_w(b, c, p, 1.0)
    assert abs(_sobolev_sq_bcp(b, c, p, 1.0) - want) <= 1e-12 * want
    for s in (0.75, 1.5, 2.0, 3.0):
        want = reference_sobolev_sq_w(b, c, p, s)
        assert abs(_sobolev_sq_bcp(b, c, p, s) - want) <= 1e-12 * want


def test_sobolev_sq_w_forms_no_inf_times_zero():
    # r = |p|^2 = 1 - gamma/M = 2^-53, the least nonzero r the chart gives at M = 1: from
    # k = 22 on (1+k^2)^120 overflows where r^(k-1) underflows, and a sum of their
    # products meets inf * 0 = nan.  The norm, about e^250, is summed in log space here.
    s, gamma = 120.0, 1.0 - 2.0**-53
    logs = [s * math.log(1.0 + k * k) - 53.0 * math.log(2.0) * (k - 1) for k in range(1, 400)]
    top = max(logs)
    want = gamma**2 * math.exp(top) * math.fsum(math.exp(x - top) for x in logs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sobolev_sq_w(0.0, gamma, 1.0, s)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)
        # r = 0 (|p|^2 = 1e-300 rounds gamma to M): only the k = 1 term, 2^300
        assert _sobolev_sq_bcp(0.0, 1.0, 1e-150, 300.0) == pytest.approx(2.0**300, rel=1e-12)
        # beyond the float range
        assert _sobolev_sq_bcp(0.1, 1.0, 0.999, 100.0) == np.inf
        assert _sobolev_sq_bcp(0.1, 1.0, 0.0, 2000.0) == np.inf


def test_sobolev_sq_w_sum_is_bounded(monkeypatch):
    monkeypatch.setattr(wmanifold, "_MAX_SUM_TERMS", 4096)
    with pytest.raises(FitError, match="not converged in 4096 terms"):
        _sobolev_sq_bcp(0.0, 1.0, 0.9999, 2.0)


def test_growth_fit_rejects_an_overflowing_norm():
    w0 = WState(0, 1.0, 0.5)
    traj = integrate_reduced(w0.reduced(), 1.0, w0.momentum, dt=1e-2, t_end=50.0,
                             record_stride=10)
    consts = asymptotic_constants(1.0, w0.momentum)
    with pytest.raises(FitError, match="overflows a float"):
        growth_fit(traj, consts, s=100.0)


def _halve_ode_dt(monkeypatch):
    return {"ode_dt": build_config("kappa_fit").ode_dt / 2}


def _halve_backward_step(monkeypatch):
    monkeypatch.setattr(wmanifold, "BACKWARD_STEP", wmanifold.BACKWARD_STEP / 2)
    return {}


@pytest.mark.parametrize("preset, halve", [("kappa_fit", _halve_ode_dt),
                                           ("stable_manifold", _halve_backward_step)])
def test_ode_presets_are_step_converged(monkeypatch, preset, halve):
    """At its default step, halving an ODE preset's RK4 step moves each gated fit
    value by at most 1e-6 of its gate tolerance.  The round trip measures
    reversibility, not step error, so it is only required to stay at roundoff."""
    base = run_experiment(build_config(preset)).checks
    half = run_experiment(build_config(preset, halve(monkeypatch))).checks
    assert [c["name"] for c in half] == [c["name"] for c in base]
    for got, want in zip(half, base):
        if want["name"] == "roundtrip_residual":
            assert max(got["value"], want["value"]) <= 1e-12
        else:
            assert want["mode"] == "rel"
            assert abs(got["value"] - want["value"]) <= 1e-6 * want["tol"] * abs(want["target"])


def test_growth_fit_on_planted_asymptotic_profile():
    alpha, m = 1.0, 16.0 / 9.0
    c = asymptotic_constants(alpha, m)
    t = np.linspace(50.0, 500.0, 800)
    traj = ReducedTrajectory(t=t, beta=np.zeros_like(t), gamma=c.kappa / t,
                             zeta=np.zeros_like(t, dtype=complex), momentum=m)
    report = growth_fit(traj, c, s=1.0)
    assert abs(report.fitted_slope - 1.0) < 0.02
    assert report.prefactor_rel_dev < 0.02


def test_growth_fit_rejects_circle():
    t = np.linspace(0.0, 20.0, 100)
    traj = ReducedTrajectory(t=t, beta=np.zeros_like(t), gamma=np.ones_like(t),
                             zeta=np.zeros_like(t, dtype=complex), momentum=1.0)
    with pytest.raises(FitError):
        growth_fit(traj, asymptotic_constants(1.0, 1.0), s=1.0)


def test_growth_fit_single_pole_run():
    # the log-log exponent needs t >> 20 to settle; the cheap ODE gets there
    w0 = WState(0, 1.0, 0.5)
    alpha = 1.0
    consts = asymptotic_constants(alpha, w0.momentum)
    traj = integrate_reduced(w0.reduced(), alpha, w0.momentum, dt=2e-3, t_end=500.0,
                             record_stride=200)
    report = growth_fit(traj, consts, s=1.0)
    assert report.slope_rel_dev < 0.05
    assert report.prefactor_rel_dev < 0.10


def test_linear_slope_single_pole_run_matches_prediction():
    # least-squares slope of the squared H^1 norm on [10, 20]
    from damped_szego.fitting import linear_fit

    w0 = WState(0, 1.0, 0.5)
    consts = asymptotic_constants(1.0, w0.momentum)
    traj = integrate_reduced(w0.reduced(), 1.0, w0.momentum, dt=1e-3, t_end=20.0,
                             record_stride=20)
    hs = np.array([
        sobolev_sq_w(beta, gamma, traj.momentum, 1.0)
        for beta, gamma in zip(traj.beta, traj.gamma)
    ])
    mask = traj.t >= 10.0
    slope, _ = linear_fit(traj.t[mask], hs[mask])
    target = consts.growth_coeff(1.0)
    assert abs(slope - target) < 0.05 * target

