"""Dynamics on the rank-one manifold and its closed-form asymptotics.

States u = b + c e^{ix} / (1 - p e^{ix}) with |p| < 1, c != 0 are exactly
the symbols whose shifted Hankel operator has rank one, and the damped flow
restricts to an explicit ODE in (b, c, p).  Two further reductions are
used: the gauge-invariant variables (beta, gamma, zeta) =
(|b|^2, M(1-|p|^2), M c conj(b) conj(p)) for the slow algebraic decay of
exploding orbits, and the (beta, delta, zeta) variant with delta = M - gamma
for trajectories converging to the circle orbit.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitError, FixedPointDivergenceError, NotInManifoldError
from .fitting import linear_fit, loglog_fit
from .hardy import HardyState

__all__ = [
    "WState",
    "ReducedState",
    "AsymptoticConstants",
    "WTrajectory",
    "ReducedTrajectory",
    "StableManifoldResult",
    "w_to_hardy",
    "hardy_to_w",
    "w_rhs",
    "reduced_rhs",
    "reduced_from_w",
    "integrate_w",
    "integrate_reduced",
    "asymptotic_constants",
    "gamma_tail_fit",
    "linearized_q0",
    "linearization_matrix",
    "stable_manifold_trajectory",
    "beta_decay_rate",
    "delta_beta_ratio",
    "sobolev_sq_w",
    "growth_fit",
    "GrowthFitReport",
    "classify_w_run",
]


@dataclass(frozen=True)
class WState:
    """Point (b, c, p) of the rank-one manifold; |p| < 1 and c != 0."""

    b: complex
    c: complex
    p: complex

    def __post_init__(self):
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "p", complex(self.p))
        if abs(self.p) >= 1:
            raise NotInManifoldError(f"|p| must be < 1, got {abs(self.p)}")
        if self.c == 0:
            raise NotInManifoldError("c must be nonzero")

    @property
    def momentum(self) -> float:
        return abs(self.c) ** 2 / (1.0 - abs(self.p) ** 2) ** 2

    @property
    def l2_sq(self) -> float:
        return abs(self.b) ** 2 + abs(self.c) ** 2 / (1.0 - abs(self.p) ** 2)


@dataclass(frozen=True)
class ReducedState:
    """Gauge-invariant variables (beta, gamma, zeta) at fixed momentum."""

    beta: float
    gamma: float
    zeta: complex


@dataclass(frozen=True)
class AsymptoticConstants:
    """Closed-form rates and growth constants for given (alpha, M)."""

    alpha: float
    momentum: float
    a: float
    kappa: float
    lambda_plus: complex
    lambda_minus: complex
    decay_rate: float  # a + alpha
    dist_rate: float  # (a + alpha) / 2

    def growth_coeff(self, s: float) -> float:
        """Prefactor of the t^{2s-1} growth of the squared H^s norm."""
        m, al = self.momentum, self.alpha
        return math.gamma(2 * s + 1) * m ** (4 * s - 1) * ((al**2 + m**2) / (2 * al)) ** (1 - 2 * s)


def asymptotic_constants(alpha: float, m: float) -> AsymptoticConstants:
    """Evaluate every closed-form constant of the rank-one analysis."""
    if alpha <= 0 or m <= 0:
        raise ValueError("alpha and M must be positive")
    a = math.sqrt((math.sqrt(alpha**4 + 16.0 * m**2 * alpha**2) + alpha**2) / 2.0)
    root = math.sqrt(a * a - alpha * alpha)
    lam_p = 0.5 * (-alpha + (a + 1j * root))
    lam_m = 0.5 * (-alpha - (a + 1j * root))
    return AsymptoticConstants(
        alpha=alpha,
        momentum=m,
        a=a,
        kappa=(alpha**2 + m**2) / (2.0 * alpha * m),
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        decay_rate=a + alpha,
        dist_rate=0.5 * (a + alpha),
    )


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def w_to_hardy(w: WState, n: int) -> HardyState:
    """Expand b + c e^{ix}/(1 - p e^{ix}) into truncated Fourier coefficients."""
    k = n // 2
    coeffs = np.zeros(k, dtype=complex)
    coeffs[0] = w.b
    coeffs[1:] = w.c * np.power(w.p, np.arange(k - 1))
    return HardyState(coeffs, n)


def hardy_to_w(u: HardyState) -> WState:
    """Recover (b, c, p) from coefficients that form a geometric tail.

    The ratio u_hat(k+1)/u_hat(k) must be constant, to 1e-8 max(1, |p|), over
    the resolved range (coefficients above 1e-8 of |u_hat(1)|); larger
    deviations raise :class:`NotInManifoldError` carrying the worst offence.
    """
    c = u.coeffs
    if abs(c[1]) == 0:
        raise NotInManifoldError("u_hat(1) vanishes; c must be nonzero")
    p = complex(c[2] / c[1])
    floor = 1e-8 * abs(c[1])
    resolved = (np.abs(c[1:-1]) > floor) & (np.abs(c[2:]) > floor)
    max_dev = 0.0
    if np.any(resolved):
        ratios = c[2:][resolved] / c[1:-1][resolved]
        max_dev = float(np.max(np.abs(ratios - p)))
    if max_dev > 1e-8 * max(1.0, abs(p)):
        raise NotInManifoldError(
            f"coefficient ratios deviate from geometric by {max_dev:.3e}", max_deviation=max_dev
        )
    if abs(p) >= 1:
        raise NotInManifoldError(f"recovered |p| = {abs(p)} >= 1")
    return WState(b=complex(c[0]), c=complex(c[1]), p=p)


def reduced_from_w(w: WState) -> ReducedState:
    m = w.momentum
    return ReducedState(
        beta=abs(w.b) ** 2,
        gamma=m * (1.0 - abs(w.p) ** 2),
        zeta=m * w.c * w.b.conjugate() * w.p.conjugate(),
    )


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

def w_rhs(b: complex, c: complex, p: complex, alpha: float):
    """Time derivatives (db, dc, dp); the momentum is recomputed each call."""
    gt = 1.0 - (p.real * p.real + p.imag * p.imag)
    m = (c.real * c.real + c.imag * c.imag) / (gt * gt)
    bb = b.real * b.real + b.imag * b.imag
    db = -alpha * b - 1j * ((bb + 2.0 * m * gt) * b + m * c * p.conjugate())
    dc = -1j * ((2.0 * bb + m) * c + 2.0 * m * gt * b * p)
    dp = -1j * (m * gt * p + c * b.conjugate())
    return db, dc, dp


def reduced_rhs(beta: float, gamma: float, zeta: complex, alpha: float, m: float):
    """Derivatives (dbeta, dgamma, dzeta) of the gauge-reduced system at momentum m."""
    im = zeta.imag
    dzeta = (
        -(alpha + 1j * m) * zeta
        + (3j * gamma - 1j * beta) * zeta
        - 2j * beta * gamma * m
        + 1j * gamma * gamma * (m - gamma + 3.0 * beta)
    )
    return -2.0 * alpha * beta + 2.0 * im, -2.0 * im, dzeta


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

@dataclass
class WTrajectory:
    t: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: np.ndarray
    momentum: np.ndarray

    @property
    def beta(self):
        return np.abs(self.b) ** 2

    @property
    def gamma(self):
        return self.momentum * (1.0 - np.abs(self.p) ** 2)

    @property
    def l2_sq(self):
        return self.beta + self.gamma

    def state(self, i: int) -> WState:
        return WState(complex(self.b[i]), complex(self.c[i]), complex(self.p[i]))


@dataclass
class ReducedTrajectory:
    t: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    zeta: np.ndarray
    momentum: float


def _rk4(f, y0, t0, dt, n_steps, stride):
    """Classical RK4 on a triple of scalars, ``f(x, y, z) -> (dx, dy, dz)``.

    Records ``t0 + i*dt`` and the state every ``stride`` steps and after the
    last step; returns the times and a complex ``(records, 3)`` array.
    """
    x, y, z = y0
    h = 0.5 * dt
    h6 = dt / 6.0
    steps = [*range(0, n_steps, stride), n_steps]
    out = np.empty((len(steps), 3), dtype=complex)
    out[0] = y0
    j = 1
    for i in range(1, n_steps + 1):
        a1, b1, c1 = f(x, y, z)
        a2, b2, c2 = f(x + h * a1, y + h * b1, z + h * c1)
        a3, b3, c3 = f(x + h * a2, y + h * b2, z + h * c2)
        a4, b4, c4 = f(x + dt * a3, y + dt * b3, z + dt * c3)
        x += h6 * (a1 + 2 * a2 + 2 * a3 + a4)
        y += h6 * (b1 + 2 * b2 + 2 * b3 + b4)
        z += h6 * (c1 + 2 * c2 + 2 * c3 + c4)
        if i % stride == 0 or i == n_steps:
            out[j] = x, y, z
            j += 1
    return t0 + np.array(steps) * dt, out


def _n_steps(dt, t_end, stride):
    if dt <= 0 or t_end <= 0 or stride < 1:
        raise ValueError("dt, t_end and record_stride must be positive")
    return max(1, int(round(t_end / dt)))


def integrate_w(w0: WState, alpha: float, dt: float, t_end: float,
                record_stride: int = 1) -> WTrajectory:
    """RK4 on the (b, c, p) system, recording every ``record_stride`` steps.

    Warns when a recorded |p| comes within 1e-6 of 1 (the explosion regime
    outruns the parameterisation, though the ODE itself stays finite).
    """
    ts, rows = _rk4(lambda b, c, p: w_rhs(b, c, p, alpha), (w0.b, w0.c, w0.p),
                    0.0, dt, _n_steps(dt, t_end, record_stride), record_stride)
    # Python abs, as np.abs can differ by an ulp, which 1 - |p|^2 amplifies
    cp = [(abs(c), abs(p)) for _, c, p in rows.tolist()]
    near = [t for t, (_, ap) in zip(ts, cp) if ap > 1.0 - 1e-6]
    if near:
        warnings.warn(f"|p| within 1e-6 of 1 at t={near[0]:.6g}; coefficient tail "
                      "under-resolved", RuntimeWarning, stacklevel=2)
    return WTrajectory(
        t=ts,
        b=rows[:, 0],
        c=rows[:, 1],
        p=rows[:, 2],
        momentum=np.array([ac**2 / (1.0 - ap**2) ** 2 for ac, ap in cp]),
    )


def integrate_reduced(r0: ReducedState, alpha: float, m: float, dt: float, t_end: float,
                      record_stride: int = 1) -> ReducedTrajectory:
    """RK4 on the (beta, gamma, zeta) system at fixed momentum."""
    ts, rows = _rk4(lambda b, g, z: reduced_rhs(b, g, z, alpha, m),
                    (float(r0.beta), float(r0.gamma), complex(r0.zeta)),
                    0.0, dt, _n_steps(dt, t_end, record_stride), record_stride)
    return ReducedTrajectory(
        t=ts,
        beta=rows[:, 0].real,
        gamma=rows[:, 1].real,
        zeta=rows[:, 2],
        momentum=m,
    )


# ---------------------------------------------------------------------------
# asymptotic fits
# ---------------------------------------------------------------------------

def gamma_tail_fit(traj: ReducedTrajectory, window=None) -> float:
    """Fitted constant of the algebraic tail gamma(t) ~ const / t.

    Least-squares fit of a constant to gamma(t)*t over the window (default:
    the last half of the run); to be compared against kappa.
    """
    t_end = float(traj.t[-1])
    lo, hi = window if window is not None else (0.5 * t_end, t_end)
    mask = (traj.t >= lo) & (traj.t <= hi) & (traj.t > 0)
    if int(mask.sum()) < 8:
        raise FitError(f"window [{lo}, {hi}] contains {int(mask.sum())} samples; need >= 8")
    if traj.gamma[-1] > 0.25 * traj.gamma[0]:
        raise FitError("gamma has not decayed; trajectory is not in the exploding regime")
    return float(np.mean(traj.gamma[mask] * traj.t[mask]))


def linearized_q0(alpha: float, m: float, q0_0: complex, dq0_0: complex, t):
    """Closed-form solution of q'' + alpha q' - i alpha M q = 0.

    Returns A+ e^{lam+ t} + A- e^{lam- t} with the usual two-point matching
    of (q(0), q'(0)); ``t`` may be a scalar or an array.
    """
    consts = asymptotic_constants(alpha, m)
    lam_p, lam_m = consts.lambda_plus, consts.lambda_minus
    denom = lam_p - lam_m
    if abs(denom) < 1e-30:
        raise ValueError("degenerate characteristic roots")
    a_plus = (dq0_0 - lam_m * q0_0) / denom
    a_minus = (lam_p * q0_0 - dq0_0) / denom
    t = np.asarray(t, dtype=float)
    out = a_plus * np.exp(lam_p * t) + a_minus * np.exp(lam_m * t)
    return complex(out) if out.ndim == 0 else out


def linearization_matrix(alpha: float, m: float):
    """4x4 real matrix of the linearised (beta, delta, zeta) system and its eigenvalues.

    The eigenvalues are alpha +/- a and alpha +/- i sqrt(a^2 - alpha^2).
    """
    a = np.array(
        [
            [2.0 * alpha, 0.0, 0.0, -2.0],
            [0.0, 0.0, 0.0, -2.0],
            [0.0, 0.0, alpha, 2.0 * m],
            [-(m**2), -(m**2), -2.0 * m, alpha],
        ]
    )
    eig = np.linalg.eigvals(a)
    order = np.lexsort((eig.imag, eig.real))
    return a, eig[order]


# ---------------------------------------------------------------------------
# stable-manifold construction
# ---------------------------------------------------------------------------

@dataclass
class StableManifoldResult:
    """A trajectory converging to the circle orbit, in (beta, delta, zeta) form."""

    t: np.ndarray
    beta: np.ndarray
    delta: np.ndarray
    zeta: np.ndarray
    alpha: float
    momentum: float
    beta_inf: float
    t_start: float
    seed: np.ndarray
    roundtrip_residual: float
    fp_iterations: int


def _delta_form_q(beta, delta, zr, zi, m):
    """Quadratic-cubic part (Q_zr, Q_zi) of dX/dt + A X = Q(X), elementwise.

    The beta and delta components of Q vanish.
    """
    s = beta + 3.0 * delta
    return s * zi, (
        -s * zr
        - 2.0 * m * delta**2
        - 4.0 * m * beta * delta
        + delta**3
        + 3.0 * beta * delta**2
    )


def _delta_rhs(beta: float, delta: float, zeta: complex, alpha: float, m: float):
    """Derivatives (dbeta, ddelta, dzeta) of X = (beta, delta, zeta): -A X + Q(X).

    Integrating delta = M - gamma itself keeps its relative accuracy near the circle.
    """
    zr, zi = zeta.real, zeta.imag
    qr, qi = _delta_form_q(beta, delta, zr, zi, m)
    return (
        -2.0 * alpha * beta + 2.0 * zi,
        2.0 * zi,
        complex(-alpha * zr - 2.0 * m * zi + qr,
                m * m * (beta + delta) + 2.0 * m * zr - alpha * zi + qi),
    )


def _expm(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eig(a)
    return (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real


def stable_manifold_trajectory(beta_inf: float, alpha: float, m: float, t_start: float = None,
                               t_end_back: float = 0.0) -> StableManifoldResult:
    """Construct the trajectory that decays to the circle orbit like e^{-(a+alpha)t}.

    The solution is pinned at infinity by its leading coefficient
    ``beta_inf``: the 4-vector X = (beta, delta, Re zeta, Im zeta) satisfies
    dX/dt + A X = Q(X) and behaves like beta_inf e^{-(a+alpha)t} v, with v
    the eigenvector of A for the eigenvalue alpha + a.  The construction

    1. seeds X on [t_start, t_start + L] with the leading-order profile,
    2. refines it on a grid of step 1e-3 by at most 60 sweeps of the fixed point
       X(t) = e^{-tA} X_inf - int_t^inf e^{(s-t)A} Q(X(s)) ds
       until the e^{(a+alpha)t}-weighted sup norm moves less than 1e-12 max(beta_inf, 1),
    3. integrates the ODE backward to ``t_end_back`` with RK4 at step 2.5e-4, and
    4. re-integrates forward as a round-trip consistency check.

    ``t_start`` defaults to the time where the leading profile has decayed
    to 1e-6 of the momentum.  A non-contracting iteration raises
    :class:`FixedPointDivergenceError`; choose a larger ``t_start``.
    """
    if beta_inf <= 0:
        raise ValueError("beta_inf must be positive")
    consts = asymptotic_constants(alpha, m)
    a_const, rate = consts.a, consts.decay_rate
    if t_start is None:
        t_start = max(math.log(beta_inf / (1e-6 * m)) / rate, 1.0)
    if t_end_back >= t_start:
        raise ValueError("t_end_back must be smaller than t_start")

    a_mat, _ = linearization_matrix(alpha, m)
    v_inf = beta_inf * np.array(
        [1.0, (a_const - alpha) / (a_const + alpha), m * (alpha - a_const) / a_const,
         0.5 * (alpha - a_const)]
    )

    # fixed-point refinement on a grid covering the asymptotic regime
    span = 16.0 / rate
    h = 1e-3
    n_grid = int(math.ceil(span / h))
    ts = t_start + h * np.arange(n_grid + 1)
    hom = np.exp(-rate * ts)[:, None] * v_inf[None, :]
    exp_h = _expm(h * a_mat)
    x = hom.copy()
    weight = np.exp(rate * ts)
    scale = max(beta_inf, 1.0)
    for iterations in range(1, 61):
        q = np.zeros_like(x)
        q[:, 2], q[:, 3] = _delta_form_q(x[:, 0], x[:, 1], x[:, 2], x[:, 3], m)
        integral = np.zeros_like(x)
        acc = np.zeros(4)
        for i in range(n_grid - 1, -1, -1):
            acc = 0.5 * h * (q[i] + exp_h @ q[i + 1]) + exp_h @ acc
            integral[i] = acc
        x_new = hom - integral
        change = float(np.max(weight[:, None] * np.abs(x_new - x)))
        if not math.isfinite(change) or change > 1e6 * scale:
            raise FixedPointDivergenceError(
                f"fixed-point iteration diverged (weighted change {change:.3e}); "
                f"increase t_start from {t_start:.3g}"
            )
        x = x_new
        if change < 1e-12 * scale:
            break
    else:
        raise FixedPointDivergenceError(
            f"fixed-point iteration did not reach 1e-12 in {iterations} sweeps; "
            f"increase t_start from {t_start:.3g}"
        )
    seed = x[0].copy()

    # backward to t_end_back, then forward again as the round-trip check
    n_steps = max(1, int(round((t_start - t_end_back) / 2.5e-4)))
    step = (t_start - t_end_back) / n_steps

    def rhs(beta, delta, zeta):
        return _delta_rhs(beta, delta, zeta, alpha, m)

    back_t, back = _rk4(rhs, (float(seed[0]), float(seed[1]), complex(seed[2], seed[3])),
                        t_start, -step, n_steps, 1)
    b, d, z = back[-1].tolist()
    b, d, z = _rk4(rhs, (b.real, d.real, z), t_end_back, step, n_steps, n_steps)[1][-1].tolist()
    roundtrip = float(np.max(np.abs(np.array([b.real, d.real, z.real, z.imag]) - seed)))

    rows = back[::-1]
    return StableManifoldResult(
        t=back_t[::-1],
        beta=rows[:, 0].real,
        delta=rows[:, 1].real,
        zeta=rows[:, 2],
        alpha=alpha,
        momentum=m,
        beta_inf=beta_inf,
        t_start=t_start,
        seed=seed,
        roundtrip_residual=roundtrip,
        fp_iterations=iterations,
    )


def beta_decay_rate(result: StableManifoldResult, window=None) -> float:
    """Exponential decay rate of beta fitted over ``window`` (default [t_start/2, t_start])."""
    lo, hi = window if window is not None else (0.5 * result.t_start, result.t_start)
    mask = (result.t >= lo) & (result.t <= hi) & (result.beta > 0)
    if int(mask.sum()) < 8:
        raise FitError("window too short for a decay-rate fit")
    slope, _ = linear_fit(result.t[mask], np.log(result.beta[mask]))
    return -slope


def delta_beta_ratio(result: StableManifoldResult, window=None) -> float:
    """Mean delta/beta over the late window (default: last fifth before t_start)."""
    lo, hi = window if window is not None else (0.8 * result.t_start, result.t_start)
    mask = (result.t >= lo) & (result.t <= hi) & (result.beta > 0)
    if int(mask.sum()) < 2:
        raise FitError("window too short for the ratio estimate")
    return float(np.mean(result.delta[mask] / result.beta[mask]))


# ---------------------------------------------------------------------------
# Sobolev growth along rank-one trajectories
# ---------------------------------------------------------------------------

def sobolev_sq_w(b: complex, c: complex, p: complex, s: float) -> float:
    """Exact squared H^s norm |b|^2 + |c|^2 sum_{k>=1} (1+k^2)^s |p|^{2(k-1)}."""
    r = abs(p) ** 2
    if r >= 1:
        raise ValueError("|p| must be < 1")
    total = abs(b) ** 2
    amp = abs(c) ** 2
    k0 = 1
    chunk = 512
    while True:
        k = np.arange(k0, k0 + chunk, dtype=float)
        terms = amp * (1.0 + k * k) ** s * r ** (k - 1.0)
        total += float(terms.sum())
        if terms[-1] < 1e-17 * max(total, 1e-300) and k0 > 2 * s + 2:
            return total
        k0 += chunk


@dataclass
class GrowthFitReport:
    s: float
    target_slope: float
    fitted_slope: float
    target_prefactor: float
    fitted_prefactor: float
    slope_rel_dev: float
    prefactor_rel_dev: float
    window: tuple


def growth_fit(traj: WTrajectory, constants: AsymptoticConstants, s: float) -> GrowthFitReport:
    """Compare Sobolev growth along an exploding rank-one run to its closed form.

    The squared H^s norm is summed exactly from the geometric coefficients.
    Over the last decade of times, [t_end/10, t_end] (reported as ``window``),
    the observed exponent comes from
    a free log-log fit, while the prefactor is extracted at the target
    exponent 2s-1 (geometric mean of hs / t^{2s-1}), which keeps it
    well-conditioned when the fitted exponent is still drifting.
    """
    one_minus = 1.0 - np.abs(traj.p) ** 2
    if one_minus[-1] > 0.25 * one_minus[0]:
        raise FitError("trajectory is not in the exploding regime (|p| not tending to 1)")
    t_end = float(traj.t[-1])
    lo, hi = 0.1 * t_end, t_end
    mask = traj.t >= lo
    if int(mask.sum()) < 8:
        raise FitError("window too short for the growth fit")
    hs = np.array(
        [
            sobolev_sq_w(traj.b[i], traj.c[i], traj.p[i], s)
            for i in np.nonzero(mask)[0]
        ]
    )
    slope, _ = loglog_fit(traj.t[mask], hs)
    prefactor = float(np.exp(np.mean(np.log(hs) - (2.0 * s - 1.0) * np.log(traj.t[mask]))))
    target_slope = 2.0 * s - 1.0
    target_pref = constants.growth_coeff(s)
    return GrowthFitReport(
        s=s,
        target_slope=target_slope,
        fitted_slope=slope,
        target_prefactor=target_pref,
        fitted_prefactor=prefactor,
        slope_rel_dev=abs(slope - target_slope) / abs(target_slope),
        prefactor_rel_dev=abs(prefactor - target_pref) / abs(target_pref),
        window=(float(lo), float(hi)),
    )


def classify_w_run(traj: WTrajectory) -> str:
    """Label a rank-one run ``"exploding"`` or ``"bounded"``.

    Exploding runs have 1 - |p|^2 eventually decreasing monotonically toward
    zero; bounded runs keep |p| away from 1.
    """
    one_minus = 1.0 - np.abs(traj.p) ** 2
    half = one_minus[one_minus.shape[0] // 2 :]
    decreasing = bool(np.all(np.diff(half) <= 1e-12 * one_minus[0]))
    if decreasing and one_minus[-1] < 0.5 * one_minus[0]:
        return "exploding"
    return "bounded"
