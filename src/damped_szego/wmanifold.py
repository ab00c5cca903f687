"""Dynamics on the rank-one manifold and its closed-form asymptotics.

States u = b + c e^{ix} / (1 - p e^{ix}) with |p| < 1, c != 0 are exactly
the symbols whose shifted Hankel operator has rank one, and the damped flow
restricts to an explicit ODE in (b, c, p).  At fixed momentum M it reduces to
the gauge-invariant (beta, gamma, zeta) = (|b|^2, M(1-|p|^2), M c conj(b) conj(p)),
the one chart stepped here: in gamma for the slow algebraic decay of exploding orbits
and, from a power-series seed, in gamma - M = -delta for trajectories converging to the
circle orbit.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, FitError, FixedPointDivergenceError, NotInManifoldError
from .fitting import linear_fit, loglog_fit
from .hardy import HardyState
from .solver import run_grid

__all__ = [
    "WState",
    "ReducedState",
    "AsymptoticConstants",
    "ReducedTrajectory",
    "StableManifoldResult",
    "w_to_hardy",
    "integrate_reduced",
    "require_rank_one",
    "asymptotic_constants",
    "gamma_tail_fit",
    "linearized_q0",
    "linearization_matrix",
    "stable_manifold_t_start",
    "stable_manifold_t_max",
    "stable_manifold_short_window",
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

    def reduced(self) -> "ReducedState":
        """(beta, gamma, zeta) = (|b|^2, M(1-|p|^2), M c conj(b) conj(p)) at this momentum M."""
        m = self.momentum
        return ReducedState(
            beta=abs(self.b) ** 2,
            gamma=m * (1.0 - abs(self.p) ** 2),
            zeta=m * self.c * self.b.conjugate() * self.p.conjugate(),
        )


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


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

@dataclass
class ReducedTrajectory:
    t: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    zeta: np.ndarray
    momentum: float
    sweeps: int = 0  # parareal sweeps of the windowed path; 0 on the sequential loop


def _rk4_reduced(y0, dt, steps, alpha, m, g0=0.0):
    """RK4 on the gauge-reduced (beta, gamma, Re zeta, Im zeta) system at momentum m,
    carrying x = gamma - g0: g0 = 0 for kappa_fit, g0 = M (x = -delta) for the stable manifold.

    dzeta = -(alpha + iM) zeta + i(3 gamma - beta) zeta - 2i beta gamma M
    + i gamma^2 (M - gamma + 3 beta).  ``steps`` lists the step counts to record at,
    the first 0; returns the states (beta, x, Re zeta, Im zeta) there as a float
    ``(len(steps), 4)`` array.  The right-hand side is written out once per
    stage, so a step makes no Python call, and zeta is carried as two reals,
    which take the interpreter's specialised float arithmetic.  Each stage is
    factored to 21 float operations: with g = g0 + x, c = M - g0, q = M + beta - 3g,
    dzeta = -(alpha + iq) zeta + i g (g (c - x + 3 beta) - 2M beta), and
    dx = -2 Im zeta enters as a subtraction of z = 2 Im zeta.  At g0 = 0 that is
    gamma's own arithmetic; at g0 = M, c - x = delta exactly, and delta keeps its
    relative accuracy near the circle orbit.

    The components may also be float arrays of one shape (W,): the loop then
    steps W states at once and records a ``(len(steps), 4, W)`` array.  numpy
    rounds float64 ``+ - *`` as Python floats do, so each state's records
    equal its scalar run bit for bit.
    """
    beta, x, zr, zi = y0
    shape = getattr(beta, "shape", ())
    if shape:  # copied, as the updates below are in place
        beta, x, zr, zi = beta.copy(), x.copy(), zr.copy(), zi.copy()
    h = 0.5 * dt
    h6 = dt / 6.0
    # Left-to-right evaluation forms these first (-alpha * zr, -2.0 * alpha * beta,
    # 2.0 * m * beta, m - g0), so hoisting them keeps every bit.
    na = -alpha
    k = -2.0 * alpha
    m2 = 2.0 * m
    c = m - g0
    out = np.empty((len(steps), 4) + shape)
    out[0] = y0
    for j in range(1, len(steps)):
        for _ in range(steps[j] - steps[j - 1]):
            g = g0 + x
            q = m + beta - 3.0 * g
            z1 = zi + zi
            b1 = k * beta + z1
            r1 = na * zr + q * zi
            i1 = na * zi - q * zr + g * (g * (c - x + 3.0 * beta) - m2 * beta)
            b = beta + h * b1
            y = x - h * z1
            r = zr + h * r1
            i = zi + h * i1
            g = g0 + y
            q = m + b - 3.0 * g
            z2 = i + i
            b2 = k * b + z2
            r2 = na * r + q * i
            i2 = na * i - q * r + g * (g * (c - y + 3.0 * b) - m2 * b)
            b = beta + h * b2
            y = x - h * z2
            r = zr + h * r2
            i = zi + h * i2
            g = g0 + y
            q = m + b - 3.0 * g
            z3 = i + i
            b3 = k * b + z3
            r3 = na * r + q * i
            i3 = na * i - q * r + g * (g * (c - y + 3.0 * b) - m2 * b)
            b = beta + dt * b3
            y = x - dt * z3
            r = zr + dt * r3
            i = zi + dt * i3
            g = g0 + y
            q = m + b - 3.0 * g
            z4 = i + i
            b4 = k * b + z4
            r4 = na * r + q * i
            i4 = na * i - q * r + g * (g * (c - y + 3.0 * b) - m2 * b)
            beta += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            x -= h6 * (z1 + 2.0 * z2 + 2.0 * z3 + z4)
            zr += h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
            zi += h6 * (i1 + 2.0 * i2 + 2.0 * i3 + i4)
        out[j] = beta, x, zr, zi
    return out


def _complex_column(re, im):
    """Complex array with exactly these parts; ``re + 1j*im`` can flip a zero's sign."""
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _require_finite(ts, rows):
    """Raise :class:`BlowUpError`, carrying the time of the last finite record, if a
    recorded row is not finite."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        if bad == 0:
            raise BlowUpError(0.0, "the initial state is not finite")
        raise BlowUpError(ts[bad - 1], f"solution blew up between the records at "
                          f"t={ts[bad - 1]:.6g} (the last finite one) and t={ts[bad]:.6g}")


# A (b, c, p) state's reduced run keeps |zeta|^2 = (M - gamma) gamma^2 beta exactly; a
# record off it by more than this many max(M, beta)^3 took a step too large for the
# state.  At alpha = 1, dt = 1e-3 and t = 20 the residual stays below 1.3e-6 max(M, beta)^3
# over |b| <= 10, |c| <= 1, |p| <= 0.9 (420 states), and reaches 5.0e-5 at b = 10,
# c = 1.5, p = 0.9 (gamma 9.4e-5 off) and 3.4e-4 at c = 10, p = 0.5 (gamma 5.3e-4 off).
INVARIANT_TOL = 1e-5


def require_rank_one(traj: ReducedTrajectory):
    """Raise :class:`BlowUpError` at the last record of ``traj`` within ``INVARIANT_TOL``
    max(M, beta)^3 of |zeta|^2 = (M - gamma) gamma^2 beta, if a later one is not."""
    m, beta, gamma = traj.momentum, traj.beta, traj.gamma
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(traj.zeta) ** 2 - (m - gamma) * gamma**2 * beta
        good = np.abs(resid) <= INVARIANT_TOL * np.maximum(m, beta) ** 3
    if not good.all():
        bad = int(np.argmin(good))
        raise BlowUpError(traj.t[max(bad - 1, 0)],
                          f"the records leave |zeta|^2 = (M - gamma) gamma^2 beta at "
                          f"t={traj.t[bad]:.6g}: a step too large for the state "
                          f"(M = {m:.6g}, beta(0) = {beta[0]:.6g})")


# The windowed path of integrate_reduced (parareal: Lions, Maday & Turinici, C. R. Acad.
# Sci. Paris 332, 2001).  A window is g whole record intervals, g the largest with
# g * stride * dt * max(1, alpha, M) <= _WINDOW_SPAN, and the path runs only for at least
# _MIN_WINDOWS windows of at least _MIN_WINDOW_STEPS steps.  The sweeps stop once no window
# start moves by more than _SWEEP_TOL * max(1, max |U|); a non-finite value, or no
# convergence in _MAX_SWEEPS sweeps, hands the run to the sequential loop.
_WINDOW_SPAN = 0.2
_MIN_WINDOW_STEPS = 100
_MIN_WINDOWS = 256
_SWEEP_TOL = 1e-15
_MAX_SWEEPS = 12


def _window_intervals(dt, stride, alpha, m):
    """Record intervals per window: the most whose span H has H max(1, alpha, M) <=
    ``_WINDOW_SPAN``, 0 if not even one fits."""
    return int(_WINDOW_SPAN / (stride * dt * max(1.0, alpha, m)))


def _rk4_parareal(y0, dt, steps, stride, alpha, m):
    """:func:`_rk4_reduced` at the record ``steps`` (every ``stride``-th and the last) by
    parareal sweeps over windows of whole record intervals.

    The coarse propagator G is one RK4 step over a window, taken window by window on
    floats; the fine propagator F is :func:`_rk4_reduced` at ``dt``, over every window at
    once on arrays.  A sweep sets U_{n+1} = F(U_n^old) + (G(U_n^new) - G(U_n^old)) from
    U_0 = y0, so once a window start stops moving the bracket is exactly 0, and after k
    sweeps the first k window starts equal the sequential run's bit for bit.  The records
    come from the last fine sweep, and the steps after the last whole window run
    sequentially from its end.  Returns the records and the sweep count, or None if the
    run is too short for windows, a value is not finite or the sweeps do not converge.
    """
    intervals = _window_intervals(dt, stride, alpha, m)
    windows = steps[-1] // stride // max(intervals, 1)
    if intervals * stride < _MIN_WINDOW_STEPS or windows < _MIN_WINDOWS:
        return None
    span = intervals * stride * dt
    one = [0, 1]
    new = [list(y0)]
    for _ in range(windows):
        new.append(_rk4_reduced(new[-1], span, one, alpha, m)[1].tolist())
    coarse, u = new[1:], np.array(new)
    for sweep in range(1, _MAX_SWEEPS + 1):
        fine = _rk4_reduced(tuple(u[:-1].T), dt, steps[:intervals + 1], alpha, m)
        new, g_new = new[:1], []
        for f, g_old in zip(fine[-1].T.tolist(), coarse):
            g = _rk4_reduced(new[-1], span, one, alpha, m)[1].tolist()
            new.append([a + (b - c) for a, b, c in zip(f, g, g_old)])
            g_new.append(g)
        now = np.array(new)
        if not (np.isfinite(fine).all() and np.isfinite(now).all()):
            return None
        if np.max(np.abs(now - u)) <= _SWEEP_TOL * max(1.0, np.max(np.abs(now))):
            break
        u, coarse = now, g_new
    else:
        return None
    done = windows * intervals
    tail = _rk4_reduced(fine[-1, :, -1].tolist(), dt, [s - steps[done] for s in steps[done:]],
                        alpha, m)
    return np.concatenate([[y0], fine[1:].transpose(2, 0, 1).reshape(-1, 4), tail[1:]]), sweep


def integrate_reduced(r0: ReducedState, alpha: float, m: float, dt: float, t_end: float,
                      record_stride: int = 1) -> ReducedTrajectory:
    """RK4 on the (beta, gamma, zeta) system at fixed momentum, recorded on
    :func:`~damped_szego.solver.run_grid`; raises :class:`BlowUpError` at the last
    finite record if a later one is not finite.

    A long run at a fine step is taken by parareal sweeps over windows of whole record
    intervals (:func:`_rk4_parareal`), its records equal to the sequential loop's to
    roundoff; every other run takes the sequential loop.
    """
    zeta = complex(r0.zeta)
    n, recorded = run_grid(dt, t_end, record_stride)
    steps = [*recorded, n]
    ts = np.array(steps) * dt
    y0 = (float(r0.beta), float(r0.gamma), zeta.real, zeta.imag)
    with np.errstate(over="ignore", invalid="ignore"):
        windowed = _rk4_parareal(y0, dt, steps, record_stride, alpha, m)
    rows, sweeps = windowed or (_rk4_reduced(y0, dt, steps, alpha, m), 0)
    _require_finite(ts, rows)
    return ReducedTrajectory(
        t=ts,
        beta=rows[:, 0],
        gamma=rows[:, 1],
        zeta=_complex_column(rows[:, 2], rows[:, 3]),
        momentum=m,
        sweeps=sweeps,
    )


# ---------------------------------------------------------------------------
# asymptotic fits
# ---------------------------------------------------------------------------

# The fewest samples gamma_tail_fit averages over.
MIN_TAIL_SAMPLES = 8


def gamma_tail_fit(traj: ReducedTrajectory, window=None) -> float:
    """Fitted constant of the algebraic tail gamma(t) ~ const / t.

    Least-squares fit of a constant to gamma(t)*t over the window (default:
    the last half of the run); to be compared against kappa.
    """
    t_end = float(traj.t[-1])
    lo, hi = window if window is not None else (0.5 * t_end, t_end)
    mask = (traj.t >= lo) & (traj.t <= hi) & (traj.t > 0)
    if int(mask.sum()) < MIN_TAIL_SAMPLES:
        raise FitError(f"window [{lo}, {hi}] contains {int(mask.sum())} samples; "
                       f"need >= {MIN_TAIL_SAMPLES}")
    if classify_w_run(traj) == "bounded":
        raise FitError("trajectory is not in the exploding regime: classify_w_run reads "
                       "it bounded")
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
    fp_iterations: int  # terms of the seed's power series


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


# RK4 step of the stable manifold's backward run and its forward round trip.  Halving it
# moves the gated fit values by about 1e-10 relative (test_ode_presets_are_step_converged).
BACKWARD_STEP = 1e-3

# Backward steps run and checked at a time: a run that leaves the float range stops
# there, instead of storing every step down to t_end_back first.
_BACKWARD_CHUNK = 1 << 16


# The most orders the stable-manifold seed's power series takes before it counts as divergent.
_MAX_SERIES_ORDER = 60


def stable_manifold_t_start(beta_inf: float, alpha: float, m: float) -> float:
    """Default ``t_start``: where beta_inf e^{-(a+alpha)t} has decayed to 1e-6 M, at least 1."""
    return max(math.log(beta_inf / (1e-6 * m)) / asymptotic_constants(alpha, m).decay_rate,
               1.0)


def stable_manifold_t_max(beta_inf: float, alpha: float, m: float) -> float:
    """Largest ``t_start`` at which beta_inf e^{-(a+alpha)t} is a normal float."""
    rate = asymptotic_constants(alpha, m).decay_rate
    return (math.log(beta_inf) - math.log(sys.float_info.min)) / rate


def _manifold_terms(beta_inf: float, alpha: float, m: float, t: float) -> np.ndarray:
    """Terms c_k eps^k (k >= 1) of X(t) on the stable manifold, eps = beta_inf e^{-(a+alpha)t}.

    c_1 is the eigenvector of A for alpha + a with beta component 1.  For k >= 2,
    (A - k(a+alpha)) c_k is the eps^k coefficient of Q on the series cut after order k - 1,
    and k(a+alpha) is no eigenvalue of A.  The terms stop at the first adding <= 1e-17 of the sum.
    """
    c = asymptotic_constants(alpha, m)
    a_mat, _ = linearization_matrix(alpha, m)
    eps = math.exp(math.log(beta_inf) - c.decay_rate * t)
    terms = [eps * np.array([1.0, (c.a - alpha) / (c.a + alpha), m * (alpha - c.a) / c.a,
                             0.5 * (alpha - c.a)])]
    for k in range(2, _MAX_SERIES_ORDER + 1):
        cols = [np.polynomial.Polynomial(np.r_[0.0, col]) for col in np.transpose(terms)]
        q = [p.coef[k] if k < p.coef.size else 0.0 for p in _delta_form_q(*cols, m)]
        terms.append(np.linalg.solve(a_mat - k * c.decay_rate * np.eye(4), [0.0, 0.0, *q]))
        total = np.sum(terms, axis=0)
        if not np.all(np.isfinite(total)):
            break
        if np.max(np.abs(terms[-1])) <= 1e-17 * np.max(np.abs(total)):
            return np.array(terms)
    raise FixedPointDivergenceError(f"stable-manifold series did not converge by order {k}; "
                                    f"increase t_start from {t:.3g}")


def _backward_grid(t_start, t_end_back):
    """Step count and step of the backward run from t_start to t_end_back."""
    n_steps = run_grid(BACKWARD_STEP, t_start - t_end_back)[0]
    return n_steps, (t_start - t_end_back) / n_steps


_DECAY_WINDOW = (0.5, 8)  # beta_decay_rate fits [t_start/2, t_start], on >= 8 records
_RATIO_WINDOW = (0.8, 2)  # delta_beta_ratio averages over [0.8 t_start, t_start], >= 2


def stable_manifold_short_window(t_start: float, t_end_back: float):
    """Why the backward run from t_start to t_end_back records too few points for a fit,
    or None.  The records run down from t_start, so a fit window holds enough of them
    iff the ``fewest``-th lies in it."""
    n_steps, step = _backward_grid(t_start, t_end_back)
    for frac, fewest in (_DECAY_WINDOW, _RATIO_WINDOW):
        t = t_start + np.arange(min(n_steps, fewest - 1) + 1) * -step
        if t.shape[0] < fewest or t[-1] < frac * t_start:
            return (f"t_start = {t_start:g}, t_end_back = {t_end_back:g}: the fit window "
                    f"[{frac * t_start:g}, {t_start:g}] holds fewer than {fewest} records")
    return None


def _fit_window(result, window, what):
    """The records of ``result`` in ``window`` with beta > 0, and its bounds."""
    frac, fewest = window
    lo, hi = frac * result.t_start, result.t_start
    mask = (result.t >= lo) & (result.t <= hi) & (result.beta > 0)
    if int(mask.sum()) < fewest:
        raise FitError(f"window too short for {what}")
    return mask, (lo, hi)


def stable_manifold_trajectory(beta_inf: float, alpha: float, m: float, t_start: float = None,
                               t_end_back: float = 0.0) -> StableManifoldResult:
    """Construct the trajectory that decays to the circle orbit like e^{-(a+alpha)t}.

    The solution is pinned at infinity by its leading coefficient
    ``beta_inf``: the 4-vector X = (beta, delta, Re zeta, Im zeta) satisfies
    dX/dt + A X = Q(X) and behaves like beta_inf e^{-(a+alpha)t} v, with v
    the eigenvector of A for the eigenvalue alpha + a.  The construction seeds
    X(t_start) with its power series in beta_inf e^{-(a+alpha)t} (:func:`_manifold_terms`),
    integrates backward to ``t_end_back`` with RK4 at step ``BACKWARD_STEP`` (1e-3)
    and forward again as a round-trip consistency check.

    ``t_start`` defaults to :func:`stable_manifold_t_start` and may be at most
    :func:`stable_manifold_t_max`.  A series that does not converge raises
    :class:`FixedPointDivergenceError`; choose a larger ``t_start``.  A
    backward run that leaves the float range raises :class:`BlowUpError` at
    the last finite time it reached.
    """
    if beta_inf <= 0:
        raise ValueError("beta_inf must be positive")
    if t_start is None:
        t_start = stable_manifold_t_start(beta_inf, alpha, m)
    if t_end_back >= t_start:
        raise ValueError("t_end_back must be smaller than t_start")
    if t_start > stable_manifold_t_max(beta_inf, alpha, m):
        raise ValueError("t_start must leave beta_inf e^{-(a+alpha) t_start} a normal float")
    terms = _manifold_terms(beta_inf, alpha, m, t_start)
    seed = terms.sum(axis=0)

    # backward to t_end_back in checked chunks, then forward again as the round-trip check
    n_steps, step = _backward_grid(t_start, t_end_back)
    # stepped in the chart x = gamma - M = -delta of _rk4_reduced; negation is exact
    flip = np.array([1.0, -1.0, 1.0, 1.0])
    t_parts, parts = [np.array([t_start])], [(seed * flip)[None]]
    for lo in range(0, n_steps, _BACKWARD_CHUNK):
        steps = np.arange(lo, min(lo + _BACKWARD_CHUNK, n_steps) + 1)
        t = t_start + steps * -step
        rows = _rk4_reduced(parts[-1][-1].tolist(), -step, steps.tolist(), alpha, m, m)
        _require_finite(t, rows)
        t_parts.append(t[1:])
        parts.append(rows[1:])
    t_back = np.concatenate(t_parts)
    back = np.concatenate(parts) * flip
    forward = _rk4_reduced((back[-1] * flip).tolist(), step, [0, n_steps], alpha, m, m)[-1] * flip
    roundtrip = float(np.max(np.abs(forward - seed)))

    rows = back[::-1]
    return StableManifoldResult(
        t=t_back[::-1],
        beta=rows[:, 0],
        delta=rows[:, 1],
        zeta=_complex_column(rows[:, 2], rows[:, 3]),
        alpha=alpha,
        momentum=m,
        beta_inf=beta_inf,
        t_start=t_start,
        seed=seed,
        roundtrip_residual=roundtrip,
        fp_iterations=len(terms),
    )


def beta_decay_rate(result: StableManifoldResult) -> tuple:
    """Exponential decay rate of beta fitted over [t_start/2, t_start], and that window."""
    mask, window = _fit_window(result, _DECAY_WINDOW, "a decay-rate fit")
    slope, _ = linear_fit(result.t[mask], np.log(result.beta[mask]))
    return -slope, window


def delta_beta_ratio(result: StableManifoldResult) -> tuple:
    """Mean delta/beta over the last fifth before t_start, and that window."""
    mask, window = _fit_window(result, _RATIO_WINDOW, "the ratio estimate")
    return float(np.mean(result.delta[mask] / result.beta[mask])), window


# ---------------------------------------------------------------------------
# Sobolev growth along rank-one trajectories
# ---------------------------------------------------------------------------

# The most terms sobolev_sq_w adds for s != 1.
_MAX_SUM_TERMS = 1 << 24


def sobolev_sq_w(beta: float, gamma: float, m: float, s: float) -> float:
    """Exact squared H^s norm |b|^2 + |c|^2 sum_{k>=1} (1+k^2)^s r^(k-1) of the rank-one
    state at (beta, gamma) and momentum m: r = |p|^2 = 1 - gamma/m and |c|^2 = gamma^2/m.

    For s = 1 it is beta + gamma - m + 2 m^2/gamma.  For other s the sum is added
    in chunks, each term formed as exp(s log(1+k^2) + (k-1) log r) with
    log r = log1p(-gamma/m), so that no factor overflows into inf * 0; a norm beyond
    the float range is inf.  Raises :class:`FitError` if the sum has not converged
    in 2^24 terms.
    """
    if not 0.0 < gamma <= m:
        raise ValueError("gamma must lie in (0, M]: |p| < 1")
    if s == 1.0:
        return beta + gamma - m + 2.0 * m * m / gamma
    total = beta
    amp = gamma * gamma / m
    with np.errstate(over="ignore"):
        if gamma == m:  # r = 0: only the k = 1 term is nonzero
            return total + amp * float(np.exp(s * math.log(2.0)))
        log_r = math.log1p(-gamma / m)
        chunk = 512
        for k0 in range(1, _MAX_SUM_TERMS, chunk):
            k = np.arange(k0, k0 + chunk, dtype=float)
            terms = amp * np.exp(s * np.log1p(k * k) + (k - 1.0) * log_r)
            total += float(terms.sum())
            if math.isinf(total) or (terms[-1] < 1e-17 * max(total, 1e-300) and k0 > 2 * s + 2):
                return total
    raise FitError(f"the H^{s:g} sum at |p|^2 = 1 - {gamma / m!r} has not converged in "
                   f"{_MAX_SUM_TERMS} terms")


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


def growth_fit(traj: ReducedTrajectory, constants: AsymptoticConstants,
               s: float) -> GrowthFitReport:
    """Compare Sobolev growth along an exploding rank-one run to its closed form.

    The squared H^s norm is summed exactly from the geometric coefficients
    (:func:`sobolev_sq_w`).
    Over the last decade of times, [t_end/10, t_end] (reported as ``window``),
    the observed exponent comes from
    a free log-log fit, while the prefactor is extracted at the target
    exponent 2s-1 (geometric mean of hs / t^{2s-1}), which keeps it
    well-conditioned when the fitted exponent is still drifting.
    """
    if classify_w_run(traj) == "bounded":
        raise FitError("trajectory is not in the exploding regime: classify_w_run reads "
                       "it bounded")
    t_end = float(traj.t[-1])
    lo, hi = 0.1 * t_end, t_end
    mask = traj.t >= lo
    if int(mask.sum()) < 8:
        raise FitError("window too short for the growth fit")
    hs = np.array([sobolev_sq_w(beta, gamma, traj.momentum, s)
                   for beta, gamma in zip(traj.beta[mask].tolist(), traj.gamma[mask].tolist())])
    if not np.all(np.isfinite(hs)):
        raise FitError(f"the squared H^{s:g} norm overflows a float in the fit window")
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


def classify_w_run(traj: ReducedTrajectory) -> str:
    """Label a rank-one run ``"exploding"`` or ``"bounded"``.

    Exploding runs have 1 - |p|^2 = gamma/M eventually decreasing monotonically
    toward zero; bounded runs keep |p| away from 1.  The label reads exploding when
    gamma/M decreases over the second half of the records and ends below half its
    start, so a short horizon can flip it.  :func:`growth_fit` and
    :func:`gamma_tail_fit` refuse a run it reads bounded.
    """
    one_minus = traj.gamma / traj.momentum
    half = one_minus[one_minus.shape[0] // 2 :]
    decreasing = bool(np.all(np.diff(half) <= 1e-12 * one_minus[0]))
    if decreasing and one_minus[-1] < 0.5 * one_minus[0]:
        return "exploding"
    return "bounded"
