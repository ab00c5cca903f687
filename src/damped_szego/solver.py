"""RK4 pseudospectral integration of the damped cubic Szego equation.

The evolution is i du/dt + i*alpha*(u|1) = P(|u|^2 u) with P the
nonnegative-frequency projector.  The cubic term is evaluated by
transforming to a grid, multiplying pointwise and projecting back; each
step sizes that grid to the band of live modes, which keeps it alias-free.
The damping acts on the zero mode only.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ResolutionLossWarning
from .hardy import HardyState

__all__ = [
    "SolverConfig",
    "DiagnosticsSeries",
    "SolverResult",
    "run_grid",
    "grid_size",
    "later_times",
    "rk4_step",
    "evolve",
    "check_lyapunov",
]

# Abort threshold for the squared L2 norm; the flow only decreases it, so
# anything this large is integrator overflow in progress.
_L2_ABORT = 1e12
_RESOLUTION_RATIO = 1e-8

# The most records a run keeps: at 100-200 bytes each across the lists and arrays a run
# builds, 2^24 records take a few GB, and no fit or gate reads more than a few thousand.
MAX_RECORDS = 1 << 24


def run_grid(dt, t_end, stride=1):
    """Step count n of a run of ``t_end`` at step ``dt`` and the steps it records before
    the last, ``range(0, n, stride)``; step n is always recorded.  Raises
    :class:`ValueError` unless dt, t_end and stride are positive, and
    :class:`OverflowError` past sys.maxsize steps or stride."""
    if not (dt > 0 and t_end > 0 and stride >= 1):
        raise ValueError("dt, t_end and record_stride must be positive")
    if not (t_end / dt <= sys.maxsize and stride <= sys.maxsize):
        raise OverflowError("a run takes at most sys.maxsize steps")
    n = max(1, int(round(t_end / dt)))
    return n, range(0, n, stride)


def grid_size(dt, t_end, stride=1):
    """Steps and records of :func:`run_grid`: nan where it raises ValueError, inf where
    it raises OverflowError."""
    try:
        n, recorded = run_grid(dt, t_end, stride)
    except ValueError:
        return math.nan, math.nan
    except OverflowError:
        return math.inf, math.inf
    return n, len(recorded) + 1


def later_times(times, dt, t_end):
    """The snapshot times a run of ``t_end`` at ``dt`` takes after u(0): those in (0, n dt],
    n dt its last step's time, widened by 1e-12 of itself for roundoff in the step count."""
    end = run_grid(dt, t_end)[0] * dt * (1 + 1e-12)
    return tuple(t for t in times if 0 < t <= end)


@dataclass(frozen=True)
class SolverConfig:
    """Numerical parameters of one time-integration run."""

    alpha: float
    dt: float
    t_end: float
    grid_size: int
    krasny_threshold: float = 1e-12
    record_stride: int = 1

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        run_grid(self.dt, self.t_end, self.record_stride)  # raises unless they make a run
        if self.grid_size <= 0 or self.grid_size % 2 != 0:
            raise ValueError("grid_size must be even and positive")
        if not 0 <= self.krasny_threshold < 1:
            raise ValueError("krasny_threshold must lie in [0, 1)")

    @property
    def n_steps(self) -> int:
        return run_grid(self.dt, self.t_end)[0]


@dataclass
class DiagnosticsSeries:
    """Per-record scalar diagnostics of a run (times strictly increasing)."""

    t: np.ndarray
    l2_sq: np.ndarray
    momentum: np.ndarray
    u0_abs: np.ndarray
    h1_sq: np.ndarray  # squared H^1 norm, sum_k (1 + k^2) |u_hat(k)|^2

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("record times must be strictly increasing")
        for arr in (self.t, self.l2_sq, self.momentum, self.u0_abs, self.h1_sq):
            if not np.all(np.isfinite(arr)):
                raise ValueError("diagnostics must be finite")

    def __len__(self):
        return self.t.shape[0]


@dataclass
class SolverResult:
    """Final state, diagnostics and optional snapshots of one run."""

    u_final: HardyState
    diagnostics: DiagnosticsSeries
    snapshots: list
    resolution_loss: bool = False
    resolution_loss_time: float = None


def _extent(c: np.ndarray) -> int:
    """Number of modes up to the last nonzero one (at least 1)."""
    live = np.flatnonzero(c)
    return int(live[-1]) + 1 if live.shape[0] else 1


def _grid(b: int, n: int) -> int:
    """Smallest power of two >= 2b - 1, capped at the full grid ``n``."""
    return min(n, 1 << (2 * b - 2).bit_length())


def _rhs_coeffs(c: np.ndarray, alpha: float, work) -> np.ndarray:
    """-i P(|u|^2 u) - alpha*(u|1) e_0 on the modes of ``c``, through m-point work arrays v, w, p.

    With b = len(c) the product holds frequencies -(b-1) .. 2b-2, so for
    m >= 2b - 1 none of them aliases onto the output modes 0 .. b-1.  The
    collocation-grid offset drops out of the round trip for even m, so the
    plain FFT grid is used here.  The forward transform is unnormalised, as
    1/m rounds the same there or in -i/m; the product goes to p, not in
    place, as numpy rounds an in-place one-point product in another loop.
    """
    v, w, p = work
    m = v.shape[0]
    np.fft.ifft(c, m, norm="forward", out=v)
    np.multiply(v, v, out=w)
    np.multiply(w, np.conjugate(v, out=v), out=p)
    np.fft.fft(p, out=p)
    out = (-1j / m) * p[: c.shape[0]]
    out[0] -= alpha * c[0]
    return out


def _rk4_coeffs(c, m, alpha, dt):
    work = tuple(np.empty((3, m), dtype=complex))
    k1 = _rhs_coeffs(c, alpha, work)
    k2 = _rhs_coeffs(c + (0.5 * dt) * k1, alpha, work)
    k3 = _rhs_coeffs(c + (0.5 * dt) * k2, alpha, work)
    k4 = _rhs_coeffs(c + dt * k3, alpha, work)
    return c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step(c, ka, n, alpha, dt, threshold, t):
    """One RK4 step of ``c``, live on its first ka modes, then the roundoff filter.

    The four stages run on the first b = 2*ka - 1 modes, which stage 1
    fills exactly.  What stages 2-4 would put at b and above is a product
    with at least one factor from the modes at ka and above, the step's new
    content, and is of order dt * (sum_k |c_k|)^2 times that content.  So
    when the filter leaves none of the new content live, the dropped part
    lies below the threshold as well (for dt * (sum_k |c_k|)^2 well below 1),
    and the full grid would filter it away.  Otherwise the band grew: the
    step is redone with ka set to the new extent, up to the full grid.  With
    the filter off no content counts as negligible, and the step runs on the
    full grid.  Returns the length-K state and the moduli of its first b
    modes; raises :class:`BlowUpError` at ``t`` on non-finite data.
    """
    k = c.shape[0]
    if threshold == 0:
        ka = k
    while True:
        b = min(k, 2 * ka - 1)
        cb = _rk4_coeffs(c[:b], _grid(b, n), alpha, dt)
        if not np.isfinite(cb).all():
            raise BlowUpError(t)
        a = np.abs(cb)
        if threshold > 0:
            keep = a >= threshold
            cb = np.where(keep, cb, 0.0)
            a = np.where(keep, a, 0.0)
        if b == k or not a[ka:].any():
            break
        ka = _extent(a)
    out = np.zeros(k, dtype=complex)
    out[:b] = cb
    return out, a


def rk4_step(u: HardyState, alpha: float, dt: float, krasny_threshold: float = 0.0) -> HardyState:
    """One classical RK4 step, followed by the roundoff filter when enabled.

    With the filter off (the default) the step runs on the full grid; a
    positive ``krasny_threshold`` lets it run on the active band.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    c = u.coeffs
    c, _ = _step(c, _extent(c), u.grid_size, alpha, dt, krasny_threshold, dt)
    return HardyState(c, u.grid_size)


def evolve(u0: HardyState, cfg: SolverConfig, snapshot_times=()) -> SolverResult:
    """Integrate to ``cfg.t_end`` recording diagnostics at the steps of :func:`run_grid`.

    Snapshots of the full state are taken at the steps nearest the requested
    times, 0 or those :func:`later_times` keeps.  Raises :class:`BlowUpError` on
    overflow; flags resolution loss when the last retained mode stops being negligible.
    """
    if u0.grid_size != cfg.grid_size:
        raise ValueError(f"initial state has grid_size {u0.grid_size}, config says {cfg.grid_size}")

    n = cfg.grid_size
    dt = cfg.dt
    n_steps, recorded = run_grid(dt, cfg.t_end, cfg.record_stride)
    c = u0.coeffs.astype(complex).copy()
    kk = np.arange(c.shape[0], dtype=float)
    h1_weight = 1.0 + kk * kk

    later = later_times(snapshot_times, dt, cfg.t_end)
    if any(ts != 0 and ts not in later for ts in snapshot_times):
        raise ValueError(f"snapshot times {snapshot_times} reach outside [0, {n_steps * dt!r}]")
    snap_steps = {int(round(ts / dt)) for ts in snapshot_times}

    rows_t, rows_l2, rows_mom, rows_u0, rows_h1 = [], [], [], [], []
    snapshots = []
    resolution_loss = False
    resolution_time = None

    def record(step, a):
        t = step * dt
        rows_t.append(t)
        sq = a * a
        rows_l2.append(float(sq.sum()))
        rows_mom.append(float((kk * sq).sum()))
        rows_u0.append(float(a[0]))
        rows_h1.append(float((h1_weight * sq).sum()))
        nonlocal resolution_loss, resolution_time
        amax = a.max() if a.shape[0] else 0.0
        if not resolution_loss and amax > 0 and a[-1] > _RESOLUTION_RATIO * amax:
            resolution_loss = True
            resolution_time = t
            warnings.warn(
                f"last retained mode above {_RESOLUTION_RATIO:g} of the maximum at t={t:.6g}",
                ResolutionLossWarning,
                stacklevel=2,
            )

    record(0, np.abs(c))
    ka = _extent(c)
    if 0 in snap_steps:
        snapshots.append((0.0, HardyState(c, n)))

    for i in range(1, n_steps + 1):
        c, a = _step(c, ka, n, cfg.alpha, dt, cfg.krasny_threshold, i * dt)
        ka = _extent(a)
        if float((a * a).sum()) > _L2_ABORT:
            raise BlowUpError(i * dt)
        if i in snap_steps:
            snapshots.append((i * dt, HardyState(c, n)))
        if i in recorded or i == n_steps:
            record(i, np.abs(c))

    series = DiagnosticsSeries(
        t=np.asarray(rows_t),
        l2_sq=np.asarray(rows_l2),
        momentum=np.asarray(rows_mom),
        u0_abs=np.asarray(rows_u0),
        h1_sq=np.asarray(rows_h1),
    )
    return SolverResult(
        u_final=HardyState(c, n),
        diagnostics=series,
        snapshots=snapshots,
        resolution_loss=resolution_loss,
        resolution_loss_time=resolution_time,
    )


def check_lyapunov(series: DiagnosticsSeries, alpha: float) -> float:
    """Residual of d/dt ||u||^2 + 2*alpha*|(u|1)|^2 = 0 from recorded data.

    Uses centered differences at interior record times and normalises by
    max(1, initial squared L2 norm).
    """
    if len(series) < 3:
        raise ValueError("need at least three records")
    t, l2, u0 = series.t, series.l2_sq, series.u0_abs
    deriv = (l2[2:] - l2[:-2]) / (t[2:] - t[:-2])
    resid = np.abs(deriv + 2.0 * alpha * u0[1:-1] ** 2)
    return float(resid.max() / max(1.0, l2[0]))
