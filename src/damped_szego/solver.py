"""RK4 pseudospectral integration of the damped cubic Szego equation.

The evolution is i du/dt + i*alpha*(u|1) = P(|u|^2 u) with P the
nonnegative-frequency projector.  The cubic term is evaluated by
transforming to a grid, multiplying pointwise and projecting back; each
step sizes that grid to the band of live modes, which keeps it alias-free.
The damping acts on the zero mode only.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ResolutionLossWarning
from .hardy import HardyState

__all__ = [
    "SolverConfig",
    "DiagnosticsSeries",
    "SolverResult",
    "rhs",
    "rk4_step",
    "evolve",
    "check_lyapunov",
]

# Abort threshold for the squared L2 norm; the flow only decreases it, so
# anything this large is integrator overflow in progress.
_L2_ABORT = 1e12
_RESOLUTION_RATIO = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Numerical parameters of one time-integration run."""

    alpha: float
    dt: float
    t_end: float
    grid_size: int
    krasny_threshold: float = 1e-12
    record_stride: int = 1
    sobolev_exponents: tuple = (1.0,)

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.grid_size <= 0 or self.grid_size % 2 != 0:
            raise ValueError("grid_size must be even and positive")
        if not 0 <= self.krasny_threshold < 1:
            raise ValueError("krasny_threshold must lie in [0, 1)")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        object.__setattr__(self, "sobolev_exponents", tuple(float(s) for s in self.sobolev_exponents))
        for s in self.sobolev_exponents:
            if s < 0.5:
                raise ValueError(f"Sobolev exponent must be >= 1/2, got {s}")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


@dataclass
class DiagnosticsSeries:
    """Per-record scalar diagnostics of a run (times strictly increasing)."""

    t: np.ndarray
    l2_sq: np.ndarray
    momentum: np.ndarray
    u0_abs: np.ndarray
    hs_sq: dict = field(default_factory=dict)  # sobolev exponent -> ndarray

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("record times must be strictly increasing")
        for arr in (self.t, self.l2_sq, self.momentum, self.u0_abs, *self.hs_sq.values()):
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


def _nonlinear_coeffs(c: np.ndarray, m: int) -> np.ndarray:
    """Projected cubic term P(|u|^2 u) on the modes of ``c``, from an m-point grid.

    With b = len(c) the product holds frequencies -(b-1) .. 2b-2, so for
    m >= 2b - 1 none of them aliases onto the output modes 0 .. b-1.  The
    collocation-grid offset drops out of the round trip for even m, so the
    plain FFT grid is used here.
    """
    v = np.fft.ifft(c, m, norm="forward")
    return np.fft.fft(v * v * np.conj(v), norm="forward")[: c.shape[0]]


def _rhs_coeffs(c: np.ndarray, m: int, alpha: float) -> np.ndarray:
    out = -1j * _nonlinear_coeffs(c, m)
    out[0] -= alpha * c[0]
    return out


def _rk4_coeffs(c, m, alpha, dt):
    k1 = _rhs_coeffs(c, m, alpha)
    k2 = _rhs_coeffs(c + (0.5 * dt) * k1, m, alpha)
    k3 = _rhs_coeffs(c + (0.5 * dt) * k2, m, alpha)
    k4 = _rhs_coeffs(c + dt * k3, m, alpha)
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
        if not np.all(np.isfinite(cb)):
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


def rhs(u: HardyState, alpha: float) -> HardyState:
    """Time derivative du/dt = -i P(|u|^2 u) - alpha*(u|1) e_0."""
    c = u.coeffs
    b = min(c.shape[0], 2 * _extent(c) - 1)
    out = np.zeros(c.shape[0], dtype=complex)
    out[:b] = _rhs_coeffs(c[:b], _grid(b, u.grid_size), alpha)
    return HardyState(out, u.grid_size)


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
    """Integrate to ``cfg.t_end`` recording diagnostics every ``record_stride`` steps.

    Snapshots of the full state are taken at the steps nearest the requested
    times.  Raises :class:`BlowUpError` on overflow; flags resolution loss
    when the last retained mode stops being negligible.
    """
    if u0.grid_size != cfg.grid_size:
        raise ValueError(f"initial state has grid_size {u0.grid_size}, config says {cfg.grid_size}")

    n = cfg.grid_size
    n_steps = cfg.n_steps
    dt = cfg.dt
    c = u0.coeffs.astype(complex).copy()
    kk = np.arange(c.shape[0], dtype=float)
    hs_weights = {s: (1.0 + kk * kk) ** s for s in cfg.sobolev_exponents}

    snap_steps = {}
    for ts in snapshot_times:
        if ts < 0 or ts > n_steps * dt * (1 + 1e-12):
            raise ValueError(f"snapshot time {ts} outside [0, t_end]")
        snap_steps.setdefault(int(round(ts / dt)), []).append(ts)

    rows_t, rows_l2, rows_mom, rows_u0 = [], [], [], []
    rows_hs = {s: [] for s in cfg.sobolev_exponents}
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
        for s, w in hs_weights.items():
            rows_hs[s].append(float((w * sq).sum()))
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
        if i % cfg.record_stride == 0 or i == n_steps:
            record(i, np.abs(c))

    series = DiagnosticsSeries(
        t=np.asarray(rows_t),
        l2_sq=np.asarray(rows_l2),
        momentum=np.asarray(rows_mom),
        u0_abs=np.asarray(rows_u0),
        hs_sq={s: np.asarray(v) for s, v in rows_hs.items()},
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
