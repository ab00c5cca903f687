"""Preset experiments, their pass/fail checks and artifact writing."""

import cmath
import math
import time
from collections import namedtuple
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import hankel
from .errors import ConfigError, require
from .fitting import linear_fit, r_squared
from .hardy import momentum as hardy_momentum
from .initial_conditions import parse_initial_condition
from .reporting import (
    diagnostics_csv,
    reduced_trajectory_csv,
    spectrum_csv,
    stable_trajectory_csv,
    write_files,
)
from .solver import (
    MAX_RECORDS,
    SolverConfig,
    check_lyapunov,
    evolve,
    grid_size,
    later_times,
    run_grid,
)
from .wmanifold import (
    BACKWARD_STEP,
    MIN_TAIL_SAMPLES,
    ReducedState,
    asymptotic_constants,
    beta_decay_rate,
    delta_beta_ratio,
    gamma_tail_fit,
    integrate_reduced,
    linearization_matrix,
    linearized_q0,
    stable_manifold_short_window,
    stable_manifold_t_max,
    stable_manifold_t_start,
    stable_manifold_trajectory,
)

__all__ = [
    "CONFIG_KEYS",
    "ExperimentConfig",
    "ExperimentResult",
    "PRESET_NAMES",
    "VERDICT_KEYS",
    "build_config",
    "closed_form_finite",
    "load_config_file",
    "run_experiment",
    "spectrum_files",
    "spectrum_report",
    "verify_identities",
]


def closed_form_finite(alpha, m) -> bool:
    """Whether every closed-form constant of (alpha, M), the H^1 growth
    coefficient included, is a finite number; a huge alpha or M overflows."""
    try:
        consts = asymptotic_constants(alpha, m)
        values = [*vars(consts).values(), consts.growth_coeff(1.0)]
    except (ArithmeticError, ValueError):
        return False
    return all(map(cmath.isfinite, values))


# The rules of closed_form_finite(alpha, 1) and closed_form_finite(alpha, m).
ALPHA_RULE = "alpha must be positive and finite, with finite closed-form constants"
M_RULE = "m must be positive and finite, with finite closed-form constants at this alpha"


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str = "custom"
    ic: str = "pole:0.5"
    alpha: float = 1.0
    dt: float = 2e-4
    t_end: float = 20.0
    grid_size: int = 4096
    record_stride: int = 10
    krasny_threshold: float = 1e-12
    spectrum_size: int = 128
    snapshot_times: tuple = ()
    m: float = 1.0
    gamma0: float = None
    beta_inf: float = 1.0
    t_start: float = None
    t_end_back: float = 0.0
    ode_dt: float = 1e-2  # read by kappa_fit only

    def validate(self):
        row = _PRESETS.get(self.preset, Preset(None, {}))
        reads_m = row.closed_form and row.run is not _run_pde
        # The records of the preset's run (see grid_size); check_lyapunov needs three:
        # u(0), the one at record_stride and the last.  The stable manifold's backward run
        # has no record bound: it stops where its orbit leaves the float range.
        kappa_stride = grid_size(self.ode_dt, _KAPPA_RECORD_SPAN)[0]
        step, stride = {_run_pde: (self.dt, self.record_stride),
                        _run_kappa: (self.ode_dt, kappa_stride)}.get(row.run, (math.nan, 1))
        records = grid_size(step, self.t_end, stride)[1]
        # The stable manifold steps back from t_start (given or by default, at most t_max)
        # to t_end_back and fits two windows that end at t_start.
        t_start, t_max, back_steps, short = self.t_start, math.inf, math.nan, None
        if (row.run is _run_stable and 0 < self.beta_inf < math.inf
                and closed_form_finite(self.alpha, self.m)):
            t_max = stable_manifold_t_max(self.beta_inf, self.alpha, self.m)
            if t_start is None:
                t_start = stable_manifold_t_start(self.beta_inf, self.alpha, self.m)
            back_steps = grid_size(BACKWARD_STEP, t_start - self.t_end_back)[0]
            if 0 < t_start <= t_max and back_steps < math.inf:
                short = stable_manifold_short_window(t_start, self.t_end_back)
        require({
            "preset": (self.preset in _PRESETS, f"unknown preset {self.preset!r}"),
            "alpha": (closed_form_finite(self.alpha, 1.0) if row.closed_form
                      else 0 <= self.alpha < math.inf,
                      ALPHA_RULE if row.closed_form else "alpha must be finite and >= 0"),
            "m": (0 < self.m < math.inf
                  and (not reads_m or closed_form_finite(self.alpha, self.m)),
                  M_RULE if reads_m else "m must be positive and finite"),
            # gamma = M (1 - |p|^2) lies in (0, M].
            "gamma0": (self.gamma0 is None or 0 < self.gamma0 <= self.m,
                       "gamma0 must lie in (0, m]"),
            "dt": (0 < self.dt < math.inf, "dt must be positive and finite"),
            "t_end": (0 < self.t_end < math.inf and not records > MAX_RECORDS
                      and not (row.run is _run_pde and records < 3),
                      f"t_end must be positive and finite, give at most sys.maxsize steps and "
                      f"{MAX_RECORDS} records and, for a PDE preset, more than record_stride "
                      f"steps of dt"),
            "ode_dt": (0 < self.ode_dt < math.inf, "ode_dt must be positive and finite"),
            "n": (self.grid_size > 0 and self.grid_size % 2 == 0, "n must be even and positive"),
            "record_stride": (self.record_stride >= 1, "record_stride must be >= 1"),
            "krasny_threshold": (0 <= self.krasny_threshold < 1,
                                 "krasny_threshold must lie in [0, 1)"),
            "spectrum_size": (self.spectrum_size >= 1, "spectrum_size must be >= 1"),
            "beta_inf": (0 < self.beta_inf < math.inf, "beta_inf must be positive and finite"),
            "t_start": ((self.t_start is None or 0 < self.t_start < math.inf)
                        and (t_start is None or t_start <= t_max) and short is None,
                        "t_start must be positive, finite and at most "
                        "log(beta_inf / sys.float_info.min) / (a + alpha)" if short is None
                        else short),
            "t_end_back": (math.isfinite(self.t_end_back)
                           and (t_start is None or self.t_end_back < t_start)
                           and back_steps != math.inf,
                           "t_end_back must be finite, below t_start (by default max(log("
                           "beta_inf / (1e-6 m)) / (a + alpha), 1)) by at most sys.maxsize steps"),
            # The K_u^2 invariance gate compares u(0) with the later snapshots only.
            "snapshot_times": (all(0 <= t < math.inf for t in self.snapshot_times)
                               and (not row.needs_snapshot
                                    or records <= MAX_RECORDS
                                    and later_times(self.snapshot_times, self.dt, self.t_end)),
                               "snapshot times must be finite and >= 0"
                               + (f"; {self.preset} needs one in (0, t_end], t_end rounded "
                                  f"to a whole number of steps of dt"
                                  if row.needs_snapshot else "")),
        })
        return self


class ConfigKey(NamedTuple):
    """A config-file key's type (a type or "floats"), its ``simulate`` flag
    and help, if any, and its ExperimentConfig field when that is not the key."""

    kind: object
    flag: str = None
    help: str = None
    field: str = None


# Every config-file key, in ``simulate --help`` order for the flagged ones.
CONFIG_KEYS = {
    "preset": ConfigKey(str),
    "alpha": ConfigKey(float, "--alpha"),
    "dt": ConfigKey(float, "--dt"),
    "t_end": ConfigKey(float, "--t-end"),
    "n": ConfigKey(int, "--n", "grid size (even)", field="grid_size"),
    "ic": ConfigKey(str, "--ic", "initial condition spec, e.g. pole:0.5"),
    "record_stride": ConfigKey(int, "--record-stride"),
    "krasny_threshold": ConfigKey(float, "--krasny-threshold"),
    "spectrum_size": ConfigKey(int, "--spectrum-size"),
    "m": ConfigKey(float, "--m", "momentum for ODE presets"),
    "beta_inf": ConfigKey(float, "--beta-inf"),
    "ode_dt": ConfigKey(float, "--ode-dt"),
    "snapshot_times": ConfigKey("floats"),
    "gamma0": ConfigKey(float),
    "t_start": ConfigKey(float, "--t-start"),
    "t_end_back": ConfigKey(float, "--t-end-back"),
}


def _coerce(key, raw, line=None):
    kind = CONFIG_KEYS[key].kind
    raw = raw.strip()
    try:
        if kind == "floats":  # an empty value is (); an empty field does not parse
            return tuple(map(float, raw.split(","))) if raw else ()
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r}: {exc}", line=line, field=key) from exc


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` file into override values."""
    overrides = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected 'key = value'", line=ln)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown key {key!r}", line=ln, field=key)
            overrides[CONFIG_KEYS[key].field or key] = _coerce(key, value, line=ln)
    return overrides


def build_config(preset: str, overrides: dict = None) -> ExperimentConfig:
    """Preset defaults, then file/flag overrides, then validation."""
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}", field="preset")
    named = (overrides or {}).get("preset")
    if named is not None and named != preset:
        raise ConfigError(f"overrides name preset {named!r}, but {preset!r} is being built",
                          field="preset")
    values = {**_PRESETS[preset].defaults, "preset": preset}
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return ExperimentConfig(**values).validate()


@dataclass
class ExperimentResult:
    preset: str
    passed: bool
    checks: list
    artifacts: dict
    values: dict


def _check(name, value, target, tol, mode="abs"):
    if mode == "abs":
        passed = value <= tol
    elif mode == "rel":
        passed = abs(value - target) <= tol * abs(target)
    elif mode == "ge":
        passed = value >= target
    elif mode == "le":
        passed = value <= target
    elif mode == "eq":
        passed = value == target
    else:
        raise ValueError(f"unknown check mode {mode}")
    return {"name": name, "value": value, "target": target, "tol": tol,
            "mode": mode, "passed": bool(passed)}


# The keys of verdict.json, taken from the spectrum_report summary.
VERDICT_KEYS = ("l2_sq", "momentum", "f_value", "verdict", "u0_coeff_abs")


def spectrum_report(u, size=hankel.DEFAULT_SIZE):
    """Spectrum plus the JSON-ready summary used by reports and the CLI."""
    size = min(size, u.n_modes)
    spec = hankel.k_spectrum(u, size=size)
    verdict = hankel.explosion_criterion(u, spec)
    summary = {
        "l2_sq": verdict.l2_sq,
        "momentum": hardy_momentum(u),
        "f_value": verdict.f_value,
        "verdict": verdict.verdict.value,
        "u0_coeff_abs": verdict.u0_coeff_abs,
        "tail_mass": hankel.tail_mass(u, size),
        "degenerate_clusters": spec.has_degenerate_cluster,
    }
    return spec, verdict, summary


def _fit_entry(name, target, fitted, window):
    dev = abs(fitted - target) / abs(target) if target else abs(fitted)
    return {"name": name, "target": target, "fitted": fitted, "rel_dev": dev,
            "window": list(window)}


def _run_pde(cfg: ExperimentConfig):
    row = _PRESETS[cfg.preset]
    u0 = parse_initial_condition(cfg.ic, cfg.grid_size)
    m0 = hardy_momentum(u0)
    # validate cannot see u(0).  Its momentum is the trace of K_u^2: on constant data
    # the spectrum invariance gates divide by zero and the closed-form constants fail.
    rule = "positive momentum" + (" and finite closed-form constants" if row.closed_form else "")
    require({"ic": (m0 > 0 and (not row.closed_form or closed_form_finite(cfg.alpha, m0)),
                    f"{cfg.preset} needs initial data with {rule}")})
    solver_cfg = SolverConfig(alpha=cfg.alpha, dt=cfg.dt, t_end=cfg.t_end,
                              grid_size=cfg.grid_size, krasny_threshold=cfg.krasny_threshold,
                              record_stride=cfg.record_stride)
    result = evolve(u0, solver_cfg,
                    snapshot_times=later_times(cfg.snapshot_times, cfg.dt, cfg.t_end))
    series = result.diagnostics

    spec, verdict, summary = spectrum_report(u0, size=cfg.spectrum_size)

    mom0 = series.momentum[0]
    drift = float(np.max(np.abs(series.momentum - mom0)) / abs(mom0)) if mom0 else 0.0

    # Every gate and fit reads the squared H^1 norm.
    half = series.t >= 0.5 * series.t[-1]
    slope, intercept = linear_fit(series.t[half], series.h1_sq[half])

    values = {
        "momentum_drift": drift,
        "lyapunov_residual": check_lyapunov(series, cfg.alpha),
        "verdict": verdict.verdict.value,
        "resolution_loss": result.resolution_loss,
        "hs_slope": slope,
        "hs_fit_r2": r_squared(series.t[half], series.h1_sq[half], slope, intercept),
    }
    window = (float(series.t[half][0]), float(series.t[-1]))
    gates, fits = row.gates(PdeRun(cfg, u0, m0, result, spec, values, window))
    return gates, values, {
        "diagnostics": series,
        "spectrum": spec,
        "spectrum_summary": summary,
        "fits": fits,
        "result": result,
    }


# What a PDE preset's gate function reads.  It returns the preset's gate
# tuples and fit.json entries, and adds its own keys to ``values``.
PdeRun = namedtuple("PdeRun", "cfg u0 m0 result spec values window")


def _invariance_gate(run, later):
    """Gate the worst change of the top-5 K_u^2 eigenvalues from u(0) to the ``later``
    states, relative to the top eigenvalue of u(0); the change joins ``values``."""
    top = np.zeros((1 + len(later), 5))
    for evals, state in zip(top, [run.u0, *later]):
        k_evals = hankel.k_eigenvalues(state, min(run.cfg.spectrum_size, state.n_modes))[:5]
        evals[: k_evals.shape[0]] = k_evals
    run.values["spectrum_invariance"] = float(np.max(np.abs(top[1:] - top[0])) / top[0, 0])
    return ("spectrum_invariance", run.values["spectrum_invariance"], 0.0, 1e-6)


def _single_pole_gates(run):
    v = run.values
    target = asymptotic_constants(run.cfg.alpha, run.m0).growth_coeff(1.0)
    return ([("h1_slope_vs_prediction", v["hs_slope"], target, 0.05, "rel"),
             ("momentum_drift", v["momentum_drift"], 0.0, 1e-9),
             ("lyapunov_residual", v["lyapunov_residual"], 0.0, 1e-5),
             ("verdict", v["verdict"], "ExplodesStrict", None, "eq")],
            [_fit_entry("h1_sq_slope", target, v["hs_slope"], run.window)])


def _two_poles_gates(run):
    v = run.values
    return ([("k_rank", len(run.spec), 2, None, "eq"),
             ("linear_growth_r2", v["hs_fit_r2"], 0.99, None, "ge"),
             ("positive_slope", v["hs_slope"], 0.0, None, "ge"),
             _invariance_gate(run, [s for _, s in run.result.snapshots])],
            [_fit_entry("h1_sq_slope", v["hs_slope"], v["hs_slope"], run.window)])


def _gaussian_gates(run):
    # H^s -> infinity is proved for ExplodesStrict data, but no rate is: the
    # squared H^1 norm beats around its trend, so R^2 is reported, not gated.
    v = run.values
    return ([("momentum_drift", v["momentum_drift"], 0.0, 1e-8),
             ("positive_slope", v["hs_slope"], 0.0, None, "ge"),
             ("verdict", v["verdict"], "ExplodesStrict", None, "eq"),
             _invariance_gate(run, [run.result.u_final])],
            [_fit_entry("h1_sq_slope", v["hs_slope"], v["hs_slope"], run.window)])


def _baby_gates(run):
    alpha, m0, l2_sq = run.cfg.alpha, run.m0, run.result.diagnostics.l2_sq
    run.values["min_l2_sq"] = float(l2_sq.min())
    # The log-slope on [30, 40] of the linearised q0 with q0(0) = 1, q0'(0) = -(alpha + iM).
    lo, hi = 30.0, 40.0
    qa, qb = (linearized_q0(alpha, m0, 1.0 + 0j, -(alpha + 1j * m0), t) for t in (lo, hi))
    rate = (math.log(abs(qb)) - math.log(abs(qa))) / (hi - lo)
    target = 0.5 * (asymptotic_constants(alpha, m0).a - alpha)
    return ([("l2_dips_by_eps_sq", run.values["min_l2_sq"],
              float(l2_sq[0] - abs(run.u0.coeffs[0]) ** 2), None, "le"),
             ("linearized_growth_rate", abs(rate - target), 0.0, 1e-10)],
            [_fit_entry("linearized_growth_rate", target, rate, (lo, hi))])


# kappa_fit records its reduced run once per this span of t.
_KAPPA_RECORD_SPAN = 0.1


def _run_kappa(cfg: ExperimentConfig):
    gamma0 = cfg.gamma0 if cfg.gamma0 is not None else 0.75 * cfg.m
    r0 = ReducedState(beta=0.0, gamma=gamma0, zeta=0j)
    stride = run_grid(cfg.ode_dt, _KAPPA_RECORD_SPAN)[0]
    window = (0.5 * cfg.t_end, cfg.t_end)
    n, recorded = run_grid(cfg.ode_dt, cfg.t_end, stride)
    t = np.array([*recorded, n]) * cfg.ode_dt
    samples = int(np.count_nonzero((t >= window[0]) & (t <= window[1])))
    require({"t_end": (samples >= MIN_TAIL_SAMPLES,
                       f"t_end = {cfg.t_end:g} leaves {samples} records in the fit window "
                       f"[{window[0]:g}, {window[1]:g}]; need >= {MIN_TAIL_SAMPLES}")})
    traj = integrate_reduced(r0, cfg.alpha, cfg.m, cfg.ode_dt, cfg.t_end, record_stride=stride)
    kappa = asymptotic_constants(cfg.alpha, cfg.m).kappa
    fitted = gamma_tail_fit(traj, window=window)
    return ([("kappa_fit", fitted, kappa, 0.05, "rel")], {"kappa": kappa, "fitted": fitted},
            {"trajectory": traj, "fits": [_fit_entry("gamma_times_t", kappa, fitted, window)]})


def _run_stable(cfg: ExperimentConfig):
    consts = asymptotic_constants(cfg.alpha, cfg.m)
    result = stable_manifold_trajectory(
        cfg.beta_inf, cfg.alpha, cfg.m, t_start=cfg.t_start, t_end_back=cfg.t_end_back,
    )
    rate, rate_window = beta_decay_rate(result)
    ratio, ratio_window = delta_beta_ratio(result)
    rate_target = consts.decay_rate
    ratio_target = (consts.a - cfg.alpha) / (consts.a + cfg.alpha)
    gates = [
        ("beta_decay_rate", rate, rate_target, 0.01, "rel"),
        ("delta_beta_ratio", ratio, ratio_target, 0.01, "rel"),
        ("roundtrip_residual", result.roundtrip_residual, 0.0, 1e-8),
    ]
    fits = [
        _fit_entry("beta_decay_rate", rate_target, rate, rate_window),
        _fit_entry("delta_beta_ratio", ratio_target, ratio, ratio_window),
    ]
    values = {
        "roundtrip_residual": result.roundtrip_residual,
        "fp_iterations": result.fp_iterations,
        "t_start": result.t_start,
    }
    return gates, values, {"stable": result, "fits": fits}


# One row per preset: its runner, the fields it sets over the ExperimentConfig
# defaults, whether it reads the closed-form (alpha, M) constants (so needs
# alpha > 0 and, for PDE data, finite constants at M(u0)), whether its gates
# need a snapshot in (0, t_end] and, for _run_pde, its gate function.  A runner
# returns (gates, values, artifacts); each gate holds the arguments of _check.
Preset = namedtuple("Preset", "run defaults closed_form needs_snapshot gates",
                    defaults=(False, False, None))
_PRESETS = {
    "single_pole": Preset(_run_pde, dict(ic="pole:0.5", spectrum_size=256), True,
                          gates=_single_pole_gates),
    "two_poles": Preset(_run_pde, dict(ic="poles:0.7,0.8", spectrum_size=512,
                                       snapshot_times=(0.0, 2.5, 5.0)),
                        needs_snapshot=True, gates=_two_poles_gates),
    "gaussian": Preset(_run_pde, dict(ic="gaussian:10", dt=2e-3, t_end=100.0),
                       gates=_gaussian_gates),
    "baby": Preset(_run_pde, dict(ic="perturbed_circle:0.05", dt=1e-3, grid_size=2048,
                                  spectrum_size=64), True, gates=_baby_gates),
    "custom": Preset(_run_pde, {}, gates=lambda run: ([], [])),
    "kappa_fit": Preset(_run_kappa, dict(m=16.0 / 9.0, t_end=500.0), True),
    "stable_manifold": Preset(_run_stable, {}, True),
}

PRESET_NAMES = tuple(_PRESETS)


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Run one preset, check its gates and, if ``out_dir`` is given, write its artifact files."""
    cfg.validate()
    gates, values, artifacts = _PRESETS[cfg.preset].run(cfg)
    checks = [_check(*gate) for gate in gates]
    result = ExperimentResult(cfg.preset, all(c["passed"] for c in checks), checks,
                              artifacts, values)
    if out_dir is not None:
        _write_artifacts(cfg, result, out_dir)
    return result


def spectrum_files(spec, summary) -> dict:
    """``spectrum.csv``, ``spectrum.json`` and ``verdict.json`` of one spectrum report."""
    return {"spectrum.csv": spectrum_csv(spec), "spectrum.json": summary,
            "verdict.json": {k: summary[k] for k in VERDICT_KEYS}}


def _write_artifacts(cfg, result, out_dir):
    art = result.artifacts
    files = {}
    if "diagnostics" in art:
        files["diagnostics.csv"] = diagnostics_csv(art["diagnostics"])
        files.update(spectrum_files(art["spectrum"], art["spectrum_summary"]))
    if "trajectory" in art:
        files["trajectory.csv"] = reduced_trajectory_csv(art["trajectory"])
    if "stable" in art:
        files["stable_manifold.csv"] = stable_trajectory_csv(art["stable"])
    files["fit.json"] = art.get("fits", [])
    files["summary.json"] = {"preset": result.preset, "passed": result.passed,
                             "checks": result.checks, "values": result.values}
    files["meta.json"] = {"config": asdict(cfg), "versions": _versions(),
                          "written_at_unix": time.time()}
    result.artifacts = {**art, "paths": write_files(out_dir, files)}


def _versions():
    import platform

    from . import __version__

    return {
        "damped_szego": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def verify_identities(alpha: float, m: float) -> dict:
    """Residuals of every closed-form identity for given (alpha, M), with the H^1
    growth coefficient."""
    consts = asymptotic_constants(alpha, m)
    a = consts.a
    lam_p, lam_m = consts.lambda_plus, consts.lambda_minus
    root = math.sqrt(a * a - alpha * alpha)
    amat, eigvals = linearization_matrix(alpha, m)
    expected = np.array([alpha - a, alpha, alpha, alpha + a], dtype=complex)
    expected += np.array([0.0, -1j * root, 1j * root, 0.0])
    order = np.lexsort((expected.imag, expected.real))
    expected = expected[order]
    eig_resid = float(np.max(np.abs(eigvals - expected)) / max(abs(alpha + a), 1.0))
    det_resid = abs(np.linalg.det(amat) - np.prod(expected).real) / max(
        abs(np.prod(expected).real), 1.0
    )
    residuals = {
        "a_identity": abs(a * root - 2.0 * m * alpha) / (2.0 * m * alpha),
        "root_sum": abs(lam_p + lam_m + alpha),
        "root_product": abs(lam_p * lam_m + 1j * m * alpha) / (m * alpha),
        "char_plus": abs(lam_p**2 + alpha * lam_p - 1j * m * alpha) / (m * alpha),
        "char_minus": abs(lam_m**2 + alpha * lam_m - 1j * m * alpha) / (m * alpha),
        "matrix_eigenvalues": eig_resid,
        "matrix_determinant": det_resid,
        "matrix_trace": abs(np.trace(amat) - 4.0 * alpha) / max(abs(4.0 * alpha), 1.0),
    }
    report = {
        "alpha": alpha,
        "momentum": m,
        "a": a,
        "kappa": consts.kappa,
        "lambda_plus": consts.lambda_plus,
        "lambda_minus": consts.lambda_minus,
        "decay_rate": consts.decay_rate,
        "dist_rate": consts.dist_rate,
        "growth_coeff": consts.growth_coeff(1.0),
        "s": 1.0,
        "a_greater_than_alpha": a > alpha,
        "residuals": residuals,
        "max_residual": max(residuals.values()),
        "passed": a > alpha and max(residuals.values()) <= 1e-10,
    }
    return report
