"""Preset experiments, their pass/fail checks and artifact writing."""

import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import hankel
from .errors import ConfigError
from .fitting import linear_fit, r_squared
from .hardy import momentum as hardy_momentum
from .initial_conditions import parse_initial_condition
from .reporting import (
    diagnostics_csv,
    reduced_trajectory_csv,
    spectrum_csv,
    stable_trajectory_csv,
    write_json,
    write_text,
)
from .solver import SolverConfig, check_lyapunov, evolve
from .wmanifold import (
    ReducedState,
    asymptotic_constants,
    beta_decay_rate,
    delta_beta_ratio,
    gamma_tail_fit,
    integrate_reduced,
    linearization_matrix,
    stable_manifold_trajectory,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "PRESET_NAMES",
    "build_config",
    "load_config_file",
    "run_experiment",
    "spectrum_report",
    "verify_identities",
]


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
    sobolev_exponents: tuple = (1.0,)
    spectrum_size: int = 128
    cluster_tol: float = 1e-8
    rank_cutoff: float = None
    criterion_tol: float = None
    snapshot_times: tuple = ()
    m: float = 1.0
    gamma0: float = None
    beta_inf: float = 1.0
    t_start: float = None
    t_end_back: float = 0.0
    ode_dt: float = 1e-3
    s_fit: float = 1.0
    paper_horizon: bool = False
    out: str = "out"

    def validate(self):
        if self.preset not in PRESET_NAMES:
            raise ConfigError(f"unknown preset {self.preset!r}", field="preset")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0", field="alpha")
        if self.dt <= 0 or self.t_end <= 0 or self.ode_dt <= 0:
            raise ConfigError("time steps and horizons must be positive", field="dt")
        if self.grid_size <= 0 or self.grid_size % 2:
            raise ConfigError("n must be even and positive", field="n")
        if self.beta_inf <= 0:
            raise ConfigError("beta_inf must be positive", field="beta_inf")
        return self


_PDE_PRESETS = {
    "single_pole": dict(ic="pole:0.5", alpha=1.0, dt=2e-4, t_end=20.0, grid_size=4096,
                        record_stride=10, spectrum_size=256),
    "two_poles": dict(ic="poles:0.7,0.8", alpha=1.0, dt=2e-4, t_end=20.0, grid_size=4096,
                      record_stride=10, spectrum_size=512, snapshot_times=(0.0, 2.5, 5.0)),
    "gaussian": dict(ic="gaussian:10", alpha=1.0, dt=2e-3, t_end=100.0, grid_size=4096,
                     record_stride=10, spectrum_size=128),
    "baby": dict(ic="perturbed_circle:0.05", alpha=1.0, dt=1e-3, t_end=20.0, grid_size=2048,
                 record_stride=10, spectrum_size=64, m=1.0),
    "custom": dict(),
}

_ODE_PRESETS = {
    "kappa_fit": dict(alpha=1.0, m=16.0 / 9.0, t_end=500.0, ode_dt=1e-3),
    "stable_manifold": dict(alpha=1.0, m=1.0, beta_inf=1.0),
}

PRESET_NAMES = tuple(_PDE_PRESETS) + tuple(_ODE_PRESETS)

_CONFIG_KEYS = {
    "preset": str,
    "ic": str,
    "alpha": float,
    "dt": float,
    "t_end": float,
    "n": int,
    "record_stride": int,
    "krasny_threshold": float,
    "sobolev_exponents": "floats",
    "spectrum_size": int,
    "cluster_tol": float,
    "rank_cutoff": float,
    "criterion_tol": float,
    "snapshot_times": "floats",
    "m": float,
    "gamma0": float,
    "beta_inf": float,
    "t_start": float,
    "t_end_back": float,
    "ode_dt": float,
    "s_fit": float,
    "paper_horizon": "bool",
    "out": str,
}

_FIELD_BY_KEY = {"n": "grid_size"}


def _coerce(key, raw, line=None):
    kind = _CONFIG_KEYS[key]
    raw = raw.strip()
    try:
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "floats":
            return tuple(float(p) for p in raw.split(",") if p.strip())
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
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown key {key!r}", line=ln, field=key)
            overrides[_FIELD_BY_KEY.get(key, key)] = _coerce(key, value, line=ln)
    return overrides


def build_config(preset: str, overrides: dict = None) -> ExperimentConfig:
    """Preset defaults, then file/flag overrides, then validation."""
    if preset not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r}", field="preset")
    values = dict(_PDE_PRESETS.get(preset) or _ODE_PRESETS.get(preset) or {})
    values["preset"] = preset
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    cfg = replace(ExperimentConfig(), **values)
    if cfg.preset == "gaussian" and cfg.paper_horizon and "t_end" not in (overrides or {}):
        cfg = replace(cfg, t_end=1000.0)
    return cfg.validate()


@dataclass
class ExperimentResult:
    preset: str
    passed: bool
    checks: list
    artifacts: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)


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


def spectrum_report(u, size=hankel.DEFAULT_SIZE, cluster_tol=hankel.DEFAULT_CLUSTER_TOL,
                    rank_cutoff=None, tol=None):
    """Spectrum plus the JSON-ready summary used by reports and the CLI."""
    size = min(size, u.n_modes)
    spec = hankel.k_spectrum(u, size=size, cluster_tol=cluster_tol, rank_cutoff=rank_cutoff)
    verdict = hankel.explosion_criterion(u, size=size, cluster_tol=cluster_tol,
                                         rank_cutoff=rank_cutoff, tol=tol)
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


def _top_eigenvalues(state, size, count):
    evals = hankel.eigenvalues(hankel.gram_k(state, min(size, state.n_modes)))
    out = np.zeros(count)
    out[: min(count, evals.shape[0])] = evals[:count]
    return out


def _spectrum_drift(base_state, states, size):
    """Worst change of the top-5 K_u^2 eigenvalues from those of ``base_state``.

    Measured over ``states`` and relative to the top eigenvalue of ``base_state``.
    """
    base = _top_eigenvalues(base_state, size, 5)
    worst = 0.0
    for state in states:
        evals = _top_eigenvalues(state, size, 5)
        worst = max(worst, float(np.max(np.abs(evals - base)) / base[0]))
    return worst


def _run_pde(cfg: ExperimentConfig) -> ExperimentResult:
    u0 = parse_initial_condition(cfg.ic, cfg.grid_size)
    solver_cfg = SolverConfig(
        alpha=cfg.alpha,
        dt=cfg.dt,
        t_end=cfg.t_end,
        grid_size=cfg.grid_size,
        krasny_threshold=cfg.krasny_threshold,
        record_stride=cfg.record_stride,
        sobolev_exponents=cfg.sobolev_exponents,
    )
    snaps = tuple(t for t in cfg.snapshot_times if t <= cfg.t_end + 1e-12)
    result = evolve(u0, solver_cfg, snapshot_times=snaps)
    series = result.diagnostics

    spec, verdict, summary = spectrum_report(
        u0, size=cfg.spectrum_size, cluster_tol=cfg.cluster_tol,
        rank_cutoff=cfg.rank_cutoff, tol=cfg.criterion_tol,
    )

    mom0 = series.momentum[0]
    drift = float(np.max(np.abs(series.momentum - mom0)) / abs(mom0)) if mom0 else 0.0
    lyap = check_lyapunov(series, cfg.alpha)

    s_fit = cfg.s_fit if cfg.s_fit in series.hs_sq else cfg.sobolev_exponents[0]
    hs = series.hs_sq[s_fit]
    half = series.t >= 0.5 * series.t[-1]
    slope, intercept = linear_fit(series.t[half], hs[half])
    r2 = r_squared(series.t[half], hs[half], slope, intercept)
    window = (float(series.t[half][0]), float(series.t[-1]))

    checks = []
    fits = []
    values = {
        "momentum_drift": drift,
        "lyapunov_residual": lyap,
        "verdict": verdict.verdict.value,
        "resolution_loss": result.resolution_loss,
        "hs_slope": slope,
        "hs_fit_r2": r2,
    }

    if cfg.preset == "single_pole":
        m = hardy_momentum(u0)
        target = asymptotic_constants(cfg.alpha, m).growth_coeff(1.0)
        fits.append(_fit_entry("h1_sq_slope", target, slope, window))
        checks.append(_check("h1_slope_vs_prediction", slope, target, 0.05, mode="rel"))
        checks.append(_check("momentum_drift", drift, 0.0, 1e-9))
        checks.append(_check("lyapunov_residual", lyap, 0.0, 1e-5))
        checks.append(_check("verdict", verdict.verdict.value, "ExplodesStrict", None, mode="eq"))
    elif cfg.preset == "two_poles":
        fits.append(_fit_entry("h1_sq_slope", slope, slope, window))
        checks.append(_check("k_rank", len(spec), 2, None, mode="eq"))
        checks.append(_check("linear_growth_r2", r2, 0.99, None, mode="ge"))
        checks.append(_check("positive_slope", slope, 0.0, None, mode="ge"))
        if result.snapshots:
            states = [state for _, state in result.snapshots]
            worst = _spectrum_drift(states[0], states[1:], cfg.spectrum_size)
            values["spectrum_invariance"] = worst
            checks.append(_check("spectrum_invariance", worst, 0.0, 1e-6))
    elif cfg.preset == "gaussian":
        # H^s -> infinity is proved for ExplodesStrict data, but no rate is: the
        # squared H^1 norm beats around its trend, so R^2 is reported, not gated.
        fits.append(_fit_entry("h1_sq_slope", slope, slope, window))
        checks.append(_check("momentum_drift", drift, 0.0, 1e-8))
        checks.append(_check("positive_slope", slope, 0.0, None, mode="ge"))
        checks.append(_check("verdict", verdict.verdict.value, "ExplodesStrict", None, mode="eq"))
        worst = _spectrum_drift(u0, [result.u_final], cfg.spectrum_size)
        values["spectrum_invariance"] = worst
        checks.append(_check("spectrum_invariance", worst, 0.0, 1e-6))
    elif cfg.preset == "baby":
        eps = abs(u0.coeffs[0])
        min_l2 = float(series.l2_sq.min())
        values["min_l2_sq"] = min_l2
        checks.append(_check("l2_dips_by_eps_sq", min_l2, float(series.l2_sq[0] - eps**2),
                             None, mode="le"))
        consts = asymptotic_constants(cfg.alpha, cfg.m)
        rate_target = 0.5 * (consts.a - cfg.alpha)
        rate = _linearized_growth_rate(cfg.alpha, cfg.m)
        fits.append(_fit_entry("linearized_growth_rate", rate_target, rate, (30.0, 40.0)))
        checks.append(_check("linearized_growth_rate", abs(rate - rate_target), 0.0, 1e-10))

    return ExperimentResult(
        preset=cfg.preset,
        passed=all(c["passed"] for c in checks),
        checks=checks,
        values=values,
        artifacts={
            "diagnostics": series,
            "spectrum": spec,
            "spectrum_summary": summary,
            "verdict": verdict,
            "fits": fits,
            "result": result,
        },
    )


def _linearized_growth_rate(alpha, m):
    from .wmanifold import linearized_q0

    q0_0 = 1.0 + 0j
    dq0_0 = -(alpha + 1j * m)
    lo, hi = 30.0, 40.0
    qa = linearized_q0(alpha, m, q0_0, dq0_0, lo)
    qb = linearized_q0(alpha, m, q0_0, dq0_0, hi)
    return (math.log(abs(qb)) - math.log(abs(qa))) / (hi - lo)


def _run_kappa(cfg: ExperimentConfig) -> ExperimentResult:
    m = cfg.m
    gamma0 = cfg.gamma0 if cfg.gamma0 is not None else 0.75 * m
    r0 = ReducedState(beta=0.0, gamma=gamma0, zeta=0j)
    stride = max(1, int(round(0.1 / cfg.ode_dt)))
    traj = integrate_reduced(r0, cfg.alpha, m, cfg.ode_dt, cfg.t_end, record_stride=stride)
    kappa = asymptotic_constants(cfg.alpha, m).kappa
    window = (0.5 * cfg.t_end, cfg.t_end)
    fitted = gamma_tail_fit(traj, window=window)
    checks = [_check("kappa_fit", fitted, kappa, 0.05, mode="rel")]
    fits = [_fit_entry("gamma_times_t", kappa, fitted, window)]
    return ExperimentResult(
        preset=cfg.preset,
        passed=all(c["passed"] for c in checks),
        checks=checks,
        values={"kappa": kappa, "fitted": fitted},
        artifacts={"trajectory": traj, "fits": fits},
    )


def _run_stable(cfg: ExperimentConfig) -> ExperimentResult:
    consts = asymptotic_constants(cfg.alpha, cfg.m)
    result = stable_manifold_trajectory(
        cfg.beta_inf, cfg.alpha, cfg.m, t_start=cfg.t_start, t_end_back=cfg.t_end_back,
    )
    rate = beta_decay_rate(result)
    ratio = delta_beta_ratio(result)
    rate_target = consts.decay_rate
    ratio_target = (consts.a - cfg.alpha) / (consts.a + cfg.alpha)
    checks = [
        _check("beta_decay_rate", rate, rate_target, 0.01, mode="rel"),
        _check("delta_beta_ratio", ratio, ratio_target, 0.01, mode="rel"),
        _check("roundtrip_residual", result.roundtrip_residual, 0.0, 1e-8),
    ]
    fits = [
        _fit_entry("beta_decay_rate", rate_target, rate, (0.5 * result.t_start, result.t_start)),
        _fit_entry("delta_beta_ratio", ratio_target, ratio, (0.8 * result.t_start, result.t_start)),
    ]
    return ExperimentResult(
        preset=cfg.preset,
        passed=all(c["passed"] for c in checks),
        checks=checks,
        values={
            "roundtrip_residual": result.roundtrip_residual,
            "fp_iterations": result.fp_iterations,
            "t_start": result.t_start,
        },
        artifacts={"stable": result, "fits": fits},
    )


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Run one preset and, if ``out_dir`` is given, write its artifact files."""
    cfg.validate()
    if cfg.preset == "kappa_fit":
        result = _run_kappa(cfg)
    elif cfg.preset == "stable_manifold":
        result = _run_stable(cfg)
    else:
        result = _run_pde(cfg)
    if out_dir is not None:
        _write_artifacts(cfg, result, out_dir)
    return result


def _write_artifacts(cfg, result, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    art = result.artifacts
    paths = {}

    def emit(name, text):
        path = os.path.join(out_dir, name)
        write_text(path, text)
        paths[name] = path

    if "diagnostics" in art:
        emit("diagnostics.csv", diagnostics_csv(art["diagnostics"]))
        emit("spectrum.csv", spectrum_csv(art["spectrum"]))
        write_json(os.path.join(out_dir, "spectrum.json"), art["spectrum_summary"])
        paths["spectrum.json"] = os.path.join(out_dir, "spectrum.json")
        v = art["verdict"]
        write_json(
            os.path.join(out_dir, "verdict.json"),
            {"l2_sq": v.l2_sq, "f_value": v.f_value, "u0_coeff_abs": v.u0_coeff_abs,
             "verdict": v.verdict.value},
        )
        paths["verdict.json"] = os.path.join(out_dir, "verdict.json")
    if "trajectory" in art:
        emit("trajectory.csv", reduced_trajectory_csv(art["trajectory"]))
    if "stable" in art:
        emit("stable_manifold.csv", stable_trajectory_csv(art["stable"]))

    write_json(os.path.join(out_dir, "fit.json"), art.get("fits", []))
    paths["fit.json"] = os.path.join(out_dir, "fit.json")
    write_json(
        os.path.join(out_dir, "summary.json"),
        {"preset": result.preset, "passed": result.passed, "checks": result.checks,
         "values": result.values},
    )
    paths["summary.json"] = os.path.join(out_dir, "summary.json")

    meta = {"config": asdict(cfg), "versions": _versions()}
    import time

    meta["written_at_unix"] = time.time()
    write_json(os.path.join(out_dir, "meta.json"), meta)
    paths["meta.json"] = os.path.join(out_dir, "meta.json")
    result.artifacts = {**art, "paths": paths}


def _versions():
    import platform

    from . import __version__

    return {
        "damped_szego": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def verify_identities(alpha: float, m: float, s: float = 1.0) -> dict:
    """Residuals of every closed-form identity for given (alpha, M)."""
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
        "growth_coeff": consts.growth_coeff(s),
        "s": s,
        "a_greater_than_alpha": a > alpha,
        "residuals": residuals,
        "max_residual": max(residuals.values()),
        "passed": a > alpha and max(residuals.values()) <= 1e-10,
    }
    return report
