"""Preset experiments, their pass/fail checks and artifact writing."""

import math
import time
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
from .solver import SolverConfig, check_lyapunov, evolve
from .wmanifold import (
    ReducedState,
    asymptotic_constants,
    beta_decay_rate,
    delta_beta_ratio,
    gamma_tail_fit,
    integrate_reduced,
    linearization_matrix,
    linearized_q0,
    stable_manifold_trajectory,
)

__all__ = [
    "CONFIG_KEYS",
    "ExperimentConfig",
    "ExperimentResult",
    "PRESET_NAMES",
    "VERDICT_KEYS",
    "build_config",
    "load_config_file",
    "run_experiment",
    "spectrum_files",
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
    snapshot_times: tuple = ()
    m: float = 1.0
    gamma0: float = None
    beta_inf: float = 1.0
    t_start: float = None
    t_end_back: float = 0.0
    ode_dt: float = 1e-3

    def later_snapshots(self):
        """The snapshot times in (0, t_end]."""
        return tuple(t for t in self.snapshot_times if 0 < t <= self.t_end + 1e-12)

    def validate(self):
        # These presets read the closed-form constants, which need alpha > 0.
        closed_form = self.preset in ("single_pole", "baby", "kappa_fit", "stable_manifold")
        # check_lyapunov needs three records: u(0), the one at record_stride and the last.
        steps = self.t_end / self.dt if self.dt > 0 else math.nan
        pde_too_short = (_PRESETS.get(self.preset, (None,))[0] is _run_pde
                         and math.isfinite(steps) and round(steps) <= self.record_stride)
        require({
            "preset": (self.preset in _PRESETS, f"unknown preset {self.preset!r}"),
            "alpha": (self.alpha > 0 or (self.alpha == 0 and not closed_form),
                      "alpha must be positive" if closed_form else "alpha must be >= 0"),
            "m": (self.m > 0, "m must be positive"),
            "dt": (0 < self.dt < math.inf, "dt must be positive and finite"),
            "t_end": (0 < self.t_end < math.inf and not pde_too_short, "t_end must be positive, "
                      "finite and, for a PDE preset, give more than record_stride steps of dt"),
            "ode_dt": (0 < self.ode_dt < math.inf, "ode_dt must be positive and finite"),
            "n": (self.grid_size > 0 and self.grid_size % 2 == 0, "n must be even and positive"),
            "record_stride": (self.record_stride >= 1, "record_stride must be >= 1"),
            "krasny_threshold": (0 <= self.krasny_threshold < 1,
                                 "krasny_threshold must lie in [0, 1)"),
            "spectrum_size": (self.spectrum_size >= 1, "spectrum_size must be >= 1"),
            "sobolev_exponents": (min(self.sobolev_exponents, default=1.0) >= 0.5,
                                  "Sobolev exponents must be >= 1/2"),
            "beta_inf": (0 < self.beta_inf < math.inf, "beta_inf must be positive and finite"),
            "t_start": (self.t_start is None or math.isfinite(self.t_start),
                        "t_start must be finite"),
            "t_end_back": (math.isfinite(self.t_end_back)
                           and (self.t_start is None or self.t_end_back < self.t_start),
                           "t_end_back must be finite and smaller than t_start"),
            # The K_u^2 invariance gate compares u(0) with these snapshots only.
            "snapshot_times": (self.preset != "two_poles" or self.later_snapshots(),
                               "two_poles needs a snapshot time in (0, t_end]"),
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
    "sobolev_exponents": ConfigKey("floats"),
    "snapshot_times": ConfigKey("floats"),
    "gamma0": ConfigKey(float),
    "t_start": ConfigKey(float, "--t-start"),
    "t_end_back": ConfigKey(float, "--t-end-back"),
}


def _coerce(key, raw, line=None):
    kind = CONFIG_KEYS[key].kind
    raw = raw.strip()
    try:
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
    values = {**_PRESETS[preset][1], "preset": preset}
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


def spectrum_report(u, size=hankel.DEFAULT_SIZE, cluster_tol=hankel.DEFAULT_CLUSTER_TOL,
                    rank_cutoff=None, tol=None):
    """Spectrum plus the JSON-ready summary used by reports and the CLI."""
    size = min(size, u.n_modes)
    spec = hankel.k_spectrum(u, size=size, cluster_tol=cluster_tol, rank_cutoff=rank_cutoff)
    verdict = hankel.explosion_criterion(u, spec, tol=tol)
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
    evals = hankel.k_eigenvalues(state, min(size, state.n_modes))
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


def _run_pde(cfg: ExperimentConfig):
    u0 = parse_initial_condition(cfg.ic, cfg.grid_size)
    slope_target = None
    if cfg.preset == "single_pole":
        # The slope target reads the momentum of u(0), which validate cannot see.
        m0 = hardy_momentum(u0)
        require({"ic": (m0 > 0, "single_pole needs initial data with positive momentum")})
        slope_target = asymptotic_constants(cfg.alpha, m0).growth_coeff(1.0)
    solver_cfg = SolverConfig(
        alpha=cfg.alpha,
        dt=cfg.dt,
        t_end=cfg.t_end,
        grid_size=cfg.grid_size,
        krasny_threshold=cfg.krasny_threshold,
        record_stride=cfg.record_stride,
        sobolev_exponents=tuple(sorted({1.0, *cfg.sobolev_exponents})),
    )
    result = evolve(u0, solver_cfg, snapshot_times=cfg.later_snapshots())
    series = result.diagnostics

    spec, verdict, summary = spectrum_report(u0, size=cfg.spectrum_size)

    mom0 = series.momentum[0]
    drift = float(np.max(np.abs(series.momentum - mom0)) / abs(mom0)) if mom0 else 0.0
    lyap = check_lyapunov(series, cfg.alpha)

    # Every gate and fit reads the squared H^1 norm.
    hs = series.hs_sq[1.0]
    half = series.t >= 0.5 * series.t[-1]
    slope, intercept = linear_fit(series.t[half], hs[half])
    r2 = r_squared(series.t[half], hs[half], slope, intercept)
    window = (float(series.t[half][0]), float(series.t[-1]))

    values = {
        "momentum_drift": drift,
        "lyapunov_residual": lyap,
        "verdict": verdict.verdict.value,
        "resolution_loss": result.resolution_loss,
        "hs_slope": slope,
        "hs_fit_r2": r2,
    }
    if cfg.preset in ("two_poles", "gaussian"):
        later = [s for _, s in result.snapshots] if cfg.preset == "two_poles" else [result.u_final]
        values["spectrum_invariance"] = _spectrum_drift(u0, later, cfg.spectrum_size)
    invariance = ("spectrum_invariance", values.get("spectrum_invariance"), 0.0, 1e-6)
    explodes = ("verdict", verdict.verdict.value, "ExplodesStrict", None, "eq")
    positive_slope = ("positive_slope", slope, 0.0, None, "ge")

    fits = []
    if cfg.preset == "single_pole":
        gates = [("h1_slope_vs_prediction", slope, slope_target, 0.05, "rel"),
                 ("momentum_drift", drift, 0.0, 1e-9),
                 ("lyapunov_residual", lyap, 0.0, 1e-5), explodes]
    elif cfg.preset == "two_poles":
        gates = [("k_rank", len(spec), 2, None, "eq"), ("linear_growth_r2", r2, 0.99, None, "ge"),
                 positive_slope, invariance]
    elif cfg.preset == "gaussian":
        # H^s -> infinity is proved for ExplodesStrict data, but no rate is: the
        # squared H^1 norm beats around its trend, so R^2 is reported, not gated.
        gates = [("momentum_drift", drift, 0.0, 1e-8), positive_slope, explodes, invariance]
    elif cfg.preset == "baby":
        eps = abs(u0.coeffs[0])
        values["min_l2_sq"] = float(series.l2_sq.min())
        rate_target = 0.5 * (asymptotic_constants(cfg.alpha, cfg.m).a - cfg.alpha)
        rate = _linearized_growth_rate(cfg.alpha, cfg.m)
        fits = [_fit_entry("linearized_growth_rate", rate_target, rate, (30.0, 40.0))]
        gates = [("l2_dips_by_eps_sq", values["min_l2_sq"], float(series.l2_sq[0] - eps**2),
                  None, "le"),
                 ("linearized_growth_rate", abs(rate - rate_target), 0.0, 1e-10)]
    else:
        gates = []
    if cfg.preset in ("single_pole", "two_poles", "gaussian"):
        target = slope if slope_target is None else slope_target
        fits = [_fit_entry("h1_sq_slope", target, slope, window)]

    return gates, values, {
        "diagnostics": series,
        "spectrum": spec,
        "spectrum_summary": summary,
        "verdict": verdict,
        "fits": fits,
        "result": result,
    }


def _linearized_growth_rate(alpha, m):
    q0_0 = 1.0 + 0j
    dq0_0 = -(alpha + 1j * m)
    lo, hi = 30.0, 40.0
    qa = linearized_q0(alpha, m, q0_0, dq0_0, lo)
    qb = linearized_q0(alpha, m, q0_0, dq0_0, hi)
    return (math.log(abs(qb)) - math.log(abs(qa))) / (hi - lo)


def _run_kappa(cfg: ExperimentConfig):
    m = cfg.m
    gamma0 = cfg.gamma0 if cfg.gamma0 is not None else 0.75 * m
    r0 = ReducedState(beta=0.0, gamma=gamma0, zeta=0j)
    stride = max(1, int(round(0.1 / cfg.ode_dt)))
    traj = integrate_reduced(r0, cfg.alpha, m, cfg.ode_dt, cfg.t_end, record_stride=stride)
    kappa = asymptotic_constants(cfg.alpha, m).kappa
    window = (0.5 * cfg.t_end, cfg.t_end)
    fitted = gamma_tail_fit(traj, window=window)
    return ([("kappa_fit", fitted, kappa, 0.05, "rel")], {"kappa": kappa, "fitted": fitted},
            {"trajectory": traj, "fits": [_fit_entry("gamma_times_t", kappa, fitted, window)]})


def _run_stable(cfg: ExperimentConfig):
    consts = asymptotic_constants(cfg.alpha, cfg.m)
    result = stable_manifold_trajectory(
        cfg.beta_inf, cfg.alpha, cfg.m, t_start=cfg.t_start, t_end_back=cfg.t_end_back,
    )
    rate = beta_decay_rate(result)
    ratio = delta_beta_ratio(result)
    rate_target = consts.decay_rate
    ratio_target = (consts.a - cfg.alpha) / (consts.a + cfg.alpha)
    gates = [
        ("beta_decay_rate", rate, rate_target, 0.01, "rel"),
        ("delta_beta_ratio", ratio, ratio_target, 0.01, "rel"),
        ("roundtrip_residual", result.roundtrip_residual, 0.0, 1e-8),
    ]
    fits = [
        _fit_entry("beta_decay_rate", rate_target, rate, (0.5 * result.t_start, result.t_start)),
        _fit_entry("delta_beta_ratio", ratio_target, ratio, (0.8 * result.t_start, result.t_start)),
    ]
    values = {
        "roundtrip_residual": result.roundtrip_residual,
        "fp_iterations": result.fp_iterations,
        "t_start": result.t_start,
    }
    return gates, values, {"stable": result, "fits": fits}


# Each preset's runner and the fields it sets over the ExperimentConfig
# defaults.  A runner returns (gates, values, artifacts); each gate holds the
# arguments of _check.
_PRESETS = {
    "single_pole": (_run_pde, dict(ic="pole:0.5", spectrum_size=256)),
    "two_poles": (_run_pde, dict(ic="poles:0.7,0.8", spectrum_size=512,
                                 snapshot_times=(0.0, 2.5, 5.0))),
    "gaussian": (_run_pde, dict(ic="gaussian:10", dt=2e-3, t_end=100.0)),
    "baby": (_run_pde, dict(ic="perturbed_circle:0.05", dt=1e-3, grid_size=2048,
                            spectrum_size=64)),
    "custom": (_run_pde, {}),
    "kappa_fit": (_run_kappa, dict(m=16.0 / 9.0, t_end=500.0)),
    "stable_manifold": (_run_stable, {}),
}

PRESET_NAMES = tuple(_PRESETS)


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Run one preset, check its gates and, if ``out_dir`` is given, write its artifact files."""
    cfg.validate()
    gates, values, artifacts = _PRESETS[cfg.preset][0](cfg)
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
