import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import damped_szego
from damped_szego.cli import _simulate_overrides, build_parser
from damped_szego.errors import ConfigError
from damped_szego.hankel import KSpectrum
from damped_szego.initial_conditions import parse_initial_condition
from damped_szego.presets import (
    CONFIG_KEYS,
    PRESET_NAMES,
    VERDICT_KEYS,
    build_config,
    load_config_file,
    run_experiment,
    verify_identities,
)
from damped_szego.reporting import csv_table, spectrum_csv
from damped_szego.wmanifold import asymptotic_constants


# The child interpreter imports the package from where this one found it.
_SRC = os.path.dirname(os.path.dirname(damped_szego.__file__))


def run_cli(*args):
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "damped_szego", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


# --- initial-condition parsing ----------------------------------------------

def test_parse_pole_and_circle():
    u = parse_initial_condition("pole:0.5", 64)
    assert u.coeffs[1] == 1.0 and u.coeffs[2] == 0.5
    u = parse_initial_condition("circle:2.0", 64)
    assert u.coeffs[1] == 2.0 and abs(u.coeffs[2]) == 0.0


def test_parse_complex_pole():
    u = parse_initial_condition("pole:0.3+0.4j", 64)
    assert u.coeffs[2] == pytest.approx(0.3 + 0.4j)


def test_parse_wstate_and_perturbed_circle():
    u = parse_initial_condition("wstate:0.1,1,0.5", 64)
    assert u.coeffs[0] == pytest.approx(0.1)
    u = parse_initial_condition("perturbed_circle:0.05", 64)
    assert u.coeffs[0] == pytest.approx(0.05) and u.coeffs[1] == 1.0


def test_parse_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        parse_initial_condition("fourier:1,2", 64)
    with pytest.raises(ConfigError):
        parse_initial_condition("pole:not_a_number", 64)


# --- config files ------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "preset = custom\n"
        "ic = pole:0.4\n"
        "alpha = 0.5\n"
        "n = 128\n"
        "dt = 1e-3\n"
        "t_end = 0.05\n"
        "sobolev_exponents = 0.5, 1.0\n"
    )
    overrides = load_config_file(cfg_file)
    assert overrides["grid_size"] == 128
    assert overrides["sobolev_exponents"] == (0.5, 1.0)
    cfg = build_config("custom", overrides)
    assert cfg.alpha == 0.5 and cfg.grid_size == 128

    # the band-sized grid is alias-free, so the old doubled-grid key is gone
    cfg_file.write_text("dealias = true\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(cfg_file)
    assert err.value.field == "dealias"

    # runs write to the --out directory; there is no output key
    cfg_file.write_text("out = elsewhere\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(cfg_file)
    assert err.value.field == "out"


def test_overrides_cannot_switch_preset(tmp_path):
    with pytest.raises(ConfigError) as err:
        build_config("gaussian", {"preset": "single_pole"})
    assert err.value.field == "preset"
    assert build_config("gaussian", {"preset": "gaussian"}).preset == "gaussian"

    cfg_file = tmp_path / "other.cfg"
    cfg_file.write_text("preset = single_pole\n")
    proc = run_cli("simulate", "--preset", "gaussian", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "preset" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_config_file_reports_line_and_field(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha = 1.0\nmystery = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(bad)
    assert err.value.line == 2
    assert err.value.field == "mystery"

    bad.write_text("alpha = not_a_float\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(bad)
    assert err.value.line == 1


def _simulate_parser():
    parser = build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices["simulate"]


def test_simulate_flags_are_pinned():
    got = [(tuple(a.option_strings), a.dest) for a in _simulate_parser()._actions]
    assert got == [
        (("-h", "--help"), "help"),
        (("--preset",), "preset"),
        (("--config",), "config"),
        (("--out",), "out"),
        (("--alpha",), "alpha"),
        (("--dt",), "dt"),
        (("--t-end",), "t_end"),
        (("--n",), "n"),
        (("--ic",), "ic"),
        (("--record-stride",), "record_stride"),
        (("--krasny-threshold",), "krasny_threshold"),
        (("--spectrum-size",), "spectrum_size"),
        (("--m",), "m"),
        (("--beta-inf",), "beta_inf"),
        (("--ode-dt",), "ode_dt"),
        (("--t-start",), "t_start"),
        (("--t-end-back",), "t_end_back"),
    ]


# A value of each kind that differs from every preset default.
_SAMPLE = {float: "0.375", int: "6", str: "pole:0.25"}


@pytest.mark.parametrize("key", [k for k, spec in CONFIG_KEYS.items() if spec.flag])
def test_flag_and_config_key_set_the_same_field(tmp_path, key):
    spec = CONFIG_KEYS[key]
    field = spec.field or key
    raw = _SAMPLE[spec.kind]
    by_flag = _simulate_overrides(_simulate_parser().parse_args([spec.flag, raw]))
    cfg_file = tmp_path / "one.cfg"
    cfg_file.write_text(f"{key} = {raw}\n")
    by_file = _simulate_overrides(_simulate_parser().parse_args(["--config", str(cfg_file)]))
    assert by_flag == by_file == {field: by_file[field]}
    a, b = build_config("custom", by_flag), build_config("custom", by_file)
    assert a == b
    assert getattr(a, field) != getattr(build_config("custom"), field)


def test_csv_table_formats_every_cell():
    assert csv_table([("i", range(1, 3)), ("x", np.array([0.5, 0.1])), ("n", [1, 3])]) == (
        "i,x,n\n1,0.5,1\n2,0.10000000000000001,3\n"
    )
    spec = KSpectrum(np.array([16.0 / 9.0, 0.25]), np.array([1, 2]), 1e-8, 0.0)
    assert spectrum_csv(spec) == (
        "index,eigenvalue,multiplicity\n1,1.7777777777777777,1\n2,0.25,2\n"
    )
    assert csv_table([("t", []), ("x", [])]) == "t,x\n"


def test_build_config_rejects_unknown_preset():
    with pytest.raises(ConfigError):
        build_config("nonexistent")


def test_preset_names_documented():
    # the order of simulate --help
    assert PRESET_NAMES == (
        "single_pole", "two_poles", "gaussian", "baby", "custom",
        "kappa_fit", "stable_manifold",
    )


_PDE_VALUES = ["momentum_drift", "lyapunov_residual", "verdict", "resolution_loss",
               "hs_slope", "hs_fit_r2"]
_M_POLE = 16.0 / 9.0  # momentum of pole:0.5
_STABLE = asymptotic_constants(1.0, 1.0)

# Per preset: small overrides, the ordered (name, target, tol, mode) of its checks,
# its values keys and its fit.json names.
_PRESET_GATES = {
    "single_pole": (
        {},
        [("h1_slope_vs_prediction", 4.0 * _M_POLE**3 / (1.0 + _M_POLE**2), 0.05, "rel"),
         ("momentum_drift", 0.0, 1e-9, "abs"), ("lyapunov_residual", 0.0, 1e-5, "abs"),
         ("verdict", "ExplodesStrict", None, "eq")],
        _PDE_VALUES, ["h1_sq_slope"]),
    "two_poles": (
        {"snapshot_times": (0.0, 1.0, 2.0)},
        [("k_rank", 2, None, "eq"), ("linear_growth_r2", 0.99, None, "ge"),
         ("positive_slope", 0.0, None, "ge"), ("spectrum_invariance", 0.0, 1e-6, "abs")],
        _PDE_VALUES + ["spectrum_invariance"], ["h1_sq_slope"]),
    "gaussian": (
        {},
        [("momentum_drift", 0.0, 1e-8, "abs"), ("positive_slope", 0.0, None, "ge"),
         ("verdict", "ExplodesStrict", None, "eq"), ("spectrum_invariance", 0.0, 1e-6, "abs")],
        _PDE_VALUES + ["spectrum_invariance"], ["h1_sq_slope"]),
    "baby": (
        {},
        # ||u0||^2 - eps^2 = 1 for u0 = e^{ix} + eps
        [("l2_dips_by_eps_sq", 1.0, None, "le"), ("linearized_growth_rate", 0.0, 1e-10, "abs")],
        _PDE_VALUES + ["min_l2_sq"], ["linearized_growth_rate"]),
    "custom": ({}, [], _PDE_VALUES, []),
    "kappa_fit": (
        {"t_end": 50.0},
        [("kappa_fit", (1.0 + _M_POLE**2) / (2.0 * _M_POLE), 0.05, "rel")],
        ["kappa", "fitted"], ["gamma_times_t"]),
    "stable_manifold": (
        {},
        [("beta_decay_rate", _STABLE.a + 1.0, 0.01, "rel"),
         ("delta_beta_ratio", (_STABLE.a - 1.0) / (_STABLE.a + 1.0), 0.01, "rel"),
         ("roundtrip_residual", 0.0, 1e-8, "abs")],
        ["roundtrip_residual", "fp_iterations", "t_start"],
        ["beta_decay_rate", "delta_beta_ratio"]),
}


@pytest.mark.filterwarnings("ignore::damped_szego.errors.ResolutionLossWarning")
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_preset_gate_lists_are_pinned(tmp_path, preset):
    extra, gates, value_keys, fit_names = _PRESET_GATES[preset]
    small = {"grid_size": 1024, "t_end": 2.0, "spectrum_size": 128}
    if preset in ("kappa_fit", "stable_manifold"):
        small = {}
    result = run_experiment(build_config(preset, {**small, **extra}), out_dir=tmp_path)
    got = [(c["name"], c["target"], c["tol"], c["mode"]) for c in result.checks]
    assert [(g[0], g[2], g[3]) for g in got] == [(g[0], g[2], g[3]) for g in gates]
    for (_, target, _, _), (_, want, _, _) in zip(got, gates):
        assert target == (want if isinstance(want, str) else pytest.approx(want, rel=1e-12))
    assert list(result.values) == value_keys
    fits = json.loads((tmp_path / "fit.json").read_text())
    assert [f["name"] for f in fits] == fit_names
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [c["name"] for c in summary["checks"]] == [g[0] for g in gates]


# --- artifact writing ---------------------------------------------------------

def small_custom_overrides():
    return {
        "ic": "pole:0.5",
        "alpha": 1.0,
        "dt": 1e-3,
        "t_end": 0.05,
        "grid_size": 128,
        "record_stride": 5,
        "spectrum_size": 32,
    }


def test_run_custom_writes_artifacts(tmp_path):
    cfg = build_config("custom", small_custom_overrides())
    result = run_experiment(cfg, out_dir=tmp_path / "run")
    names = {p.name for p in (tmp_path / "run").iterdir()}
    assert {"diagnostics.csv", "spectrum.csv", "spectrum.json", "verdict.json",
            "fit.json", "summary.json", "meta.json"} <= names
    verdict = json.loads((tmp_path / "run" / "verdict.json").read_text())
    assert verdict["verdict"] == "ExplodesStrict"
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["passed"] is True
    spectrum = (tmp_path / "run" / "spectrum.csv").read_text()
    assert spectrum.splitlines()[0] == "index,eigenvalue,multiplicity"


def test_csv_artifacts_are_deterministic(tmp_path):
    cfg = build_config("custom", small_custom_overrides())
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("diagnostics.csv", "spectrum.csv", "verdict.json", "fit.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_meta_contains_config_and_versions(tmp_path):
    cfg = build_config("custom", small_custom_overrides())
    run_experiment(cfg, out_dir=tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["config"]["preset"] == "custom"
    assert "numpy" in meta["versions"]


def test_verify_identities_grid():
    for alpha in (1.0, 2.0):
        for m in (1.0, 16.0 / 9.0, 3.0):
            report = verify_identities(alpha, m)
            assert report["passed"], (alpha, m, report["residuals"])
            assert report["max_residual"] <= 1e-10


# --- CLI subprocess round trips -----------------------------------------------

def test_cli_verify_exit_code():
    proc = run_cli("verify", "--alpha", "1", "--m", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True


def test_cli_criterion_verdicts():
    cases = {
        "pole:0.5": "ExplodesStrict",
        "blaschke:0.3": "ExplodesEqualCase",
        "circle:1.0": "Inconclusive",
    }
    for ic, expected in cases.items():
        proc = run_cli("spectrum", "--ic", ic, "--n", "512", "--size", "128")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == expected


def test_spectrum_and_simulate_write_the_same_verdict(tmp_path):
    proc = run_cli("spectrum", "--ic", "pole:0.5", "--n", "256", "--size", "64",
                   "--out", str(tmp_path / "a"))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("simulate", "--preset", "custom", "--ic", "pole:0.5", "--n", "256",
                   "--t-end", "0.01", "--dt", "1e-3", "--record-stride", "1",
                   "--spectrum-size", "64", "--out", str(tmp_path / "b"))
    assert proc.returncode == 0, proc.stderr
    a = (tmp_path / "a" / "verdict.json").read_bytes()
    assert a == (tmp_path / "b" / "verdict.json").read_bytes()
    assert set(json.loads(a)) == set(VERDICT_KEYS)


def test_cli_spectrum_artifacts(tmp_path):
    out = tmp_path / "spec"
    proc = run_cli("spectrum", "--ic", "pole:0.5", "--n", "512", "--size", "64",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["f_value"] == pytest.approx(16.0 / 9.0, rel=1e-9)
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue,multiplicity"
    assert lines[1].startswith("1,")


def test_cli_simulate_custom_config(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(
        "ic = pole:0.5\nalpha = 1.0\ndt = 1e-3\nt_end = 0.05\nn = 128\n"
        "record_stride = 5\nspectrum_size = 32\n"
    )
    out = tmp_path / "out"
    proc = run_cli("simulate", "--preset", "custom", "--config", str(cfg_file),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "diagnostics.csv").exists()
    assert "PASS custom" in proc.stdout


def test_cli_simulate_flag_overrides_config(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text("ic = pole:0.5\ndt = 1e-3\nt_end = 0.05\nn = 128\n")
    out = tmp_path / "out"
    proc = run_cli("simulate", "--preset", "custom", "--config", str(cfg_file),
                   "--out", str(out), "--t-end", "0.02")
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["t_end"] == 0.02


def test_cli_simulate_bad_config_exit_code(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("who_knows = 1\n")
    proc = run_cli("simulate", "--preset", "custom", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "line 1" in proc.stderr


def test_cli_stable_manifold(tmp_path):
    out = tmp_path / "stab"
    proc = run_cli("simulate", "--preset", "stable_manifold", "--beta-inf", "1.0",
                   "--alpha", "1.0", "--m", "1.0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "stable_manifold.csv").exists()
    header = (out / "stable_manifold.csv").read_text().splitlines()[0]
    assert header == "t,beta,delta,re_zeta,im_zeta"


def test_cli_wode_trajectory(tmp_path):
    out = tmp_path / "wode"
    proc = run_cli("wode", "--p", "0.5", "--t-end", "2.0", "--dt", "1e-3",
                   "--record-stride", "100", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,re_b,im_b,re_c,im_c,re_p,im_p,beta,gamma,momentum"
    first = np.array(lines[1].split(","), dtype=float)
    assert first[0] == 0.0
    assert first[3] == 1.0  # re_c
    assert first[9] == pytest.approx(16.0 / 9.0, rel=1e-12)  # momentum


def test_removed_knobs_are_rejected(tmp_path):
    # t_end = 1000 replaces paper_horizon; every fit reads H^1, so there is no s_fit;
    # spectrum --cluster-tol/--rank-cutoff/--tol set what the last three set
    for key in ("paper_horizon", "s_fit", "cluster_tol", "rank_cutoff", "criterion_tol"):
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config_file(cfg_file)
        assert err.value.field == key
    for flag in ("--paper-horizon", "--s", "--jobs"):
        with pytest.raises(SystemExit):
            _simulate_parser().parse_args([flag, "2"])


def test_custom_run_fits_h1_beside_other_exponents(tmp_path):
    overrides = {**small_custom_overrides(), "ic": "pole:0.3", "sobolev_exponents": (1.5,)}
    result = run_experiment(build_config("custom", overrides), out_dir=tmp_path)
    series = result.artifacts["diagnostics"]
    assert set(series.hs_sq) == {1.0, 1.5}
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header.endswith(",hs_sq_1.00,hs_sq_1.50")
    half = series.t >= 0.5 * series.t[-1]
    slope, _ = np.polyfit(series.t[half], series.hs_sq[1.0][half], 1)
    assert result.values["hs_slope"] == pytest.approx(slope, rel=1e-9)


def test_two_poles_needs_a_later_snapshot():
    for overrides in ({"t_end": 2.0}, {"snapshot_times": ()}):
        with pytest.raises(ConfigError) as err:
            build_config("two_poles", overrides)
        assert err.value.field == "snapshot_times"
    assert build_config("two_poles").later_snapshots() == (2.5, 5.0)


def test_sobolev_exponents_below_half_are_rejected():
    with pytest.raises(ConfigError) as err:
        build_config("custom", {"sobolev_exponents": (0.2,)})
    assert err.value.field == "sobolev_exponents"


@pytest.mark.parametrize("argv, field", [
    (["wode", "--dt", "0"], "dt"),
    (["wode", "--record-stride", "0"], "record_stride"),
    (["wode", "--t-end", "0"], "t_end"),
    (["simulate", "--preset", "stable_manifold", "--t-start", "0.5", "--t-end-back", "1"],
     "t_end_back"),
    (["simulate", "--record-stride", "0"], "record_stride"),
    (["simulate", "--krasny-threshold", "2"], "krasny_threshold"),
    (["simulate", "--spectrum-size", "0"], "spectrum_size"),
    (["simulate", "--ode-dt", "0"], "ode_dt"),
    # the closed-form constants need alpha > 0 and M > 0
    (["simulate", "--preset", "kappa_fit", "--m", "0"], "m"),
    (["simulate", "--preset", "baby", "--alpha", "0"], "alpha"),
    (["simulate", "--preset", "single_pole", "--alpha", "0"], "alpha"),
    (["simulate", "--preset", "stable_manifold", "--m", "-1"], "m"),
    (["wode", "--alpha", "-1"], "alpha"),
    # an odd or empty grid, an empty Gram matrix
    (["spectrum", "--ic", "pole:0.5", "--n", "0"], "n"),
    (["spectrum", "--ic", "pole:0.5", "--n", "3"], "n"),
    (["spectrum", "--ic", "pole:0.5", "--size", "0"], "size"),
    # one preset per run
    (["simulate", "--preset", "stable_manifold,kappa_fit"], "preset"),
    (["simulate", "--preset", ""], "preset"),
    # the single_pole slope target needs positive momentum
    (["simulate", "--preset", "single_pole", "--ic", "circle:0", "--n", "64",
      "--t-end", "0.01"], "ic"),
    # the Lyapunov residual needs three records
    (["simulate", "--preset", "custom", "--n", "64", "--dt", "0.001", "--t-end", "0.01"],
     "t_end"),
    # the growth exponent 2s-1 must be positive; (b, c, p) must lie on the manifold
    (["wode", "--s", "0.5"], "s"),
    (["wode", "--s", "-1"], "s"),
    (["wode", "--p", "1.0"], "p"),
    (["wode", "--c", "0"], "c"),
    # a step count needs a finite time and step
    (["simulate", "--preset", "custom", "--n", "64", "--t-end", "inf"], "t_end"),
    (["simulate", "--preset", "custom", "--n", "64", "--dt", "inf"], "dt"),
    (["simulate", "--preset", "kappa_fit", "--ode-dt", "inf"], "ode_dt"),
    (["wode", "--t-end", "inf"], "t_end"),
    (["wode", "--dt", "inf"], "dt"),
    # (b, c, p) must be finite
    (["wode", "--b", "inf"], "b"),
    (["wode", "--b", "nan"], "b"),
    (["wode", "--c", "nan"], "c"),
    (["wode", "--c", "inf"], "c"),
    (["wode", "--p", "nan"], "p"),
    (["wode", "--p", "inf"], "p"),
    # the stable manifold needs a finite beta_inf and matching time
    (["simulate", "--preset", "stable_manifold", "--beta-inf", "inf"], "beta_inf"),
    (["simulate", "--preset", "stable_manifold", "--t-start", "inf"], "t_start"),
    (["simulate", "--preset", "stable_manifold", "--t-end-back", "nan"], "t_end_back"),
    (["simulate", "--preset", "stable_manifold", "--t-end-back=-inf"], "t_end_back"),
    # spectrum tolerances: a positive finite rank cutoff, finite non-negative tolerances
    (["spectrum", "--ic", "pole:0.5", "--n", "256", "--size", "64", "--rank-cutoff", "nan"],
     "rank_cutoff"),
    (["spectrum", "--ic", "pole:0.5", "--n", "256", "--size", "64", "--rank-cutoff", "0"],
     "rank_cutoff"),
    (["spectrum", "--ic", "pole:0.5", "--n", "256", "--size", "64", "--rank-cutoff", "-1"],
     "rank_cutoff"),
    (["spectrum", "--ic", "pole:0.5", "--n", "256", "--size", "64", "--rank-cutoff", "inf"],
     "rank_cutoff"),
    (["spectrum", "--ic", "pole:0.5", "--n", "256", "--size", "64", "--cluster-tol", "nan"],
     "cluster_tol"),
    (["spectrum", "--ic", "pole:0.5", "--n", "256", "--size", "64", "--cluster-tol", "inf"],
     "cluster_tol"),
    (["spectrum", "--ic", "pole:0.5", "--n", "256", "--size", "64", "--cluster-tol", "-1"],
     "cluster_tol"),
    (["spectrum", "--ic", "pole:0.5", "--n", "256", "--size", "64", "--tol", "nan"], "tol"),
    (["spectrum", "--ic", "pole:0.5", "--n", "256", "--size", "64", "--tol", "inf"], "tol"),
    (["spectrum", "--ic", "pole:0.5", "--n", "256", "--size", "64", "--tol", "-1"], "tol"),
])
def test_cli_bad_flags_are_configuration_errors(tmp_path, argv, field):
    proc = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert f"field {field!r}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, field", [
    (["--alpha", "0"], "alpha"),
    (["--m", "0"], "m"),
    (["--s", "-0.5"], "s"),
])
def test_cli_verify_rejects_non_positive_alpha_and_m(argv, field):
    proc = run_cli("verify", *argv)
    assert proc.returncode == 2, proc.stderr
    assert f"field {field!r}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_zero_alpha_stays_valid_without_closed_forms():
    for preset in ("custom", "gaussian", "two_poles"):
        assert build_config(preset, {"alpha": 0.0}).alpha == 0.0


def _readme():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        return fh.read()


def _readme_commands():
    for block in _readme().split("```sh\n")[1:]:
        for line in block.split("```")[0].splitlines():
            words = shlex.split(line.replace("$p", "single_pole"))
            if words and words[0] == "damped-szego":
                yield words[1:-1] if words[-1] == "&" else words[1:]


def test_readme_commands_parse():
    commands = list(_readme_commands())
    assert {argv[0] for argv in commands} == {"simulate", "spectrum", "wode", "verify"}
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_lists_every_config_key():
    # the sentence "Keys: `preset`, `ic`, ..., `ode_dt`." under "Configuration files"
    listed = re.findall(r"`(\w+)`", _readme().split("Keys: ", 1)[1].split(".", 1)[0])
    assert sorted(listed) == sorted(CONFIG_KEYS)


def test_kappa_preset_trajectory_csv(tmp_path):
    cfg = build_config("kappa_fit", {"t_end": 2.0})
    result = run_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,beta,gamma,re_zeta,im_zeta"
    fits = json.loads((tmp_path / "fit.json").read_text())
    assert fits and {"target", "fitted", "rel_dev", "window"} <= set(fits[0])


def test_cli_surfaces_blow_up_with_time(tmp_path):
    proc = run_cli("simulate", "--preset", "custom", "--ic", "wstate:10,10,0",
                   "--n", "64", "--dt", "10", "--t-end", "100", "--record-stride", "1",
                   "--out", str(tmp_path / "boom"))
    assert proc.returncode == 3
    assert "blew up at t=" in proc.stderr


def test_initial_condition_domain_validation():
    with pytest.raises(ConfigError):
        parse_initial_condition("pole:1.2", 64)  # |p| >= 1
    with pytest.raises(ConfigError):
        parse_initial_condition("gaussian:-3", 64)
    with pytest.raises(ConfigError):
        parse_initial_condition("perturbed_circle:-0.1", 64)
    with pytest.raises(ConfigError):
        parse_initial_condition("blaschke:1.5", 64)
