import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import damped_szego
from damped_szego.cli import _simulate_overrides, build_parser, main
from damped_szego.errors import ConfigError
from damped_szego.fitting import loglog_fit
from damped_szego.hankel import KSpectrum
from damped_szego.hardy import HardyState
from damped_szego.initial_conditions import (
    _KINDS,
    blaschke_state,
    circle_state,
    gaussian_state,
    parse_initial_condition,
    pole_state,
    poles_sum_state,
)
from damped_szego.presets import (
    CONFIG_KEYS,
    PRESET_NAMES,
    VERDICT_KEYS,
    build_config,
    load_config_file,
    run_experiment,
    verify_identities,
)
from damped_szego.reporting import csv_table, json_text, spectrum_csv
from damped_szego.solver import later_times
from damped_szego.wmanifold import WState, asymptotic_constants, w_to_hardy
from helpers import fmt, reference_integrate_w, reference_sobolev_sq_w


# The child interpreter imports the package from where this one found it.
_SRC = os.path.dirname(os.path.dirname(damped_szego.__file__))


def run_cli(*args, timeout=None):
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "damped_szego", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
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


def _perturbed_circle_coeffs(eps, n):
    coeffs = np.zeros(n // 2, dtype=complex)
    coeffs[:2] = eps, 1.0
    return HardyState(coeffs, n)


# Each _KINDS row at its fewest and at its most parameters (four for an
# unbounded row), with the builder call its state must equal bit for bit.
KIND_CASES = [
    ("pole:0.3+0.4j", lambda n: pole_state(0.3 + 0.4j, n)),
    ("pole:0.3+0.4j,1.1-0.2j,0.2", lambda n: pole_state(0.3 + 0.4j, n, 1.1 - 0.2j, 0.2)),
    ("poles:0.7", lambda n: poles_sum_state([0.7], n)),
    ("poles:0.7,-0.5j,0.3+0.3j,0.1",
     lambda n: poles_sum_state([0.7, -0.5j, 0.3 + 0.3j, 0.1], n)),
    ("blaschke:0.3", lambda n: blaschke_state([0.3], n)),
    ("blaschke:0.3,0.2j,-0.5,0.1+0.1j",
     lambda n: blaschke_state([0.3, 0.2j, -0.5, 0.1 + 0.1j], n)),
    ("circle:1-2j", lambda n: circle_state(1 - 2j, n)),
    ("perturbed_circle:0.05", lambda n: _perturbed_circle_coeffs(0.05, n)),
    ("gaussian:10", lambda n: gaussian_state(10.0, n)),
    ("wstate:0.1-0.2j,0.5+1j,-0.3+0.6j",
     lambda n: w_to_hardy(WState(b=0.1 - 0.2j, c=0.5 + 1j, p=-0.3 + 0.6j), n)),
]


def test_kind_cases_cover_every_row_at_its_fewest_and_most():
    counts = {}
    for spec, _ in KIND_CASES:
        kind, _, args = spec.partition(":")
        counts.setdefault(kind, set()).add(len(args.split(",")))
    assert counts == {kind: {row.least, min(row.most, 4)} for kind, row in _KINDS.items()}
    assert {kind for kind, row in _KINDS.items() if row.real} == {"gaussian", "perturbed_circle"}


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("spec, build", KIND_CASES, ids=[spec for spec, _ in KIND_CASES])
def test_every_kind_equals_its_builder_bit_for_bit(spec, build, n):
    assert parse_initial_condition(spec, n).coeffs.tobytes() == build(n).coeffs.tobytes()


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_every_kind_rejects_a_wrong_count_and_a_complex_real_parameter(kind):
    row = _KINDS[kind]
    bad = [["0.1"] * (row.least - 1)]
    if row.most < math.inf:
        bad.append(["0.1"] * (row.most + 1))
    if row.real:
        bad.append(["0.1+0.1j"] * row.least)
    for args in bad:
        with pytest.raises(ConfigError, match=f"^{kind} takes ") as err:
            parse_initial_condition(f"{kind}:{','.join(args)}", 64)
        assert err.value.field == "ic"


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
        "snapshot_times = 0.5, 1.0\n"
    )
    overrides = load_config_file(cfg_file)
    assert overrides["grid_size"] == 128
    assert overrides["snapshot_times"] == (0.5, 1.0)
    cfg = build_config("custom", overrides)
    assert cfg.alpha == 0.5 and cfg.grid_size == 128

    # the band-sized grid is alias-free, so the old doubled-grid key is gone
    cfg_file.write_text("dealias = true\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(cfg_file)
    assert err.value.field == "dealias"

    # an empty list is (); an empty field is an error, not skipped: the later ones would shift
    cfg_file.write_text("snapshot_times =\n")
    assert load_config_file(cfg_file)["snapshot_times"] == ()
    for value in ("2.5,,5", "2.5,", ",2.5", " , "):
        cfg_file.write_text(f"t_end = 9\nsnapshot_times = {value}\n")
        with pytest.raises(ConfigError) as err:
            load_config_file(cfg_file)
        assert (err.value.line, err.value.field) == (2, "snapshot_times")

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


def _subparser(command):
    parser = build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices[command]


# Every command's options after --help, as (flag, dest) pairs.
_PINNED_FLAGS = {
    "simulate": [("--preset", "preset"), ("--config", "config"), ("--out", "out"),
                 ("--alpha", "alpha"), ("--dt", "dt"), ("--t-end", "t_end"), ("--n", "n"),
                 ("--ic", "ic"), ("--record-stride", "record_stride"),
                 ("--krasny-threshold", "krasny_threshold"),
                 ("--spectrum-size", "spectrum_size"), ("--m", "m"), ("--beta-inf", "beta_inf"),
                 ("--ode-dt", "ode_dt"), ("--t-start", "t_start"),
                 ("--t-end-back", "t_end_back")],
    "spectrum": [("--ic", "ic"), ("--n", "n"), ("--size", "size"), ("--out", "out")],
    "wode": [("--b", "b"), ("--c", "c"), ("--p", "p"), ("--alpha", "alpha"), ("--dt", "dt"),
             ("--t-end", "t_end"), ("--record-stride", "record_stride"), ("--s", "s"),
             ("--out", "out")],
    "verify": [("--alpha", "alpha"), ("--m", "m")],
}


def test_simulate_flags_are_pinned():
    # every command's flags: a change to the option count is a deliberate edit here
    for command, flags in _PINNED_FLAGS.items():
        got = [(tuple(a.option_strings), a.dest) for a in _subparser(command)._actions]
        assert got == [(("-h", "--help"), "help"), *(((f,), d) for f, d in flags)], command
    assert sum(map(len, _PINNED_FLAGS.values())) == 31
    assert len(CONFIG_KEYS) == 16


# A value of each kind that differs from every preset default.
_SAMPLE = {float: "0.375", int: "6", str: "pole:0.25"}


@pytest.mark.parametrize("key", [k for k, spec in CONFIG_KEYS.items() if spec.flag])
def test_flag_and_config_key_set_the_same_field(tmp_path, key):
    spec = CONFIG_KEYS[key]
    field = spec.field or key
    raw = _SAMPLE[spec.kind]
    by_flag = _simulate_overrides(_subparser("simulate").parse_args([spec.flag, raw]))
    cfg_file = tmp_path / "one.cfg"
    cfg_file.write_text(f"{key} = {raw}\n")
    by_file = _simulate_overrides(_subparser("simulate").parse_args(["--config", str(cfg_file)]))
    assert by_flag == by_file == {field: by_file[field]}
    a, b = build_config("custom", by_flag), build_config("custom", by_file)
    assert a == b
    assert getattr(a, field) != getattr(build_config("custom"), field)


def test_csv_table_formats_every_cell():
    assert csv_table([("i", range(1, 3)), ("x", np.array([0.5, 0.1])), ("n", [1, 3])]) == (
        "i,x,n\n1,0.5,1\n2,0.10000000000000001,3\n"
    )
    spec = KSpectrum(np.array([16.0 / 9.0, 0.25]), np.array([1, 2]), 0.0)
    assert spectrum_csv(spec) == (
        "index,eigenvalue,multiplicity\n1,1.7777777777777777,1\n2,0.25,2\n"
    )
    assert csv_table([("t", []), ("x", [])]) == "t,x\n"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.integers(-10**20, 10**20)), max_size=20))
def test_csv_table_matches_per_cell_formatter(rows):
    xs = np.array([x for x, _ in rows], dtype=float)
    ns = [n for _, n in rows]
    counts = np.array([n % 1000 for n in ns], dtype=np.int64)
    assert csv_table([("x", xs), ("n", ns), ("k", counts)]) == "x,n,k\n" + "".join(
        f"{fmt(x)},{fmt(n)},{fmt(k)}\n" for x, n, k in zip(xs, ns, counts))


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
    # every file but meta.json, which holds the wall clock
    runs = [("custom", small_custom_overrides()), ("kappa_fit", {}), ("stable_manifold", {})]
    for preset, overrides in runs:
        cfg = build_config(preset, overrides)
        a, b = tmp_path / preset / "a", tmp_path / preset / "b"
        run_experiment(cfg, out_dir=a)
        run_experiment(cfg, out_dir=b)
        names = sorted(p.name for p in a.iterdir() if p.name != "meta.json")
        assert names == sorted(p.name for p in b.iterdir() if p.name != "meta.json")
        assert len(names) >= 3, preset
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (preset, name)


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


def _strict_json(text):
    """json.loads that rejects the bare NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"bare {token} in JSON")

    return json.loads(text, parse_constant=reject)


def test_json_writes_non_finite_floats_as_strings():
    payload = {"a": math.nan, "b": [np.float64(math.inf), -math.inf], "c": complex(1, math.nan),
               "d": np.array([1.5, np.nan])}
    assert _strict_json(json_text(payload)) == {
        "a": "nan", "b": ["inf", "-inf"], "c": {"re": 1.0, "im": "nan"}, "d": [1.5, "nan"]}


def test_non_finite_gate_value_is_strict_json(tmp_path):
    # the forward round trip overflows at t_start = 100, so its gate value is nan
    out = tmp_path / "out"
    proc = run_cli("simulate", "--preset", "stable_manifold", "--t-start", "100",
                   "--out", str(out), timeout=60)
    assert proc.returncode == 1, proc.stderr
    summary = _strict_json((out / "summary.json").read_text())
    assert summary["values"]["roundtrip_residual"] == "nan"
    for name in ("meta.json", "fit.json"):
        _strict_json((out / name).read_text())


def test_cli_wode_trajectory(tmp_path):
    out = tmp_path / "wode"
    proc = run_cli("wode", "--p", "0.5", "--t-end", "2.0", "--dt", "1e-3",
                   "--record-stride", "100", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,beta,gamma,re_zeta,im_zeta"
    first = np.array(lines[1].split(","), dtype=float)
    assert first[0] == 0.0
    assert first[1] == 0.0  # beta = |b|^2
    assert first[2] == pytest.approx(0.75 * 16.0 / 9.0, rel=1e-12)  # gamma = M(1-|p|^2)
    fit = json.loads((out / "fit.json").read_text())
    assert fit["momentum"] == pytest.approx(16.0 / 9.0, rel=1e-12)


# the wode argv of the benchmark's criterion_rank_one workload, at two phases of p
_BENCH_WODE = ["wode", "--b=0j", "--c=1+0j", "--alpha=1.0", "--dt=0.001", "--t-end=20.0",
               "--record-stride=10", "--s=1.0"]


@pytest.mark.parametrize("p", [0.5, 0.3 + 0.4j])
def test_wode_payload_matches_the_bcp_reference_run(tmp_path, capsys, p):
    # the reduced chart against RK4 on (b, c, p) with the H^1 norm summed term by term
    out = tmp_path / "out"
    assert main([*_BENCH_WODE, f"--p={p}", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert json.loads((out / "fit.json").read_text()) == payload
    t, b, c, ps, momentum = reference_integrate_w(WState(0, 1, p), 1.0, 1e-3, 20.0, 10)
    assert payload["classification"] == "exploding"
    assert payload["momentum"] == momentum[0]
    mask = t >= 2.0
    hs = np.array([reference_sobolev_sq_w(*bcp, 1.0) for bcp in zip(b[mask], c[mask], ps[mask])])
    slope, _ = loglog_fit(t[mask], hs)
    prefactor = np.exp(np.mean(np.log(hs) - np.log(t[mask])))
    (fit,) = payload["fits"]
    assert fit["window"] == [2.0, 20.0]
    assert fit["slope"] == pytest.approx(slope, rel=1e-10, abs=0)
    assert fit["fitted"] == pytest.approx(prefactor, rel=1e-10, abs=0)


def test_wode_fits_every_run_it_labels_exploding(capsys):
    # gamma/M falls over the second half to below half its start but ends above a quarter
    # of it: the growth fit once refused the run, and wode exited 3 with no output
    assert main(["wode", "--b", "0.3", "--c", "1", "--p", "0.1", "--t-end", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "exploding"
    assert len(payload["fits"]) == 1


@pytest.mark.parametrize("c", ["10", "30"])
def test_wode_step_too_large_for_the_momentum_is_a_blow_up(tmp_path, c):
    # M = 178 and 1600 at dt = 1e-3: the reduced chart stays finite, but its records leave
    # |zeta|^2 = (M - gamma) gamma^2 beta; gamma was once reported 7.3e-2 off at --c 10
    out = tmp_path / "out"
    proc = run_cli("wode", "--c", c, "--t-end", "2", "--out", str(out), timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "a step too large for the state" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "fit.json").exists()


def test_cli_wode_overflowing_norm_is_a_runtime_error(tmp_path):
    # the squared H^100 norm overflows a float; the sum behind it once met inf * 0 = nan and hung
    proc = run_cli("wode", "--s", "100", "--t-end", "50", "--out", str(tmp_path / "out"),
                   timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "overflows a float" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["wode", "--c", "1e3"],
    ["wode", "--c", "1e100"],
    ["simulate", "--preset", "kappa_fit", "--m", "1e3"],
])
def test_non_finite_rank_one_run_is_a_blow_up(tmp_path, argv):
    # a step too large for the momentum once wrote rows of nan and reported a fit
    out = tmp_path / "out"
    proc = run_cli(*argv, "--out", str(out), timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "blew up between the records at t=0 (the last finite one)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "fit.json").exists() and not (out / "summary.json").exists()


def test_removed_knobs_are_rejected(tmp_path, capsys):
    # t_end = 1000 replaces paper_horizon; every fit reads H^1, so there is no s_fit and
    # the PDE records no other Sobolev exponent
    for key in ("paper_horizon", "s_fit", "cluster_tol", "rank_cutoff", "criterion_tol",
                "sobolev_exponents"):
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config_file(cfg_file)
        assert err.value.field == key
    for flag in ("--paper-horizon", "--s", "--jobs"):
        with pytest.raises(SystemExit):
            _subparser("simulate").parse_args([flag, "2"])
    # the spectrum tolerances are hankel constants, and verify reports s = 1
    for argv in (["spectrum", "--ic", "pole:0.5", "--cluster-tol", "1e-8"],
                 ["spectrum", "--ic", "pole:0.5", "--rank-cutoff", "1e-10"],
                 ["spectrum", "--ic", "pole:0.5", "--tol", "1e-9"],
                 ["verify", "--s", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_two_poles_needs_a_later_snapshot():
    for overrides in ({"t_end": 2.0}, {"snapshot_times": ()}):
        with pytest.raises(ConfigError) as err:
            build_config("two_poles", overrides)
        assert err.value.field == "snapshot_times"
    cfg = build_config("two_poles")
    assert later_times(cfg.snapshot_times, cfg.dt, cfg.t_end) == (2.5, 5.0)


def test_snapshot_past_the_last_step_is_a_configuration_error(tmp_path):
    # the grid of t_end = 1.0005 at dt = 1e-3 ends at step 1000, t = 1: the snapshot at
    # 1.0005 lies past it, and the run once died there with a ValueError
    cfg = tmp_path / "snap.cfg"
    cfg.write_text("t_end = 1.0005\ndt = 1e-3\nsnapshot_times = 0,1.0005\nn = 64\n"
                   "spectrum_size = 16\n")
    proc = run_cli("simulate", "--preset", "two_poles", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert "field 'snapshot_times'" in proc.stderr
    assert "Traceback" not in proc.stderr
    # snapshots past the end are dropped: --t-end 3 runs with 2.5 of the defaults
    cfg = build_config("two_poles", {"t_end": 3.0})
    assert later_times(cfg.snapshot_times, cfg.dt, cfg.t_end) == (2.5,)


def test_snapshot_times_at_zero_and_past_t_end_are_accepted():
    cfg = build_config("custom", {"snapshot_times": (0.0, 1e300)})
    assert cfg.snapshot_times == (0.0, 1e300)
    assert later_times(cfg.snapshot_times, cfg.dt, cfg.t_end) == ()


# The file-only keys: finite snapshot times >= 0, and gamma = M (1 - |p|^2) in (0, M]
# (kappa_fit runs at M = 16/9).
@pytest.mark.parametrize("preset, overrides", [
    ("custom", {"snapshot_times": (0.5, math.nan, math.inf, -1.0)}),
    ("custom", {"snapshot_times": (-1.0,)}),
    ("custom", {"snapshot_times": (math.inf,)}),
    ("kappa_fit", {"gamma0": -1.0}),
    ("kappa_fit", {"gamma0": 0.0}),
    ("kappa_fit", {"gamma0": 5.0}),
    ("kappa_fit", {"gamma0": math.nan}),
    ("kappa_fit", {"gamma0": math.inf}),
])
def test_file_only_values_out_of_range_are_rejected(preset, overrides):
    with pytest.raises(ConfigError) as err:
        build_config(preset, overrides)
    assert err.value.field == next(iter(overrides))


def test_gamma0_equal_to_m_is_accepted():
    assert build_config("kappa_fit", {"gamma0": _M_POLE}).gamma0 == _M_POLE


@pytest.mark.filterwarnings("ignore::damped_szego.errors.ResolutionLossWarning")
def test_baby_reads_m_from_initial_data():
    small = {"grid_size": 256, "t_end": 0.5, "spectrum_size": 32}
    circle = run_experiment(build_config("baby", {**small, "ic": "circle:2"}))
    rate = circle.artifacts["fits"][0]
    assert rate["name"] == "linearized_growth_rate"
    assert rate["target"] == pytest.approx(0.5 * (asymptotic_constants(1.0, 4.0).a - 1.0),
                                           rel=1e-12)
    base = run_experiment(build_config("baby", small))
    other_m = run_experiment(build_config("baby", {**small, "m": 3.0}))
    assert other_m.checks == base.checks
    assert other_m.artifacts["fits"] == base.artifacts["fits"]


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
    # the stable-manifold fits need 8 backward records (1e-3 apart) in [t_start/2, t_start]
    # and 2 in [0.8 t_start, t_start]; the default t_start is about 5.313 here
    (["simulate", "--preset", "stable_manifold", "--t-start", "0.01"], "t_start"),
    (["simulate", "--preset", "stable_manifold", "--t-end-back", "5.307"], "t_start"),
    (["simulate", "--preset", "stable_manifold", "--t-start", "0.003"], "t_start"),
    (["simulate", "--preset", "stable_manifold", "--t-start", "2", "--t-end-back", "1.9995"],
     "t_start"),
    # a zero or negative beta_inf, step, threshold, odd grid or Gram size
    (["simulate", "--preset", "stable_manifold", "--beta-inf", "0"], "beta_inf"),
    (["simulate", "--preset", "stable_manifold", "--beta-inf", "-1"], "beta_inf"),
    (["simulate", "--preset", "custom", "--n", "64", "--dt", "0"], "dt"),
    (["simulate", "--krasny-threshold", "-0.1"], "krasny_threshold"),
    (["simulate", "--n", "7"], "n"),
    (["spectrum", "--ic", "pole:0.5", "--size", "-1"], "size"),
    # the baby targets, like single_pole's, read the momentum of u(0)
    (["simulate", "--preset", "baby", "--ic", "circle:0", "--n", "64", "--t-end", "0.05"],
     "ic"),
    # alpha and M must be finite
    (["simulate", "--preset", "stable_manifold", "--m", "inf"], "m"),
    (["simulate", "--preset", "kappa_fit", "--m", "nan"], "m"),
    (["simulate", "--preset", "custom", "--n", "64", "--alpha", "inf"], "alpha"),
    (["simulate", "--preset", "custom", "--n", "64", "--alpha", "nan"], "alpha"),
    (["simulate", "--preset", "stable_manifold", "--alpha", "inf"], "alpha"),
    # the kappa fit averages over at least 8 records (0.1 apart) in [t_end/2, t_end]
    (["simulate", "--preset", "kappa_fit", "--t-end", "0.5"], "t_end"),
    # both stable-manifold fit windows end at t_start
    (["simulate", "--preset", "stable_manifold", "--t-start=-1", "--t-end-back=-2"], "t_start"),
    # every kind:args number must be finite
    (["spectrum", "--ic", "pole:nan"], "ic"),
    (["spectrum", "--ic", "gaussian:inf"], "ic"),
    (["spectrum", "--ic", "circle:inf"], "ic"),
    (["spectrum", "--ic", "blaschke:nan"], "ic"),
    (["spectrum", "--ic", "wstate:nan,1,0.5"], "ic"),
    (["spectrum", "--ic", "pole:0.5,inf"], "ic"),
    # the rank-one run needs a finite damping and growth exponent
    (["wode", "--alpha", "inf"], "alpha"),
    (["wode", "--s", "inf"], "s"),
    # a finite alpha or M too large for the closed-form constants
    (["simulate", "--preset", "kappa_fit", "--alpha", "1e300"], "alpha"),
    (["simulate", "--preset", "stable_manifold", "--m", "1e300"], "m"),
    # the momentum |c|^2/(1-|p|^2)^2 must be a finite float
    (["wode", "--c", "1e200"], "c"),
    # a step count must fit a machine-sized integer
    (["simulate", "--preset", "kappa_fit", "--t-end", "1e30"], "t_end"),
    (["wode", "--t-end", "1e300"], "t_end"),
    (["simulate", "--preset", "gaussian", "--t-end", "1e300"], "t_end"),
    # t_end_back must lie below the default t_start too (about 5.3 here)
    (["simulate", "--preset", "stable_manifold", "--t-end-back", "10"], "t_end_back"),
    # a gaussian width and a perturbed_circle epsilon are real
    (["spectrum", "--ic", "gaussian:10+5j"], "ic"),
    (["spectrum", "--ic", "perturbed_circle:0.05+1j"], "ic"),
    # beta_inf e^{-(a+alpha) t_start} must be a normal float: t_start <= 272.4 here
    (["simulate", "--preset", "stable_manifold", "--t-start", "300"], "t_start"),
    # an empty kind:args field is not skipped: the later ones would shift
    (["spectrum", "--ic", "pole:0.5,,0.3"], "ic"),
    (["spectrum", "--ic", "wstate:0.1,,1,0.5"], "ic"),
    # the built state's squared L2 norm and momentum must be finite floats
    (["spectrum", "--ic", "pole:0.5,1e200", "--n", "64", "--size", "8"], "ic"),
    (["spectrum", "--ic", "wstate:1e308,1,0.5", "--n", "64", "--size", "8"], "ic"),
    # and so must its coefficients (c p^k overflows here)
    (["spectrum", "--ic", "pole:0.9+0.4j,1.5e308+1.5e308j", "--n", "64", "--size", "8"], "ic"),
    (["simulate", "--preset", "custom", "--ic", "pole:0.5,1e200", "--n", "64",
      "--t-end", "0.1", "--dt", "1e-3"], "ic"),
    # every PDE run needs u(0) of positive momentum, the trace of its K_u^2
    (["simulate", "--preset", "gaussian", "--ic", "circle:0", "--n", "64",
      "--t-end", "0.1", "--dt", "1e-3"], "ic"),
    (["simulate", "--preset", "two_poles", "--ic", "circle:0", "--n", "64",
      "--t-end", "3", "--dt", "1e-3"], "ic"),
    (["simulate", "--preset", "custom", "--ic", "circle:0", "--n", "64",
      "--t-end", "0.1", "--dt", "1e-3"], "ic"),
    # the backward run's step count must fit a machine-sized integer
    (["simulate", "--preset", "stable_manifold", "--t-end-back=-1e300"], "t_end_back"),
    (["simulate", "--preset", "stable_manifold", "--t-end-back=-1e306"], "t_end_back"),
    # a run keeps at most 2^24 records (both once died of a MemoryError)
    (["wode", "--t-end", "1e13", "--record-stride", "1"], "t_end"),
    (["simulate", "--preset", "kappa_fit", "--t-end", "1e12"], "t_end"),
])
def test_cli_bad_flags_are_configuration_errors(tmp_path, argv, field):
    proc = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert f"field {field!r}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, field", [
    (["--alpha", "0"], "alpha"),
    (["--m", "0"], "m"),
    (["--m", "-1"], "m"),
    (["--alpha", "inf"], "alpha"),
    (["--m", "inf"], "m"),
    (["--alpha", "nan"], "alpha"),
    # the closed-form constants and the H^1 growth coefficient overflow
    (["--alpha", "1", "--m", "1e200"], "m"),
    (["--alpha", "1e300"], "alpha"),
    # M must be a number
    (["--m", "nan"], "m"),
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


def test_readme_library_calls_run():
    block = _readme().split("## Library calls", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})


def test_readme_lists_every_config_key():
    # the sentence "Keys: `preset`, `ic`, ..., `ode_dt`." under "Configuration files"
    listed = re.findall(r"`(\w+)`", _readme().split("Keys: ", 1)[1].split(".", 1)[0])
    assert sorted(listed) == sorted(CONFIG_KEYS)


def test_readme_preset_table_names_every_gate():
    # the gates column of each "| `preset` | what it runs | gates |" row
    table = _readme().split("### Presets", 1)[1].split("###", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \|[^|]*\|([^|]*)\|$", table, re.M))
    assert set(rows) == set(PRESET_NAMES)
    for preset, (_, gates, _, _) in _PRESET_GATES.items():
        assert {g[0] for g in gates} <= set(re.findall(r"`(\w+)`", rows[preset])), preset


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


def test_stable_manifold_far_backward_run_stops_at_blow_up(tmp_path):
    # t_end_back = -1e15 passes validation as 1e18 backward steps; the orbit leaves the
    # float range near t = -3.95, and the run must stop there, not store every step first
    proc = run_cli("simulate", "--preset", "stable_manifold", "--t-end-back=-1e15",
                   "--out", str(tmp_path / "out"), timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    t_reached = re.search(r"at t=(\S+) \(the last finite one\)", proc.stderr)
    assert float(t_reached.group(1)) == pytest.approx(-3.95, abs=0.01)


def test_initial_condition_domain_validation():
    with pytest.raises(ConfigError):
        parse_initial_condition("pole:1.2", 64)  # |p| >= 1
    with pytest.raises(ConfigError):
        parse_initial_condition("gaussian:-3", 64)
    with pytest.raises(ConfigError):
        parse_initial_condition("perturbed_circle:-0.1", 64)
    with pytest.raises(ConfigError):
        parse_initial_condition("blaschke:1.5", 64)
    # a width or epsilon with an imaginary part is rejected, not truncated to its real part
    for spec in ("gaussian:10+5j", "perturbed_circle:0.05+1j"):
        with pytest.raises(ConfigError) as err:
            parse_initial_condition(spec, 64)
        assert err.value.field == "ic"
