import json
import os
import subprocess
import sys

import numpy as np
import pytest

import damped_szego
from damped_szego.errors import ConfigError
from damped_szego.initial_conditions import parse_initial_condition
from damped_szego.presets import (
    PRESET_NAMES,
    build_config,
    load_config_file,
    run_experiment,
    verify_identities,
)


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


def test_build_config_rejects_unknown_preset():
    with pytest.raises(ConfigError):
        build_config("nonexistent")


def test_preset_names_documented():
    assert set(PRESET_NAMES) == {
        "single_pole", "two_poles", "gaussian", "baby", "custom",
        "kappa_fit", "stable_manifold",
    }


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
        proc = run_cli("criterion", "--ic", ic, "--n", "512", "--size", "128")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == expected


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
    proc = run_cli("stable-manifold", "--beta-inf", "1.0", "--alpha", "1.0",
                   "--m", "1.0", "--out", str(out))
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


def test_paper_horizon_restores_long_gaussian_run():
    assert build_config("gaussian").t_end == 100.0
    assert build_config("gaussian", {"paper_horizon": True}).t_end == 1000.0
    # an explicit t_end wins over the flag
    assert build_config("gaussian", {"paper_horizon": True, "t_end": 7.0}).t_end == 7.0


def test_cli_simulate_multiple_presets_parallel(tmp_path):
    out = tmp_path / "multi"
    proc = run_cli("simulate", "--preset", "stable_manifold,kappa_fit",
                   "--jobs", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "stable_manifold" / "stable_manifold.csv").exists()
    assert (out / "kappa_fit" / "trajectory.csv").exists()
    assert "PASS stable_manifold" in proc.stdout
    assert "PASS kappa_fit" in proc.stdout


def test_kappa_preset_trajectory_csv(tmp_path):
    cfg = build_config("kappa_fit", {"t_end": 2.0})
    result = run_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,beta,gamma,re_zeta,im_zeta"
    fits = json.loads((tmp_path / "fit.json").read_text())
    assert fits and {"target", "fitted", "rel_dev", "window"} <= set(fits[0])


def test_cli_surfaces_blow_up_with_time(tmp_path):
    proc = run_cli("simulate", "--preset", "custom", "--ic", "wstate:10,10,0",
                   "--n", "64", "--dt", "10", "--t-end", "100",
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
