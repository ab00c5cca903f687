"""Command-line front end.

Subcommands: simulate, criterion, spectrum, wode, stable-manifold, verify.
Each run writes CSV/JSON artifacts into --out and exits 0 iff every
configured check passed.
"""

import argparse
import json
import os
import sys

from .errors import ConfigError, SzegoError
from .initial_conditions import parse_initial_condition
from .presets import (
    CONFIG_KEYS,
    PRESET_NAMES,
    VERDICT_KEYS,
    build_config,
    load_config_file,
    run_experiment,
    spectrum_report,
    verify_identities,
)
from .reporting import spectrum_csv, w_trajectory_csv, write_json, write_text
from .wmanifold import (
    WState,
    asymptotic_constants,
    classify_w_run,
    growth_fit,
    integrate_w,
)


def _complex(text):
    try:
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="damped-szego",
        description="Spectral experiments for the damped cubic Szego equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No abbreviations: the removed --s would otherwise mean --spectrum-size.
    sim = sub.add_parser("simulate", help="run one or more preset experiments", allow_abbrev=False)
    sim.add_argument("--preset", default="single_pole",
                     help=f"comma-separated presets from {', '.join(PRESET_NAMES)}")
    sim.add_argument("--config", help="flat key = value configuration file")
    sim.add_argument("--out", default="out", help="output directory")
    for key, spec in CONFIG_KEYS.items():
        if spec.flag:
            sim.add_argument(spec.flag, type=spec.kind, dest=key, help=spec.help)

    crit = sub.add_parser("criterion", help="evaluate the explosion criterion for one state")
    _add_state_args(crit)
    crit.add_argument("--out", help="also write verdict.json here")

    spect = sub.add_parser("spectrum", help="report the clustered spectrum of one state")
    _add_state_args(spect)
    spect.add_argument("--out", help="write spectrum.csv and spectrum.json here")

    wode = sub.add_parser("wode", help="integrate the rank-one (b, c, p) system")
    wode.add_argument("--b", type=_complex, default=0j)
    wode.add_argument("--c", type=_complex, default=1 + 0j)
    wode.add_argument("--p", type=_complex, default=0.5 + 0j)
    wode.add_argument("--alpha", type=float, default=1.0)
    wode.add_argument("--dt", type=float, default=1e-3)
    wode.add_argument("--t-end", type=float, dest="t_end", default=20.0)
    wode.add_argument("--record-stride", type=int, dest="record_stride", default=10)
    wode.add_argument("--s", type=float, default=1.0, help="Sobolev exponent for the growth fit")
    wode.add_argument("--out", help="write trajectory.csv and fit.json here")

    stab = sub.add_parser("stable-manifold", help="build a trajectory converging to the circle orbit")
    stab.add_argument("--beta-inf", type=float, dest="beta_inf", default=1.0)
    stab.add_argument("--alpha", type=float, default=1.0)
    stab.add_argument("--m", type=float, default=1.0)
    stab.add_argument("--t-start", type=float, dest="t_start")
    stab.add_argument("--t-end-back", type=float, dest="t_end_back", default=0.0)
    stab.add_argument("--out", help="write stable_manifold.csv and fit.json here")

    ver = sub.add_parser("verify", help="check every closed-form identity for (alpha, M)")
    ver.add_argument("--alpha", type=float, default=1.0)
    ver.add_argument("--m", type=float, default=1.0)
    ver.add_argument("--s", type=float, default=1.0)

    return parser


def _add_state_args(cmd):
    cmd.add_argument("--ic", required=True, help="initial condition spec, e.g. blaschke:0.3")
    cmd.add_argument("--n", type=int, default=1024, help="grid size (even)")
    cmd.add_argument("--size", type=int, default=128, help="Gram truncation size")
    cmd.add_argument("--cluster-tol", type=float, dest="cluster_tol", default=1e-8)
    cmd.add_argument("--rank-cutoff", type=float, dest="rank_cutoff")
    cmd.add_argument("--tol", type=float, help="criterion equality tolerance")


def _simulate_overrides(args) -> dict:
    """Values of the ``--config`` file, overridden by the flags given."""
    overrides = load_config_file(args.config) if args.config else {}
    for key, spec in CONFIG_KEYS.items():
        val = getattr(args, key) if spec.flag else None
        if val is not None:
            overrides[spec.field or key] = val
    return overrides


def _cmd_simulate(args):
    overrides = _simulate_overrides(args)
    names = [p.strip() for p in args.preset.split(",") if p.strip()]
    configs = {name: build_config(name, overrides) for name in names}
    results = {}
    for name, cfg in configs.items():
        out_dir = os.path.join(args.out, name) if len(names) > 1 else args.out
        results[name] = run_experiment(cfg, out_dir=out_dir).passed
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1


def _cmd_criterion(args):
    u = parse_initial_condition(args.ic, args.n)
    _, _, summary = spectrum_report(
        u, size=args.size, cluster_tol=args.cluster_tol,
        rank_cutoff=args.rank_cutoff, tol=args.tol,
    )
    payload = {k: summary[k] for k in VERDICT_KEYS}
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "verdict.json"), payload)
    return 0


def _cmd_spectrum(args):
    u = parse_initial_condition(args.ic, args.n)
    spec, _, summary = spectrum_report(
        u, size=args.size, cluster_tol=args.cluster_tol,
        rank_cutoff=args.rank_cutoff, tol=args.tol,
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text(os.path.join(args.out, "spectrum.csv"), spectrum_csv(spec))
        write_json(os.path.join(args.out, "spectrum.json"), summary)
    return 0


def _cmd_wode(args):
    for name in ("dt", "t_end", "record_stride"):
        if getattr(args, name) <= 0:
            raise ConfigError(f"{name} must be positive", field=name)
    w0 = WState(b=args.b, c=args.c, p=args.p)
    traj = integrate_w(w0, args.alpha, args.dt, args.t_end, record_stride=args.record_stride)
    label = classify_w_run(traj)
    payload = {"classification": label, "momentum": float(traj.momentum[0])}
    fits = []
    if label == "exploding":
        consts = asymptotic_constants(args.alpha, float(traj.momentum[0]))
        report = growth_fit(traj, consts, args.s)
        fits.append({"name": f"hs_sq_growth_s_{args.s:.2f}",
                     "target": report.target_prefactor, "fitted": report.fitted_prefactor,
                     "rel_dev": report.prefactor_rel_dev, "window": list(report.window),
                     "slope": report.fitted_slope, "target_slope": report.target_slope})
    payload["fits"] = fits
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text(os.path.join(args.out, "trajectory.csv"), w_trajectory_csv(traj))
        write_json(os.path.join(args.out, "fit.json"), payload)
    return 0


def _cmd_stable(args):
    cfg = build_config("stable_manifold", {
        "alpha": args.alpha, "m": args.m, "beta_inf": args.beta_inf,
        "t_start": args.t_start, "t_end_back": args.t_end_back,
    })
    result = run_experiment(cfg, out_dir=args.out)
    print(json.dumps({"passed": result.passed, "checks": result.checks,
                      "values": result.values}, indent=2, sort_keys=True))
    return 0 if result.passed else 1


def _cmd_verify(args):
    report = verify_identities(args.alpha, args.m, args.s)
    printable = dict(report)
    printable["lambda_plus"] = [report["lambda_plus"].real, report["lambda_plus"].imag]
    printable["lambda_minus"] = [report["lambda_minus"].real, report["lambda_minus"].imag]
    print(json.dumps(printable, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "criterion": _cmd_criterion,
        "spectrum": _cmd_spectrum,
        "wode": _cmd_wode,
        "stable-manifold": _cmd_stable,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SzegoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
