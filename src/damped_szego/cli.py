"""Command-line front end.

Subcommands: simulate (every preset, the stable manifold included),
spectrum (the K_u^2 spectrum and explosion-criterion verdict of one state),
wode and verify.  Each run writes CSV/JSON artifacts into --out and exits 0
iff every configured check passed.
"""

import argparse
import cmath
import json
import math
import sys

from .errors import ConfigError, SzegoError, require
from .initial_conditions import parse_initial_condition
from .presets import (
    CONFIG_KEYS,
    PRESET_NAMES,
    build_config,
    load_config_file,
    run_experiment,
    spectrum_files,
    spectrum_report,
    verify_identities,
)
from .reporting import w_trajectory_csv, write_files
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
    sim = sub.add_parser("simulate", help="run one preset experiment", allow_abbrev=False)
    sim.add_argument("--preset", default="single_pole", help=f"one of {', '.join(PRESET_NAMES)}")
    sim.add_argument("--config", help="flat key = value configuration file")
    sim.add_argument("--out", default="out", help="output directory")
    for key, spec in CONFIG_KEYS.items():
        if spec.flag:
            sim.add_argument(spec.flag, type=spec.kind, dest=key, help=spec.help)

    spect = sub.add_parser("spectrum", help="K_u^2 spectrum and explosion verdict of one state")
    spect.add_argument("--ic", required=True, help="initial condition spec, e.g. blaschke:0.3")
    spect.add_argument("--n", type=int, default=1024, help="grid size (even)")
    spect.add_argument("--size", type=int, default=128, help="Gram truncation size")
    spect.add_argument("--cluster-tol", type=float, dest="cluster_tol", default=1e-8)
    spect.add_argument("--rank-cutoff", type=float, dest="rank_cutoff")
    spect.add_argument("--tol", type=float, help="criterion equality tolerance")
    spect.add_argument("--out", help="write spectrum.csv, spectrum.json and verdict.json here")

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

    ver = sub.add_parser("verify", help="check every closed-form identity for (alpha, M)")
    ver.add_argument("--alpha", type=float, default=1.0)
    ver.add_argument("--m", type=float, default=1.0)
    ver.add_argument("--s", type=float, default=1.0)

    return parser


def _simulate_overrides(args) -> dict:
    """Values of the ``--config`` file, overridden by the flags given."""
    overrides = load_config_file(args.config) if args.config else {}
    for key, spec in CONFIG_KEYS.items():
        val = getattr(args, key) if spec.flag else None
        if val is not None:
            overrides[spec.field or key] = val
    return overrides


def _cmd_simulate(args):
    cfg = build_config(args.preset, _simulate_overrides(args))
    ok = run_experiment(cfg, out_dir=args.out).passed
    print(f"{'PASS' if ok else 'FAIL'} {args.preset}")
    return 0 if ok else 1


def _cmd_spectrum(args):
    require({
        "size": (args.size >= 1, "size must be >= 1"),
        "cluster_tol": (0 <= args.cluster_tol < math.inf, "cluster_tol must be finite and >= 0"),
        "rank_cutoff": (args.rank_cutoff is None or 0 < args.rank_cutoff < math.inf,
                        "rank_cutoff must be positive and finite"),
        "tol": (args.tol is None or 0 <= args.tol < math.inf, "tol must be finite and >= 0"),
    })
    u = parse_initial_condition(args.ic, args.n)
    spec, _, summary = spectrum_report(
        u, size=args.size, cluster_tol=args.cluster_tol,
        rank_cutoff=args.rank_cutoff, tol=args.tol,
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.out:
        write_files(args.out, spectrum_files(spec, summary))
    return 0


def _cmd_wode(args):
    require({
        "dt": (0 < args.dt < math.inf, "dt must be positive and finite"),
        "t_end": (0 < args.t_end < math.inf, "t_end must be positive and finite"),
        "record_stride": (args.record_stride > 0, "record_stride must be positive"),
        "alpha": (args.alpha >= 0, "alpha must be >= 0"),
        "s": (args.s > 0.5, "s must be > 1/2: the growth fit compares with t^(2s-1)"),
        "b": (cmath.isfinite(args.b), "b must be finite"),
        "p": (abs(args.p) < 1, "|p| must be < 1"),
        "c": (cmath.isfinite(args.c) and args.c != 0, "c must be finite and nonzero"),
    })
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
        write_files(args.out, {"trajectory.csv": w_trajectory_csv(traj), "fit.json": payload})
    return 0


def _cmd_verify(args):
    require({
        "alpha": (args.alpha > 0, "alpha must be positive"),
        "m": (args.m > 0, "m must be positive"),
        "s": (args.s >= 0.5, "s must be >= 1/2"),
    })
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
        "spectrum": _cmd_spectrum,
        "wode": _cmd_wode,
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
