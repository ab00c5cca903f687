"""Command-line front end.

Subcommands: simulate (every preset, the stable manifold included),
spectrum (the K_u^2 spectrum and explosion-criterion verdict of one state),
wode and verify.  Each run writes CSV/JSON artifacts into --out and exits 0
iff every configured check passed.
"""

import argparse
import cmath
import math
import sys

from .errors import ConfigError, SzegoError, require
from .initial_conditions import parse_initial_condition
from .presets import (
    ALPHA_RULE,
    CONFIG_KEYS,
    M_RULE,
    PRESET_NAMES,
    build_config,
    closed_form_finite,
    load_config_file,
    run_experiment,
    spectrum_files,
    spectrum_report,
    verify_identities,
)
from .reporting import json_text, reduced_trajectory_csv, write_files
from .solver import MAX_RECORDS, grid_size
from .wmanifold import (
    WState,
    asymptotic_constants,
    classify_w_run,
    growth_fit,
    integrate_reduced,
    require_rank_one,
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
    spect.add_argument("--out", help="write spectrum.csv, spectrum.json and verdict.json here")

    wode = sub.add_parser("wode", help="integrate the rank-one system from (b, c, p)")
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
    require({"size": (args.size >= 1, "size must be >= 1")})
    u = parse_initial_condition(args.ic, args.n)
    spec, _, summary = spectrum_report(u, size=args.size)
    print(json_text(summary))
    if args.out:
        write_files(args.out, spectrum_files(spec, summary))
    return 0


def _momentum_finite(c, p) -> bool:
    """Whether the momentum |c|^2/(1-|p|^2)^2 of (b, c, p) is a finite float; it can overflow."""
    try:
        return math.isfinite(WState(0, c, p).momentum)
    except (ArithmeticError, SzegoError):
        return False


def _cmd_wode(args):
    records = grid_size(args.dt, args.t_end, args.record_stride)[1]
    require({
        "dt": (0 < args.dt < math.inf, "dt must be positive and finite"),
        "t_end": (0 < args.t_end < math.inf and not records > MAX_RECORDS,
                  f"t_end must be positive and finite, with at most sys.maxsize steps of dt "
                  f"and {MAX_RECORDS} records"),
        "record_stride": (args.record_stride > 0, "record_stride must be positive"),
        "alpha": (0 <= args.alpha < math.inf, "alpha must be finite and >= 0"),
        "s": (0.5 < args.s < math.inf,
              "s must be finite and > 1/2: the growth fit compares with t^(2s-1)"),
        "b": (cmath.isfinite(args.b), "b must be finite"),
        "p": (abs(args.p) < 1, "|p| must be < 1"),
        "c": (cmath.isfinite(args.c) and args.c != 0 and _momentum_finite(args.c, args.p),
              "c must be finite and nonzero, with a finite momentum |c|^2/(1-|p|^2)^2"),
    })
    w0 = WState(b=args.b, c=args.c, p=args.p)
    m = w0.momentum
    # stepped in the reduced chart, which stays finite at a step too large for the
    # momentum; such a step shows as records off the chart's invariant
    traj = integrate_reduced(w0.reduced(), args.alpha, m, args.dt, args.t_end,
                             record_stride=args.record_stride)
    require_rank_one(traj)
    label = classify_w_run(traj)
    payload = {"classification": label, "momentum": m}
    fits = []
    if label == "exploding":  # growth_fit refuses every run the label reads bounded
        consts = asymptotic_constants(args.alpha, m)
        report = growth_fit(traj, consts, args.s)
        fits.append({"name": f"hs_sq_growth_s_{args.s:.2f}",
                     "target": report.target_prefactor, "fitted": report.fitted_prefactor,
                     "rel_dev": report.prefactor_rel_dev, "window": list(report.window),
                     "slope": report.fitted_slope, "target_slope": report.target_slope})
    payload["fits"] = fits
    print(json_text(payload))
    if args.out:
        write_files(args.out, {"trajectory.csv": reduced_trajectory_csv(traj), "fit.json": payload})
    return 0


def _cmd_verify(args):
    require({
        "alpha": (closed_form_finite(args.alpha, 1.0), ALPHA_RULE),
        "m": (closed_form_finite(args.alpha, args.m), M_RULE),
    })
    report = verify_identities(args.alpha, args.m)
    printable = dict(report)
    printable["lambda_plus"] = [report["lambda_plus"].real, report["lambda_plus"].imag]
    printable["lambda_minus"] = [report["lambda_minus"].real, report["lambda_minus"].imag]
    print(json_text(printable))
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
