"""Seeded inputs, program calls and output checks for each benchmark workload.

A workload is a list of *calls* into the package's public entry points.  One
pass over that list is the unit the benchmark times.  The seed picks the
generated ``kind:args`` strings and configuration values; the package only
ever sees those strings and values.

Each call has a timed part, ``run()``, and an untimed part, ``check(raw)``,
which turns the raw return value into an :class:`Outcome`: accuracy values,
workload properties and the problems found.  An empty
problem list means the output is correct.
"""

import cmath
import contextlib
import io
import json
import math
import os
import random
import warnings

WORKLOADS = ("pde_gaussian", "criterion_rank_one")

# The narrow-band workload must keep its active band below K/8 of the
# K = N/2 retained modes, or it no longer stresses what its name says.
_GAUSSIAN_BAND_MAX_SHARE = 0.125

# Criterion batch: every block covers each (kind, N, Gram size) once.  Pole
# moduli are fixed because the cost of the Gram product depends on where p^k
# underflows into subnormal numbers; the seed picks phases, widths and order.
_CRITERION_KINDS = ("poles", "pole", "blaschke", "gaussian")
_POLE_SUM_MODULI = (0.4, 0.55, 0.7)
_SINGLE_POLE_MODULUS = 0.6
_BLASCHKE_MODULI = (0.3, 0.6)


def sizes(toy):
    """Problem sizes of every workload; ``toy`` shrinks them for the smoke test."""
    if toy:
        return {
            "gaussian": dict(grid_size=2048, t_end=5.0),
            "criterion_n": (256, 512, 1024),
            "criterion_size": (32, 64, 128),
            "kappa": dict(t_end=500.0, ode_dt=1e-2),
            "stable_beta_inf": 1e-3,
        }
    return {
        "gaussian": dict(grid_size=4096, t_end=5.0),
        "criterion_n": (1024, 2048, 4096),
        "criterion_size": (128, 256, 512),
        "kappa": dict(t_end=500.0, ode_dt=1e-3),
        "stable_beta_inf": 1.0,
    }


def _cnum(z):
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _phase(rng):
    return cmath.exp(2j * math.pi * rng.random())


def _steps(t_end, dt):
    return max(1, int(round(t_end / dt)))


# ---------------------------------------------------------------------------
# input generation (pure Python: it runs before the package is imported)
# ---------------------------------------------------------------------------

def pde_gaussian_inputs(seed, toy):
    """A gaussian of seeded width in [9, 11]: a narrow active band."""
    rng = random.Random(seed)
    width = round(9.0 + 2.0 * rng.random(), 6)
    return [dict(preset="gaussian", ic=f"gaussian:{width!r}", alpha=1.0, dt=2e-3,
                 record_stride=10, spectrum_size=128, **sizes(toy)["gaussian"])]


def criterion_inputs(seed, toy):
    """One block: each (kind, N, Gram size) once, in seeded order."""
    rng = random.Random(seed)
    s = sizes(toy)
    block = [_criterion_state(kind, n, size, rng)
             for kind in _CRITERION_KINDS
             for n in s["criterion_n"]
             for size in s["criterion_size"]]
    rng.shuffle(block)
    return block


def _criterion_state(kind, n, size, rng):
    state = dict(kind=kind, n=n, size=size)
    if kind == "poles":
        base = 2 * math.pi * rng.random()
        poles = [r * cmath.exp(1j * (base + 2 * math.pi * i / 3 + 0.3 * (rng.random() - 0.5)))
                 for i, r in enumerate(_POLE_SUM_MODULI)]
        state.update(ic="poles:" + ",".join(_cnum(p) for p in poles), rank=len(poles))
    elif kind == "pole":
        p = _SINGLE_POLE_MODULUS * _phase(rng)
        amp, offset = _phase(rng), 0.5 * _phase(rng)
        state.update(ic=f"pole:{_cnum(p)},{_cnum(amp)},{_cnum(offset)}",
                     momentum=abs(amp) ** 2 / (1.0 - abs(p) ** 2) ** 2)
    elif kind == "blaschke":
        ps = [r * _phase(rng) for r in _BLASCHKE_MODULI]
        state.update(ic="blaschke:" + ",".join(_cnum(p) for p in ps))
    else:
        state.update(ic=f"gaussian:{round(3.0 + 9.0 * rng.random(), 6)!r}")
    return state


def rank_one_inputs(seed, toy):
    """``kappa_fit`` with a seeded gamma0, ``stable_manifold``, and ``wode`` at its defaults.

    The ``wode`` pole is rotated by a seeded phase, which leaves the dynamics
    unchanged.
    """
    rng = random.Random(seed)
    s = sizes(toy)
    m = 16.0 / 9.0
    gamma0 = round(m * (0.6 + 0.3 * rng.random()), 9)
    p = 0.5 * _phase(rng)
    return [
        dict(preset="kappa_fit", alpha=1.0, m=m, gamma0=gamma0, **s["kappa"]),
        dict(preset="stable_manifold", alpha=1.0, m=1.0, beta_inf=s["stable_beta_inf"],
             t_end_back=0.0),
        dict(argv=["wode", "--b=0j", "--c=1+0j", f"--p={_cnum(p)}", "--alpha=1.0",
                   "--dt=0.001", "--t-end=20.0", "--record-stride=10", "--s=1.0"],
             momentum=1.0 / (1.0 - abs(p) ** 2) ** 2),
    ]


def criterion_rank_one_inputs(seed, toy):
    """Every work of the package but the PDE: the criterion block, then the rank-one ODEs."""
    return criterion_inputs(seed, toy) + rank_one_inputs(seed, toy)


INPUTS = {
    "pde_gaussian": pde_gaussian_inputs,
    "criterion_rank_one": criterion_rank_one_inputs,
}


def _overrides(item):
    return {k: v for k, v in item.items() if k != "preset"}


def set_up(workload, seed, toy, out_dir):
    """Import the package, build every config and initial state, and bind the calls.

    This is what a fresh process does before its first call; ``setup_s``
    times it.
    """
    from damped_szego.initial_conditions import parse_initial_condition

    inputs = INPUTS[workload](seed, toy)
    calls = _make_calls(inputs, os.path.join(out_dir, workload))
    for item in inputs:
        if "ic" in item:
            parse_initial_condition(item["ic"], item.get("n") or item["grid_size"])
    return calls


# ---------------------------------------------------------------------------
# calls and their checks
# ---------------------------------------------------------------------------

class Outcome:
    """What one call did: accuracy values, workload properties and problems."""

    def __init__(self, accuracy=None, properties=None, problems=None):
        self.accuracy = accuracy or {}
        self.properties = properties or {}
        self.problems = problems or []


class Call:
    """One call into the package: ``run()`` is timed, ``check(raw)`` is not."""

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _make_calls(inputs, out_dir):
    """Bind each input of one pass to the program call that consumes it."""
    calls = []
    for item in inputs:
        if item.get("preset") == "gaussian":
            calls.append(_pde_call(item, os.path.join(out_dir, "gaussian")))
        elif "size" in item:
            calls.append(_criterion_call(item))
        elif "preset" in item:
            calls.append(_ode_preset_call(item, os.path.join(out_dir, item["preset"])))
        else:
            calls.append(_wode_call(item, os.path.join(out_dir, "wode")))
    return calls


def _failed_checks(result):
    return [f"check {c['name']} failed: value {c['value']!r}, target {c['target']!r}, "
            f"tol {c['tol']!r}" for c in result.checks if not c["passed"]]


def _pde_call(item, call_dir):
    from damped_szego import presets
    from damped_szego.errors import ResolutionLossWarning

    cfg = presets.build_config(item["preset"], _overrides(item))
    steps = _steps(cfg.t_end, cfg.dt)
    records = 1 + steps // cfg.record_stride + (1 if steps % cfg.record_stride else 0)

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResolutionLossWarning)
            result = presets.run_experiment(cfg, out_dir=call_dir)
        return result, [w for w in caught if issubclass(w.category, ResolutionLossWarning)]

    def check(raw):
        result, lost = raw
        problems = _failed_checks(result)
        if lost or result.values.get("resolution_loss"):
            problems.append("resolution loss: " + "; ".join(str(w.message) for w in lost))
        with open(os.path.join(call_dir, "diagnostics.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        if not rows == len(result.artifacts["diagnostics"]) == records:
            problems.append(f"diagnostics.csv has {rows} rows, expected {records}")
        coeffs = result.artifacts["result"].u_final.coeffs
        kept = coeffs.nonzero()[0]
        band = int(kept[-1]) + 1 if kept.shape[0] else 0
        modes = cfg.grid_size // 2
        if not band < _GAUSSIAN_BAND_MAX_SHARE * modes:
            problems.append(f"active band {band} not below {_GAUSSIAN_BAND_MAX_SHARE} of "
                            f"{modes} modes")
        accuracy = {k: result.values[k] for k in ("momentum_drift", "lyapunov_residual",
                                                  "hs_fit_r2") if k in result.values}
        return Outcome(accuracy, {"active_band_final": band, "modes": modes}, problems)

    return Call(item["preset"], run, check)


def _criterion_call(item):
    from damped_szego import presets
    from damped_szego.initial_conditions import parse_initial_condition

    def run():
        u = parse_initial_condition(item["ic"], item["n"])
        return presets.spectrum_report(u, size=item["size"])

    def check(raw):
        spec, verdict, summary = raw
        problems = []
        momentum, tail = summary["momentum"], summary["tail_mass"]
        rank = int(spec.multiplicities.sum())
        trace = float((spec.distinct_eigenvalues * spec.multiplicities).sum())
        # Eigenvalues under the rank cutoff are dropped; each is below the cutoff.
        slack = tail + item["size"] * spec.rank_cutoff + 1e-9 * momentum
        if abs(trace - momentum) > slack:
            problems.append(f"sum of eigenvalues {trace!r} vs momentum {momentum!r}")
        kind = item["kind"]
        if kind == "poles" and rank != item["rank"]:
            problems.append(f"K_u^2 rank {rank}, expected {item['rank']} poles")
        if kind == "pole":
            top = float(spec.distinct_eigenvalues[0]) if rank else 0.0
            if rank != 1 or abs(top - momentum) > 1e-9 * momentum + tail:
                problems.append(f"single pole: rank {rank}, top eigenvalue {top!r}, "
                                f"momentum {momentum!r}")
            if abs(momentum - item["momentum"]) > 1e-9 * item["momentum"]:
                problems.append(f"momentum {momentum!r}, closed form {item['momentum']!r}")
        if kind == "blaschke" and verdict.verdict.value != "ExplodesEqualCase":
            problems.append(f"Blaschke product gave {verdict.verdict.value}")
        return Outcome({"trace_rel_dev": abs(trace - momentum) / momentum},
                       {"gram_size": item["size"], "modes": item["n"] // 2}, problems)

    return Call(f"{item['kind']}:N{item['n']}:S{item['size']}", run, check)


def _ode_preset_call(item, call_dir):
    from damped_szego import presets

    cfg = presets.build_config(item["preset"], _overrides(item))

    def run():
        return presets.run_experiment(cfg, out_dir=call_dir)

    def check(raw):
        problems = _failed_checks(raw)
        if cfg.preset == "kappa_fit":
            fitted, kappa = raw.values["fitted"], raw.values["kappa"]
            return Outcome({"kappa_rel_dev": abs(fitted - kappa) / kappa}, {}, problems)
        accuracy = {"roundtrip_residual": raw.values["roundtrip_residual"]}
        for c in raw.checks:
            if c["name"] in ("beta_decay_rate", "delta_beta_ratio"):
                accuracy[c["name"] + "_rel_dev"] = abs(c["value"] - c["target"]) / abs(c["target"])
        return Outcome(accuracy, {"fp_iterations": raw.values["fp_iterations"]}, problems)

    return Call(cfg.preset, run, check)


def _wode_call(item, call_dir):
    from damped_szego import cli

    argv = item["argv"] + ["--out", call_dir]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(raw):
        code, text = raw
        problems = [] if code == 0 else [f"wode exited with {code}"]
        payload = json.loads(text)
        if payload["classification"] != "exploding":
            problems.append(f"wode classified the run {payload['classification']!r}")
        if abs(payload["momentum"] - item["momentum"]) > 1e-12 * item["momentum"]:
            problems.append(f"wode momentum {payload['momentum']!r}, closed form "
                            f"{item['momentum']!r}")
        fits = payload["fits"]
        if len(fits) != 1 or not all(math.isfinite(fits[0][k]) for k in ("fitted", "slope")):
            problems.append(f"wode growth fit missing or not finite: {fits!r}")
        with open(os.path.join(call_dir, "fit.json")) as fh:
            if json.load(fh) != payload:
                problems.append("fit.json differs from the printed payload")
        accuracy = {"wode_growth_rel_dev": fits[0]["rel_dev"]} if fits else {}
        return Outcome(accuracy, {}, problems)

    return Call("wode", run, check)
