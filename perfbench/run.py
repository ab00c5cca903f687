"""Benchmark of the damped_szego package: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pde_gaussian --seed 1 --seconds 55 --trace 0

The package is imported from ``src/`` of the checkout.  One client drives
it in a closed loop: each call starts after the previous one returns.  A
run repeats passes over the workload's calls until another pass would end
after ``--seconds``, checks every call's output, and prints as its last
stdout line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones, taken
with the package's public functions wrapped (see ``tracing.py``).  Spans,
accuracy values and run facts are written to ``.bench_out/``.
"""

import os

# One BLAS thread: on a small shared host, a BLAS call split over every CPU
# waits for the slowest of them, so its time follows the load on the
# neighbours of each CPU.  Set before anything imports numpy; the set-up
# processes inherit it.  The run facts record the thread count in force.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import functools
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 8
SETUP_TIMEOUT_S = 60
# The CPUs of a small shared host need not run at one speed: on the 2-vCPU
# host this benchmark was tuned on, one vCPU ran the same loop up to 60%
# slower than the other in repeated trials.  A single-threaded process stays
# where the scheduler put it, so its time would depend on that placement.
# Timed work therefore moves round the allowed CPUs, one per period.
CPU_PERIOD_S = 0.05


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink every workload (smoke test only)")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _use_checkout_source():
    """Put the checkout's ``src`` first on the path; refuse any other copy of the package."""
    if not os.path.isfile(os.path.join(SRC, "damped_szego", "__init__.py")):
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path.insert(0, SRC)


def _check_imported_source():
    import damped_szego

    where = os.path.dirname(os.path.abspath(damped_szego.__file__))
    if where != os.path.join(SRC, "damped_szego"):
        raise SystemExit(f"error: damped_szego imported from {where}, not from {SRC}")


# ---------------------------------------------------------------------------
# set-up time: fresh processes
# ---------------------------------------------------------------------------

def _setup_only(args):
    start = time.perf_counter()
    _use_checkout_source()
    workloads.set_up(args.workload, args.seed, args.toy, os.path.join(OUT, "unused"))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def _allowed_cpus():
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def _measure_setup(args):
    """Median set-up time of fresh processes, each started on the next allowed CPU.

    Call before anything starts a thread: the child is pinned between fork
    and exec.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        cmd.append("--toy")
    cpus = _allowed_cpus()
    times = []
    for k in range(SETUP_REPEATS):
        pin = None
        if cpus:
            pin = functools.partial(os.sched_setaffinity, 0, {cpus[k % len(cpus)]})
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False, preexec_fn=pin)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class CpuRotation:
    """Moves the calling thread to the next allowed CPU every ``CPU_PERIOD_S``."""

    def __init__(self):
        self._cpus = _allowed_cpus()
        self._tid = threading.get_native_id()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._rotate, daemon=True)

    def __enter__(self):
        if len(self._cpus) > 1:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        if self._thread.is_alive():
            self._stop.set()
            self._thread.join()
            os.sched_setaffinity(self._tid, self._cpus)

    def _rotate(self):
        k = 0
        while not self._stop.wait(CPU_PERIOD_S):
            k += 1
            os.sched_setaffinity(self._tid, {self._cpus[k % len(self._cpus)]})


class CallRecord:
    def __init__(self, label, seconds, outcome, error):
        self.label = label
        self.seconds = seconds
        self.outcome = outcome
        self.error = error


def _run_pass(calls, tracer, first_op, deadline=None, expected=None):
    """One call per input; stops before a call ``expected`` to end after ``deadline``."""
    records = []
    for offset, call in enumerate(calls):
        if deadline is not None and time.perf_counter() + expected[offset] > deadline:
            break
        root = None
        if tracer is not None and tracer.enabled:
            tracer.op = first_op + offset
            root = tracer.open("bench.call")
        start = time.perf_counter()
        raw, error = None, None
        try:
            raw = call.run()
        except Exception:  # the loop must go on; the call counts as failed
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        if root is not None:
            tracer.close(root)
        outcome = None
        if error is None:
            try:
                outcome = call.check(raw)
                if outcome.problems:
                    error = "; ".join(outcome.problems)
            except Exception:  # malformed output is a failed call, not a crash
                error = traceback.format_exc()
        if error is not None:
            print(f"call {call.label} failed: {error}", file=sys.stderr)
        records.append(CallRecord(call.label, seconds, outcome, error))
    return records


def _run_passes(calls, budget_s, tracer=None, first_op=0):
    """Repeat passes until the next call would end after ``budget_s``.

    The first pass always runs whole.  The last may stop part-way, except
    when tracing: per-layer figures are per whole traced pass.  A call is
    expected to take its median time so far.
    """
    deadline = time.perf_counter() + budget_s
    passes = [_run_pass(calls, tracer, first_op)]
    while len(passes[-1]) == len(calls):
        expected = [statistics.median(p[i].seconds for p in passes if len(p) > i)
                    for i in range(len(calls))]
        if tracer is not None and time.perf_counter() + sum(expected) > deadline:
            break
        records = _run_pass(calls, tracer, first_op + len(passes) * len(calls),
                            deadline if tracer is None else None, expected)
        if not records:
            break
        passes.append(records)
    return passes


def _median_pass(passes):
    """Sum over a pass's calls of each call's median time over the passes that made it.

    The host's speed swings for tens of seconds at a time; a median per call
    leaves out the passes such a swing slowed, where a mean would not.
    """
    return sum(statistics.median(p[i].seconds for p in passes if len(p) > i)
               for i in range(len(passes[0])))


def _tail_latency(samples):
    """p90, or the highest percentile with ten samples beyond it; the maximum below 20 samples.

    Below 20 samples even the median has fewer than ten beyond it, so the
    slowest call is the only tail figure left.
    """
    data = sorted(samples)
    n = len(data)
    if n < 20:
        return data[-1]
    pos = min(0.9, 1.0 - 10.0 / n) * (n - 1)
    lo = int(pos)
    return data[lo] + (data[lo + 1] - data[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# run facts
# ---------------------------------------------------------------------------

def _openblas():
    """OpenBLAS build string and thread count of the library numpy loaded, if found."""
    import ctypes

    import numpy

    info = {"config": None, "threads": None}
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                    get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                    info["config"] = get_config().decode()
                    info["threads"] = get_threads()
                    return info
    return info


def _facts(args):
    from importlib import metadata

    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "damped_szego", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "nproc": os.cpu_count(),
        "openblas": _openblas(), "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _end_to_end(passes, setup_s):
    records = [r for p in passes for r in p]
    failed = sum(1 for r in records if r.error is not None)
    return {
        "wall_s": _median_pass(passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed / len(records),
    }


# Figures that grow with the number of traced passes; reported per pass.
_EXTENSIVE = ("busy_s", "self_s", "calls", "steps", "points", "n3_computed", "bytes",
              "fp_iterations")


def _per_layer(tracer, traced, untraced, probes):
    n_pass = len(traced)
    values = {}
    for name, fig in tracer.span_figures().items():
        for stat, value in fig.items():
            values[f"{name}.{stat}"] = value
    values.update(tracer.counters)
    steps = values.get("solver.evolve.steps", 0)
    for key in list(values):
        if key.rsplit(".", 1)[-1] in _EXTENSIVE:
            values[key] /= n_pass
    steps /= n_pass
    values["solver.evolve.us_per_step"] = (
        values.get("solver.evolve.busy_s", 0.0) / steps * 1e6 if steps else 0.0)
    values["solver.fft.points_per_step"] = (
        values.get("solver.fft.points", 0.0) / steps if steps else 0.0)
    values.update(probes)
    values["trace.overhead_s"] = _median_pass(traced) - _median_pass(untraced)
    values["trace.coverage"] = tracer.coverage("bench.call")
    # Call latencies are per-layer figures because a run holds only a few
    # calls of each kind, whose percentiles follow host speed from run to
    # run.  Tracing adds trace.overhead_s to a pass.
    latencies = [r.seconds for p in untraced + traced for r in p]
    values["call_s.p50"] = statistics.median(latencies)
    values["call_s.p90"] = _tail_latency(latencies)
    records = [r for p in traced + untraced for r in p]
    values["fail_share"] = sum(1 for r in records if r.error is not None) / len(records)
    return values


def _accuracy(passes):
    """Worst value of each accuracy figure over the run's calls (least R^2, largest error)."""
    worst = {}
    for r in (r for p in passes for r in p if r.outcome is not None):
        for key, value in r.outcome.accuracy.items():
            pick = min if key.endswith("_r2") else max
            worst[key] = pick(worst.get(key, value), value)
    return worst


def _select(values, specs, absent_is_zero):
    """The named metrics with their units.

    Span and counter figures of a layer the workload never enters read 0.
    """
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing and not absent_is_zero:
        raise SystemExit(f"error: no value for metrics {missing}")
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in specs}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = _parse_args(argv)
    if args.setup_only:
        _setup_only(args)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    _use_checkout_source()

    tracer = None
    setup_s = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install_fft_counters()
    else:
        setup_s = _measure_setup(args)

    call_dir = os.path.join(OUT, f"calls-{os.getpid()}")
    calls = workloads.set_up(args.workload, args.seed, args.toy, call_dir)
    _check_imported_source()
    if tracer is not None:
        tracer.install_spans()

    os.makedirs(OUT, exist_ok=True)
    try:
        with CpuRotation():
            if tracer is None:
                untraced = _run_passes(calls, args.seconds)
                traced = []
            else:
                from probes import run_probes

                untraced = _run_passes(calls, args.seconds / 2)
                tracer.enable()
                traced = _run_passes(calls, args.seconds / 2, tracer,
                                     len(untraced) * len(calls))
                tracer.disable()
                probes = run_probes()
    finally:
        shutil.rmtree(call_dir, ignore_errors=True)

    passes = untraced + traced
    problems = []
    if tracer is not None:
        tracer.uninstall()
        if args.workload == "criterion_rank_one":
            named = set(workloads.sizes(args.toy)["criterion_size"])
            if tracer.gram_sizes != named:
                problems.append(f"Gram sizes {sorted(tracer.gram_sizes)}, expected {sorted(named)}")
        values = _per_layer(tracer, traced, untraced, probes)
        metrics = _select(values, spec["per_layer"], absent_is_zero=True)
    else:
        metrics = _select(_end_to_end(passes, setup_s), spec["end_to_end"], absent_is_zero=False)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)

    records = [r for p in passes for r in p]
    failed = sum(1 for r in records if r.error is not None)
    facts = _facts(args)
    accuracy = _accuracy(passes)
    properties = {}
    for r in records:
        for key, value in (r.outcome.properties if r.outcome is not None else {}).items():
            properties.setdefault(key, set()).add(value)
    facts.update(passes=len(passes), calls=len(records),
                 properties={k: sorted(v) for k, v in properties.items()})
    record = {"facts": facts, "accuracy": accuracy, "metrics": metrics,
              "calls": [[r.label, r.seconds] for r in records],
              "failures": [{"call": r.label, "error": r.error} for r in records if r.error],
              "spans": tracer.spans if tracer is not None else []}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh)

    print("# facts " + json.dumps(facts, sort_keys=True))
    print("# accuracy " + json.dumps(accuracy, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
