"""Spans and counters recorded from outside the package.

:class:`Tracer` wraps the package's public functions where their callers
look them up (every ``damped_szego`` module global that holds the original
function object) and wraps the FFT entry points of ``numpy.fft`` and
``scipy.fft``.  Spans are kept in memory as ``[name, start, end, parent,
op]`` lists; FFT calls are counted, not recorded as spans, and are charged
to the module of the innermost open span.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "damped_szego"
_FFT_MODULES = ("numpy.fft", "scipy.fft")
_FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Counter hooks run after a wrapped call returns: hook(tracer, args, kwargs, result).

def _evolve_hook(tracer, args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    tracer.counters["solver.evolve.steps"] += max(1, int(round(cfg.t_end / cfg.dt)))
    kept = result.u_final.coeffs.nonzero()[0]
    tracer.counters["solver.active_band.final"] = int(kept[-1]) + 1 if kept.shape[0] else 0


def _gram_k_hook(tracer, args, kwargs, result):
    tracer.gram_sizes.add(int(result.shape[0]))


def _eigenvalues_hook(tracer, args, kwargs, result):
    tracer.counters["hankel.eigenvalues.n3_computed"] += int(result.shape[0]) ** 3


def _integrate_reduced_hook(tracer, args, kwargs, result):
    dt, t_end = _arg(args, kwargs, 3, "dt"), _arg(args, kwargs, 4, "t_end")
    tracer.counters["wmanifold.integrate_reduced.steps"] += max(1, int(round(t_end / dt)))


def _stable_hook(tracer, args, kwargs, result):
    tracer.counters["wmanifold.stable_manifold_trajectory.fp_iterations"] += result.fp_iterations


def _write_text_hook(tracer, args, kwargs, result):
    tracer.counters["reporting.write_text.bytes"] += len(_arg(args, kwargs, 1, "text"))


# (module, function, counter hook).  A function a later version of the
# package no longer has is skipped, and its metrics read 0.
TARGETS = (
    ("cli", "main", None),
    ("presets", "run_experiment", None),
    ("presets", "spectrum_report", None),
    ("initial_conditions", "parse_initial_condition", None),
    ("hardy", "from_grid", None),
    ("solver", "evolve", _evolve_hook),
    ("solver", "check_lyapunov", None),
    ("hankel", "gram_k", _gram_k_hook),
    ("hankel", "eigenvalues", _eigenvalues_hook),
    ("hankel", "k_spectrum", None),
    ("hankel", "explosion_criterion", None),
    ("hankel", "tail_mass", None),
    ("wmanifold", "integrate_reduced", _integrate_reduced_hook),
    ("wmanifold", "integrate_w", None),
    ("wmanifold", "stable_manifold_trajectory", _stable_hook),
    ("wmanifold", "growth_fit", None),
    ("wmanifold", "gamma_tail_fit", None),
    ("fitting", "linear_fit", None),
    ("fitting", "r_squared", None),
    ("fitting", "loglog_fit", None),
    ("reporting", "diagnostics_csv", None),
    ("reporting", "spectrum_csv", None),
    ("reporting", "reduced_trajectory_csv", None),
    ("reporting", "stable_trajectory_csv", None),
    ("reporting", "w_trajectory_csv", None),
    ("reporting", "write_text", _write_text_hook),
    ("reporting", "write_json", None),
)


class Tracer:
    """In-memory spans and counters; off until :meth:`enable` is called."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counters = defaultdict(float)
        self.gram_sizes = set()
        self.op = None
        self._stack = []
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    # -- installation --------------------------------------------------------

    def install_fft_counters(self):
        """Wrap the FFT entry points; call before the package is imported."""
        for mod_name in _FFT_MODULES:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                continue
            for fn_name in _FFT_FUNCTIONS:
                original = getattr(mod, fn_name, None)
                if original is not None:
                    self._set(mod, fn_name, self._fft_wrapper(original))

    def install_spans(self):
        """Wrap every target function wherever a package module refers to it."""
        for mod_name, fn_name, hook in TARGETS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue
            original = getattr(mod, fn_name, None)
            if original is None:
                continue
            wrapper = self._span_wrapper(f"{mod_name}.{fn_name}", original, hook)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").split(".")[0] != PACKAGE:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, attr, wrapper)

    def uninstall(self):
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def _set(self, obj, attr, value):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                # A counter whose inputs a later package version reshaped
                # reads 0 instead of stopping the benchmark.
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.counters["trace.hook_errors"] += 1
            return result

        return wrapper

    def _fft_wrapper(self, fn):
        import numpy as np

        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            busy = time.perf_counter() - start
            n = _arg(args, kwargs, 1, "n")
            if n is None:
                data = args[0] if args else kwargs.get("a", kwargs.get("x"))
                n = np.shape(data)[_arg(args, kwargs, 2, "axis", -1)]
            stack = tracer._stack
            module = tracer.spans[stack[-1]][0].split(".")[0] if stack else "bench"
            counters = tracer.counters
            counters[f"{module}.fft.calls"] += 1
            counters[f"{module}.fft.points"] += int(n)
            counters[f"{module}.fft.busy_s"] += busy
            return out

        return wrapper

    # -- derived figures -----------------------------------------------------

    def _child_time(self):
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return child_time

    def span_figures(self):
        """Per span name: ``calls``, ``busy_s`` (outermost spans) and ``self_s``."""
        child_time = self._child_time()
        figures = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            fig = figures[name]
            fig["calls"] += 1
            fig["self_s"] += end - start - child_time[index]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                fig["busy_s"] += end - start
        return figures

    def coverage(self, root_name):
        """Smallest share of a ``root_name`` span's time covered by its child spans."""
        child_time = self._child_time()
        shares = [child_time[i] / (end - start)
                  for i, (name, start, end, _, _) in enumerate(self.spans)
                  if name == root_name and end > start]
        return min(shares) if shares else 0.0
