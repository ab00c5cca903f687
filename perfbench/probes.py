"""Single-layer timings: one RK4 step, the Gram build, eigvalsh, the grid round trip.

Each probe times a public function of the package in isolation and reports
the median over a fixed number of repetitions, in microseconds.  The
states are built from ``kind:args`` strings like every other input.
"""

import statistics
import time

# (N, repetitions) for one RK4 step of the single_pole state.
_RK4 = ((1024, 30), (4096, 15), (16384, 5))
# (Gram size, repetitions) on the single_pole state at N = 4096.  Its
# coefficients 0.5^k underflow into subnormal numbers, which is most of the
# cost of both the Gram product and eigvalsh at size 512.
_GRAM = ((128, 10), (256, 5), (512, 3))
_GRAM_STATE = ("pole:0.5", 4096)
_ROUND_TRIP = (4096, 30)


def _median_us(fn, reps):
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def run_probes():
    """Return ``{metric name: microseconds}`` for every layer probe."""
    from damped_szego import hankel, hardy, solver
    from damped_szego.initial_conditions import parse_initial_condition

    out = {}
    for n, reps in _RK4:
        u = parse_initial_condition("pole:0.5", n)
        out[f"solver.rk4_step.N{n}.us"] = _median_us(
            lambda: solver.rk4_step(u, 1.0, 1e-3, 1e-12), reps)
    u = parse_initial_condition(*_GRAM_STATE)
    for size, reps in _GRAM:
        out[f"hankel.gram_k.S{size}.us"] = _median_us(lambda: hankel.gram_k(u, size), reps)
        gram = hankel.gram_k(u, size)
        out[f"hankel.eigenvalues.S{size}.us"] = _median_us(lambda: hankel.eigenvalues(gram), reps)
    n, reps = _ROUND_TRIP
    u = parse_initial_condition("pole:0.5", n)
    out[f"hardy.to_grid_from_grid.N{n}.us"] = _median_us(
        lambda: hardy.from_grid(hardy.to_grid(u)), reps)
    return out
