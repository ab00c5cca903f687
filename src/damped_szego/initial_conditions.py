"""Builders and a tiny ``kind:args`` parser for initial data."""

import math
from collections import namedtuple

import numpy as np

from .errors import ConfigError, SzegoError, require
from .hardy import HardyState, from_grid, grid_points, l2_norm_sq, momentum
from .wmanifold import WState, w_to_hardy

__all__ = [
    "pole_state",
    "poles_sum_state",
    "circle_state",
    "blaschke_state",
    "gaussian_state",
    "parse_initial_condition",
]


def pole_state(p: complex, n: int, amplitude: complex = 1.0, offset: complex = 0.0) -> HardyState:
    """u = offset + amplitude * e^{ix} / (1 - p e^{ix})."""
    return w_to_hardy(WState(b=offset, c=amplitude, p=p), n)


def poles_sum_state(poles, n: int) -> HardyState:
    """Sum of unit-amplitude simple poles: u_hat(k) = sum_i p_i^{k-1} for k >= 1."""
    k = n // 2
    coeffs = np.zeros(k, dtype=complex)
    for p in poles:
        if abs(p) >= 1:
            raise ValueError(f"|p| must be < 1, got {abs(p)}")
        coeffs[1:] += np.power(complex(p), np.arange(k - 1))
    return HardyState(coeffs, n)


def circle_state(c: complex, n: int) -> HardyState:
    """u = c e^{ix}, the periodic orbit with momentum |c|^2."""
    coeffs = np.zeros(n // 2, dtype=complex)
    coeffs[1] = c
    return HardyState(coeffs, n)


def blaschke_state(poles, n: int) -> HardyState:
    """Finite product of factors (e^{ix} - p_j)/(1 - conj(p_j) e^{ix}), sampled and projected."""
    x = grid_points(n)
    z = np.exp(1j * x)
    values = np.ones(n, dtype=complex)
    for p in poles:
        p = complex(p)
        if abs(p) >= 1:
            raise ValueError(f"Blaschke parameter must satisfy |p| < 1, got {abs(p)}")
        values *= (z - p) / (1.0 - np.conj(p) * z)
    return from_grid(values)


def gaussian_state(width: float, n: int) -> HardyState:
    """Projection of exp(-width * x^2) sampled on the grid."""
    if width <= 0:
        raise ValueError("width must be positive")
    x = grid_points(n)
    return from_grid(np.exp(-width * x**2))


def _perturbed_circle(n, eps):
    """u = e^{ix} + eps, the constant-perturbed circle point: a pole at p = 0 with offset eps."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return pole_state(0.0, n, offset=eps)


# One row per kind: its builder build(n, *args), its fewest and most
# parameters and whether they must be real.
Kind = namedtuple("Kind", "build least most real", defaults=(False,))
_KINDS = {
    "pole": Kind(lambda n, p, amplitude=1.0, offset=0.0: pole_state(p, n, amplitude, offset),
                 1, 3),  # pole:p[,amplitude[,offset]]
    "poles": Kind(lambda n, *poles: poles_sum_state(poles, n), 1, math.inf),
    "blaschke": Kind(lambda n, *poles: blaschke_state(poles, n), 1, math.inf),
    "circle": Kind(lambda n, c: circle_state(c, n), 1, 1),
    "perturbed_circle": Kind(_perturbed_circle, 1, 1, real=True),
    "gaussian": Kind(lambda n, width: gaussian_state(width, n), 1, 1, real=True),
    "wstate": Kind(lambda n, b, c, p: pole_state(p, n, c, b), 3, 3),  # wstate:b,c,p
}


def _parse_numbers(text):
    """The comma-separated finite numbers of ``text``, a complex one only if its imaginary
    part is nonzero; an empty field is an error, not a skipped or zero parameter."""
    if not text.strip():
        return []
    out = []
    for part in map(str.strip, text.split(",")):
        try:
            val = complex(part)
        except ValueError as exc:
            raise ConfigError(f"cannot parse number {part!r}", field="ic") from exc
        if not np.isfinite(val):
            raise ConfigError(f"number {part!r} is not finite", field="ic")
        out.append(val if val.imag != 0 else val.real)
    return out


def parse_initial_condition(spec: str, n: int) -> HardyState:
    """Build a state on a grid of ``n`` points (even, positive) from a ``kind:args`` string.

    ``_KINDS`` lists the kinds, each with its parameter count; complex
    entries such as ``0.1+0.2j`` are accepted unless the kind is real-only.
    The state's squared L2 norm and momentum must be finite floats.
    """
    if not (n > 0 and n % 2 == 0):
        raise ConfigError(f"grid size must be even and positive, got {n}", field="n")
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in _KINDS:
        raise ConfigError(f"unknown initial-condition kind {kind!r}", field="ic")
    row = _KINDS[kind]
    args = _parse_numbers(rest)
    count = (row.least if row.least == row.most
             else f"{row.least} or more" if row.most == math.inf else f"{row.least} to {row.most}")
    require({"ic": (row.least <= len(args) <= row.most,
                    f"{kind} takes {count} parameters, got {len(args)}")})
    require({"ic": (not (row.real and any(isinstance(a, complex) for a in args)),
                    f"{kind} takes a real parameter")})
    # An overflow shows as a non-finite coefficient, norm or momentum.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            u = row.build(n, *args)
        except (ValueError, SzegoError) as exc:
            raise ConfigError(str(exc), field="ic") from exc
        finite = math.isfinite(l2_norm_sq(u)) and math.isfinite(momentum(u))
    require({"ic": (finite, "initial data must have a finite squared L2 norm and momentum")})
    return u
