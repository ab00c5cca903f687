"""Builders and a tiny ``kind:args`` parser for initial data."""

import numpy as np

from .errors import ConfigError, NotInManifoldError
from .hardy import GridField, HardyState, from_grid, grid_points
from .wmanifold import WState, w_to_hardy

__all__ = [
    "pole_state",
    "poles_sum_state",
    "circle_state",
    "perturbed_circle_state",
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


def perturbed_circle_state(eps: float, n: int) -> HardyState:
    """u = e^{ix} + eps, the constant-perturbed circle point."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    coeffs = np.zeros(n // 2, dtype=complex)
    coeffs[0] = eps
    coeffs[1] = 1.0
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
    return from_grid(GridField(values))


def gaussian_state(width: float, n: int) -> HardyState:
    """Projection of exp(-width * x^2) sampled on the grid."""
    if width <= 0:
        raise ValueError("width must be positive")
    x = grid_points(n)
    return from_grid(GridField(np.exp(-width * x**2).astype(complex)))


def _parse_numbers(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            val = complex(part)
        except ValueError as exc:
            raise ConfigError(f"cannot parse number {part!r}", field="ic") from exc
        out.append(val if val.imag != 0 else val.real)
    return out


def parse_initial_condition(spec: str, n: int) -> HardyState:
    """Build a state on a grid of ``n`` points (even, positive) from a ``kind:args`` string.

    Supported kinds: ``pole:p[,amplitude[,offset]]``, ``poles:p1,p2,...``,
    ``blaschke:p1[,p2,...]``, ``circle:c``, ``perturbed_circle:eps``,
    ``gaussian:width``, ``wstate:b,c,p`` (complex entries accepted, e.g.
    ``0.1+0.2j``).
    """
    if not (n > 0 and n % 2 == 0):
        raise ConfigError(f"grid size must be even and positive, got {n}", field="n")
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    args = _parse_numbers(rest)
    try:
        if kind == "pole":
            if not 1 <= len(args) <= 3:
                raise ConfigError("pole takes 1-3 parameters", field="ic")
            p = args[0]
            amp = args[1] if len(args) > 1 else 1.0
            off = args[2] if len(args) > 2 else 0.0
            return pole_state(p, n, amplitude=amp, offset=off)
        if kind == "poles":
            if not args:
                raise ConfigError("poles needs at least one pole", field="ic")
            return poles_sum_state(args, n)
        if kind == "blaschke":
            if not args:
                raise ConfigError("blaschke needs at least one parameter", field="ic")
            return blaschke_state(args, n)
        if kind == "circle":
            if len(args) != 1:
                raise ConfigError("circle takes exactly one amplitude", field="ic")
            return circle_state(args[0], n)
        if kind == "perturbed_circle":
            if len(args) != 1:
                raise ConfigError("perturbed_circle takes exactly one epsilon", field="ic")
            return perturbed_circle_state(float(np.real(args[0])), n)
        if kind == "gaussian":
            if len(args) != 1:
                raise ConfigError("gaussian takes exactly one width", field="ic")
            return gaussian_state(float(np.real(args[0])), n)
        if kind == "wstate":
            if len(args) != 3:
                raise ConfigError("wstate takes b,c,p", field="ic")
            return w_to_hardy(WState(b=args[0], c=args[1], p=args[2]), n)
    except (ValueError, NotInManifoldError) as exc:
        raise ConfigError(str(exc), field="ic") from exc
    raise ConfigError(f"unknown initial-condition kind {kind!r}", field="ic")
