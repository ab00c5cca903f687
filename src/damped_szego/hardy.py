"""Truncated Hardy-space states and their basic functionals.

A state holds the Fourier coefficients u_hat(0..N/2-1) of a function with
no negative-frequency content.  ``to_grid`` returns its sample array on the
N-point grid x_n = -pi + 2*pi*n/N, n = 1..N, and ``from_grid`` projects
such an array back onto a state.  The Nyquist mode N/2 is kept identically
zero so that projection and truncation commute.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGridError

__all__ = [
    "HardyState",
    "grid_points",
    "to_grid",
    "from_grid",
    "inner_with_one",
    "l2_norm_sq",
    "momentum",
]


@dataclass(frozen=True)
class HardyState:
    """Immutable vector of nonnegative-frequency Fourier coefficients.

    ``coeffs[k]`` is u_hat(k) for k = 0 .. N/2 - 1 where N = ``grid_size``.
    """

    coeffs: np.ndarray
    grid_size: int

    def __post_init__(self):
        n = int(self.grid_size)
        if n <= 0 or n % 2 != 0:
            raise InvalidGridError(f"grid_size must be even and positive, got {self.grid_size}")
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.shape[0] != n // 2:
            raise InvalidGridError(
                f"expected {n // 2} coefficients for grid_size {n}, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidGridError("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "grid_size", n)

    @property
    def n_modes(self):
        return self.grid_size // 2


def grid_points(n: int) -> np.ndarray:
    """Collocation points x_n = -pi + 2*pi*n/N for n = 1..N."""
    return -np.pi + 2.0 * np.pi * np.arange(1, n + 1) / n


def to_grid(u: HardyState) -> np.ndarray:
    """Sample array of u at the collocation points: values[n] = sum_k u_hat(k) e^{i k x_n}."""
    # e^{ik(-pi)} = (-1)^k twists the standard DFT onto the offset grid;
    # the roll accounts for n running 1..N instead of 0..N-1.
    n, coeffs = u.grid_size, u.coeffs
    k = np.arange(coeffs.shape[0])
    full = np.zeros(n, dtype=complex)
    full[: coeffs.shape[0]] = coeffs * np.where(k % 2 == 0, 1.0, -1.0)
    return np.roll(np.fft.ifft(full) * n, -1)


def from_grid(values) -> HardyState:
    """Project a sample array (1-D, of even positive length N) onto nonnegative frequencies.

    Computes the DFT and discards every negative wave number (and the
    Nyquist mode), which realises the Hardy-space projector on the grid.
    """
    v = np.asarray(values, dtype=complex)
    if v.ndim != 1 or v.shape[0] == 0 or v.shape[0] % 2 != 0:
        raise InvalidGridError(f"grid values must be 1-D, of even positive length; "
                               f"got shape {v.shape}")
    n = v.shape[0]
    full = np.fft.fft(np.roll(v, 1)) / n
    k = np.arange(n // 2)
    return HardyState(full[: n // 2] * np.where(k % 2 == 0, 1.0, -1.0), n)


def inner_with_one(u: HardyState) -> complex:
    """Inner product (u | 1), i.e. the zeroth Fourier coefficient."""
    return complex(u.coeffs[0])


def l2_norm_sq(u: HardyState) -> float:
    """Squared L2 norm, sum_k |u_hat(k)|^2."""
    return float(np.sum(np.abs(u.coeffs) ** 2))


def momentum(u: HardyState) -> float:
    """Momentum sum_{k>=1} k |u_hat(k)|^2, conserved by the flow."""
    k = np.arange(u.n_modes)
    return float(np.sum(k * np.abs(u.coeffs) ** 2))
