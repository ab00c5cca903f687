"""Independent brute-force oracles used by the test suite only."""

import numpy as np

from damped_szego.hardy import GridField, HardyState, grid_points


def dft_to_grid_oracle(u: HardyState) -> np.ndarray:
    """O(N^2) evaluation of sum_k c_k e^{i k x_n} by direct summation."""
    n = u.grid_size
    x = grid_points(n)
    out = np.zeros(n, dtype=complex)
    for k, ck in enumerate(u.coeffs):
        out += ck * np.exp(1j * k * x)
    return out


def dft_from_grid_oracle(f: GridField, chunk: int = 256) -> np.ndarray:
    """O(N^2) projection oracle: c_k = (1/N) sum_n v_n e^{-i k x_n}, k < N/2."""
    n = f.grid_size
    x = grid_points(n)
    v = f.values
    out = np.empty(n // 2, dtype=complex)
    for start in range(0, n // 2, chunk):
        ks = np.arange(start, min(start + chunk, n // 2))
        out[start : start + ks.shape[0]] = np.exp(-1j * np.outer(ks, x)) @ v / n
    return out


def char_poly_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier characteristic coefficients + roots.

    Only for tiny matrices; independent of LAPACK's Hermitian solver.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        mk = m @ mk
        coeffs[k] = -np.trace(mk) / k
        mk += coeffs[k] * np.eye(n)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def finite_diff(f, t: float, h: float):
    """Five-point first and second derivative stencils."""
    vals = [f(t + j * h) for j in (-2, -1, 0, 1, 2)]
    d1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
    d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
    return d1, d2


def full_grid_rhs(c: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """-i P(|u|^2 u) - alpha*(u|1) e_0 with every transform on the full N-point grid."""
    v = np.fft.ifft(c, n) * n
    out = -1j * np.fft.fft(v * v * np.conj(v))[: c.shape[0]] / n
    out[0] -= alpha * c[0]
    return out


def full_grid_evolve(u0: HardyState, alpha, dt, n_steps, threshold, stride, ratio=1e-8, grid=None):
    """Full-grid RK4 plus Krasny filter, on ``grid`` points (default N).

    Returns rows (t, l2_sq, momentum, |u^(0)|, H^1 norm squared) every
    ``stride`` steps and at the end, the first record time at which the
    last mode exceeds ``ratio`` of the largest (None if never), and the
    final coefficients.
    """
    n = grid or u0.grid_size
    c = u0.coeffs.astype(complex)
    kk = np.arange(c.shape[0])
    rows, loss_time = [], None
    for i in range(n_steps + 1):
        if i:
            k1 = full_grid_rhs(c, n, alpha)
            k2 = full_grid_rhs(c + 0.5 * dt * k1, n, alpha)
            k3 = full_grid_rhs(c + 0.5 * dt * k2, n, alpha)
            k4 = full_grid_rhs(c + dt * k3, n, alpha)
            c = c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if threshold > 0:
                c = np.where(np.abs(c) >= threshold, c, 0.0)
        if i % stride == 0 or i == n_steps:
            a = np.abs(c)
            sq = a * a
            rows.append((i * dt, sq.sum(), (kk * sq).sum(), a[0], ((1 + kk * kk) * sq).sum()))
            if loss_time is None and a[-1] > ratio * a.max() > 0:
                loss_time = i * dt
    return np.array(rows), loss_time, c
