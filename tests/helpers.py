"""Independent brute-force oracles used by the test suite only."""

import numpy as np

from damped_szego.hankel import eigenvalues, explosion_criterion, gram_k, k_spectrum
from damped_szego.hardy import GridField, HardyState, grid_points
from damped_szego.wmanifold import linearization_matrix, reduced_rhs, w_rhs


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


def criterion(u: HardyState, size: int):
    """Explosion-criterion verdict of u from its K_u^2 spectrum at Gram size ``size``."""
    return explosion_criterion(u, k_spectrum(u, size=size))


def dense_gram(coeffs: np.ndarray, size: int) -> np.ndarray:
    """Gram matrix as the product of the size x K shifted-row matrix with its adjoint."""
    avail = coeffs.shape[0]
    rows = np.zeros((size, max(avail, 1)), dtype=complex)
    for n in range(min(size, avail)):
        rows[n, : avail - n] = coeffs[n:]
    a = rows @ rows.conj().T
    return 0.5 * (a + a.conj().T)


def full_k_eigenvalues(u: HardyState, size: int) -> np.ndarray:
    """All eigenvalues of K_u^2 from eigvalsh on the whole size x size Gram."""
    return eigenvalues(gram_k(u, size))


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


def reference_integrate_w(w0, alpha, dt, t_end, stride):
    """RK4 on (b, c, p), written out per variable; rows (t, b, c, p, momentum)."""
    n_steps = max(1, int(round(t_end / dt)))
    b, c, p = complex(w0.b), complex(w0.c), complex(w0.p)
    rows = [(0.0, b, c, p, w0.momentum)]
    for i in range(1, n_steps + 1):
        k1 = w_rhs(b, c, p, alpha)
        k2 = w_rhs(b + 0.5 * dt * k1[0], c + 0.5 * dt * k1[1], p + 0.5 * dt * k1[2], alpha)
        k3 = w_rhs(b + 0.5 * dt * k2[0], c + 0.5 * dt * k2[1], p + 0.5 * dt * k2[2], alpha)
        k4 = w_rhs(b + dt * k3[0], c + dt * k3[1], p + dt * k3[2], alpha)
        b += dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        c += dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        p += dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if i % stride == 0 or i == n_steps:
            rows.append((i * dt, b, c, p, abs(c) ** 2 / (1.0 - abs(p) ** 2) ** 2))
    return [np.array(col) for col in zip(*rows)]


def reference_integrate_reduced(r0, alpha, m, dt, t_end, stride):
    """RK4 on (beta, gamma, zeta), written out per variable; rows (t, beta, gamma, zeta)."""
    n_steps = max(1, int(round(t_end / dt)))
    beta, gamma, zeta = float(r0.beta), float(r0.gamma), complex(r0.zeta)
    rows = [(0.0, beta, gamma, zeta)]
    for i in range(1, n_steps + 1):
        k1 = reduced_rhs(beta, gamma, zeta, alpha, m)
        k2 = reduced_rhs(beta + 0.5 * dt * k1[0], gamma + 0.5 * dt * k1[1],
                         zeta + 0.5 * dt * k1[2], alpha, m)
        k3 = reduced_rhs(beta + 0.5 * dt * k2[0], gamma + 0.5 * dt * k2[1],
                         zeta + 0.5 * dt * k2[2], alpha, m)
        k4 = reduced_rhs(beta + dt * k3[0], gamma + dt * k3[1], zeta + dt * k3[2], alpha, m)
        beta += dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        gamma += dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        zeta += dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if i % stride == 0 or i == n_steps:
            rows.append((i * dt, beta, gamma, zeta))
    return [np.array(col) for col in zip(*rows)]


def reference_delta_run(x0, alpha, m, t0, t1, h):
    """RK4 on the real 4-vector X = (beta, delta, Re zeta, Im zeta) of
    dX/dt = -A X + Q(X), from t0 to t1; returns times and states at every step."""
    a_mat, _ = linearization_matrix(alpha, m)

    def ode(y):
        beta, delta, zr, zi = y
        s = beta + 3.0 * delta
        q = np.array([0.0, 0.0, s * zi, -s * zr - 2.0 * m * delta**2 - 4.0 * m * beta * delta
                      + delta**3 + 3.0 * beta * delta**2])
        return -(a_mat @ y) + q

    n = max(1, int(round(abs(t1 - t0) / h)))
    step = (t1 - t0) / n
    y = np.array(x0, dtype=float)
    ts, ys = [t0], [y]
    for i in range(1, n + 1):
        k1 = ode(y)
        k2 = ode(y + 0.5 * step * k1)
        k3 = ode(y + 0.5 * step * k2)
        k4 = ode(y + step * k3)
        y = y + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        ts.append(t0 + i * step)
        ys.append(y)
    return np.array(ts), np.array(ys)
