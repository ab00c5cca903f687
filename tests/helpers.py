"""Oracles and fixtures used by the test suite only.

Most are independent brute-force computations.  ``reference_gram``,
``reference_sobolev_sq_w``, ``reference_rhs_coeffs`` and ``reference_rk4_coeffs``
are earlier forms of the package's Gram build, H^s sum and band kernel, kept as
oracles for their rewrites.  ``gram_h`` and ``rhs`` are
thin wrappers over the package's Gram and band kernels, so the tests built
on them still exercise the package code; ``delta_rhs`` reads its Q from the
package's ``_delta_form_q``.  ``w_rhs`` with ``reference_integrate_w`` steps the
(b, c, p) system, which the package itself only maps to its reduced chart: the
oracle that chart and the PDE solver are held to.  ``factored_reduced_rhs`` with
``reference_rk4`` is the per-stage form of the package's fused RK4 loop, in
either chart of the reduced loop; ``reduced_rhs`` and
``delta_rhs`` are the unfactored right-hand sides the factored one is held to,
themselves equal to the complex formulas.  ``trapezoid_manifold_seed`` is the
stable manifold's seed from the integral fixed point on a trapezoid grid, the
construction its power series replaced, with ``reference_fixed_point_integral``
as its sweep.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from damped_szego.hankel import _gram, eigenvalues, explosion_criterion, gram_k, k_spectrum
from damped_szego.hardy import HardyState, grid_points
from damped_szego.solver import _extent, _grid, _rhs_coeffs
from damped_szego.wmanifold import (
    _delta_form_q,
    asymptotic_constants,
    linearization_matrix,
)


def fmt(x) -> str:
    """One CSV cell: ``x`` as a float with 17 significant digits."""
    return format(float(x), ".17g")


def hs_norm_sq(u: HardyState, s: float) -> float:
    """Squared Sobolev norm sum_k (1 + k^2)^s |u_hat(k)|^2."""
    k = np.arange(u.n_modes, dtype=float)
    return float(np.sum((1.0 + k * k) ** s * np.abs(u.coeffs) ** 2))


def gram_h(u: HardyState, size: int) -> np.ndarray:
    """size x size matrix of H_u^2 in the Fourier basis: the K_u^2 Gram build on u_hat itself."""
    return _gram(u.coeffs, size)


def rhs(u: HardyState, alpha: float) -> HardyState:
    """Time derivative du/dt = -i P(|u|^2 u) - alpha*(u|1) e_0 from the solver's band kernel."""
    c = u.coeffs
    b = min(c.shape[0], 2 * _extent(c) - 1)
    out = np.zeros(c.shape[0], dtype=complex)
    out[:b] = _rhs_coeffs(c[:b], alpha, np.empty((3, _grid(b, u.grid_size)), dtype=complex))
    return HardyState(out, u.grid_size)


def dft_to_grid_oracle(u: HardyState) -> np.ndarray:
    """O(N^2) evaluation of sum_k c_k e^{i k x_n} by direct summation."""
    n = u.grid_size
    x = grid_points(n)
    out = np.zeros(n, dtype=complex)
    for k, ck in enumerate(u.coeffs):
        out += ck * np.exp(1j * k * x)
    return out


def dft_from_grid_oracle(v: np.ndarray, chunk: int = 256) -> np.ndarray:
    """O(N^2) projection oracle on a sample array: c_k = (1/N) sum_n v_n e^{-i k x_n}, k < N/2."""
    n = v.shape[0]
    x = grid_points(n)
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


def reference_gram(c: np.ndarray, size: int) -> np.ndarray:
    """The Hankel-structured Gram by a reverse ``cumsum`` down the rows and an
    index-array mirror; the package's ``_gram`` must equal it byte for byte."""
    avail = c.shape[0]
    pad = np.zeros(max(avail, size) + size - 1, dtype=complex)
    pad[:avail] = c
    lag = sliding_window_view(pad.conj(), size)  # lag[j, d] = conj c(j+d)
    head = pad[:size, None] * lag[:size]
    head[-1] += pad[size:avail] @ lag[size:avail]
    tail = np.cumsum(head[::-1], axis=0)[::-1]
    tail[:, 0] = tail[:, 0].real
    n, m = np.triu_indices(size)
    upper = tail[n, m - n]
    a = np.empty((size, size), dtype=complex)
    a[m, n] = upper.conj()
    a[n, m] = upper
    return a


def reference_sobolev_sq_w(b: complex, c: complex, p: complex, s: float) -> float:
    """|b|^2 + |c|^2 sum_{k>=1} (1+k^2)^s |p|^{2(k-1)}, summed in chunks of 512
    terms until they fall below 1e-17 of the total (a finite total only)."""
    r = abs(p) ** 2
    total = abs(b) ** 2
    amp = abs(c) ** 2
    k0 = 1
    chunk = 512
    while True:
        k = np.arange(k0, k0 + chunk, dtype=float)
        terms = amp * (1.0 + k * k) ** s * r ** (k - 1.0)
        total += float(terms.sum())
        if terms[-1] < 1e-17 * max(total, 1e-300) and k0 > 2 * s + 2:
            return total
        k0 += chunk


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


def reference_rhs_coeffs(c: np.ndarray, m: int, alpha: float) -> np.ndarray:
    """One stage of the band kernel on an m-point grid, with fresh arrays and the
    forward transform scaled by 1/m; the package's ``_rhs_coeffs`` must equal it
    byte for byte."""
    v = np.fft.ifft(c, m, norm="forward")
    out = -1j * np.fft.fft(v * v * np.conj(v), norm="forward")[: c.shape[0]]
    out[0] -= alpha * c[0]
    return out


def reference_rk4_coeffs(c: np.ndarray, m: int, alpha: float, dt: float) -> np.ndarray:
    """One RK4 step of the band ``c`` on :func:`reference_rhs_coeffs`; the package's
    ``_rk4_coeffs`` must equal it byte for byte."""
    k1 = reference_rhs_coeffs(c, m, alpha)
    k2 = reference_rhs_coeffs(c + (0.5 * dt) * k1, m, alpha)
    k3 = reference_rhs_coeffs(c + (0.5 * dt) * k2, m, alpha)
    k4 = reference_rhs_coeffs(c + dt * k3, m, alpha)
    return c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def w_rhs(b: complex, c: complex, p: complex, alpha: float):
    """Time derivatives (db, dc, dp); the momentum is recomputed each call."""
    gt = 1.0 - (p.real * p.real + p.imag * p.imag)
    m = (c.real * c.real + c.imag * c.imag) / (gt * gt)
    bb = b.real * b.real + b.imag * b.imag
    db = -alpha * b - 1j * ((bb + 2.0 * m * gt) * b + m * c * p.conjugate())
    dc = -1j * ((2.0 * bb + m) * c + 2.0 * m * gt * b * p)
    dp = -1j * (m * gt * p + c * b.conjugate())
    return db, dc, dp


def reduced_rhs(beta: float, gamma: float, zr: float, zi: float, alpha: float, m: float):
    """Derivatives (dbeta, dgamma, dzr, dzi) of the gauge-reduced system at momentum m.

    zr and zi are the real and imaginary parts of zeta; dzeta = -(alpha + iM) zeta
    + i(3 gamma - beta) zeta - 2i beta gamma M + i gamma^2 (M - gamma + 3 beta).
    """
    s = 3.0 * gamma - beta
    return (
        -2.0 * alpha * beta + 2.0 * zi,
        -2.0 * zi,
        -alpha * zr + m * zi - s * zi,
        -alpha * zi - m * zr + s * zr - 2.0 * beta * gamma * m
        + gamma * gamma * (m - gamma + 3.0 * beta),
    )


def delta_rhs(beta: float, delta: float, zr: float, zi: float, alpha: float, m: float):
    """Derivatives (dbeta, ddelta, dzr, dzi) of X = (beta, delta, Re zeta, Im zeta): -A X + Q(X)."""
    qr, qi = _delta_form_q(beta, delta, zr, zi, m)
    return (
        -2.0 * alpha * beta + 2.0 * zi,
        2.0 * zi,
        -alpha * zr - 2.0 * m * zi + qr,
        m * m * (beta + delta) + 2.0 * m * zr - alpha * zi + qi,
    )


def factored_reduced_rhs(beta: float, x: float, zr: float, zi: float, alpha: float,
                         m: float, g0: float = 0.0):
    """:func:`reduced_rhs` at gamma = g0 + x, as derivatives (dbeta, dx, dzr, dzi), in the
    21-operation arithmetic of ``wmanifold._rk4_reduced``: g = g0 + x, q = M + beta - 3g,
    M - gamma formed as (M - g0) - x, and z = 2 Im zeta, with dx = -z."""
    g = g0 + x
    q = m + beta - 3.0 * g
    z = zi + zi
    return (
        -2.0 * alpha * beta + z,
        -z,
        -alpha * zr + q * zi,
        -alpha * zi - q * zr + g * (g * (m - g0 - x + 3.0 * beta) - 2.0 * m * beta),
    )


def reference_rk4(f, y0, dt, n_steps, stride):
    """Classical RK4 on four real scalars, ``f(w, x, y, z) -> (dw, dx, dy, dz)``,
    one call of ``f`` per stage; the states every ``stride`` steps and after
    the last, as a float ``(records, 4)`` array."""
    w, x, y, z = y0
    h = 0.5 * dt
    h6 = dt / 6.0
    rows = [(w, x, y, z)]
    for i in range(1, n_steps + 1):
        a1, b1, c1, d1 = f(w, x, y, z)
        a2, b2, c2, d2 = f(w + h * a1, x + h * b1, y + h * c1, z + h * d1)
        a3, b3, c3, d3 = f(w + h * a2, x + h * b2, y + h * c2, z + h * d2)
        a4, b4, c4, d4 = f(w + dt * a3, x + dt * b3, y + dt * c3, z + dt * d3)
        w += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        x += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        y += h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        z += h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        if i % stride == 0 or i == n_steps:
            rows.append((w, x, y, z))
    return np.array(rows)


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


def complex_reduced_rhs(beta, gamma, zeta, alpha, m):
    """(dbeta, dgamma, dzeta) of the gauge-reduced system in complex arithmetic."""
    im = zeta.imag
    dzeta = (
        -(alpha + 1j * m) * zeta
        + (3j * gamma - 1j * beta) * zeta
        - 2j * beta * gamma * m
        + 1j * gamma * gamma * (m - gamma + 3.0 * beta)
    )
    return -2.0 * alpha * beta + 2.0 * im, -2.0 * im, dzeta


def complex_delta_rhs(beta, delta, zeta, alpha, m):
    """(dbeta, ddelta, dzeta) of the (beta, delta, zeta) system with a complex zeta."""
    zr, zi = zeta.real, zeta.imag
    s = beta + 3.0 * delta
    qr = s * zi
    qi = (-s * zr - 2.0 * m * delta**2 - 4.0 * m * beta * delta + delta**3
          + 3.0 * beta * delta**2)
    return (
        -2.0 * alpha * beta + 2.0 * zi,
        2.0 * zi,
        complex(-alpha * zr - 2.0 * m * zi + qr,
                m * m * (beta + delta) + 2.0 * m * zr - alpha * zi + qi),
    )


def reference_integrate_reduced(r0, alpha, m, dt, t_end, stride):
    """RK4 on (beta, gamma, zeta) with a complex zeta, written out per variable;
    rows (t, beta, gamma, zeta)."""
    n_steps = max(1, int(round(t_end / dt)))
    beta, gamma, zeta = float(r0.beta), float(r0.gamma), complex(r0.zeta)
    rows = [(0.0, beta, gamma, zeta)]
    f = complex_reduced_rhs
    for i in range(1, n_steps + 1):
        k1 = f(beta, gamma, zeta, alpha, m)
        k2 = f(beta + 0.5 * dt * k1[0], gamma + 0.5 * dt * k1[1], zeta + 0.5 * dt * k1[2],
               alpha, m)
        k3 = f(beta + 0.5 * dt * k2[0], gamma + 0.5 * dt * k2[1], zeta + 0.5 * dt * k2[2],
               alpha, m)
        k4 = f(beta + dt * k3[0], gamma + dt * k3[1], zeta + dt * k3[2], alpha, m)
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


def reference_fixed_point_integral(q, exp_h, h):
    """The stable manifold's trapezoidal fixed-point integral, summed by the sequential
    loop acc_i = h/2 (q_i + E q_{i+1}) + E acc_{i+1} from the last grid row down;
    row n is zero."""
    integral = np.zeros_like(q)
    acc = np.zeros(q.shape[1])
    for i in range(q.shape[0] - 2, -1, -1):
        acc = 0.5 * h * (q[i] + exp_h @ q[i + 1]) + exp_h @ acc
        integral[i] = acc
    return integral


def trapezoid_manifold_seed(beta_inf, alpha, m, t_start, h):
    """X(t_start) on the stable manifold from the fixed point
    X(t) = e^{-tA} X_inf - int_t^inf e^{(s-t)A} Q(X(s)) ds, taken by the trapezoid rule
    on a grid of step h over [t_start, t_start + 16/(a+alpha)] and swept from the
    leading-order profile until the e^{(a+alpha)t}-weighted change is below
    1e-12 max(beta_inf, 1), in at most 60 sweeps."""
    c = asymptotic_constants(alpha, m)
    a_mat, _ = linearization_matrix(alpha, m)
    w, v = np.linalg.eig(h * a_mat)
    exp_h = (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real
    ts = t_start + h * np.arange(int(np.ceil(16.0 / c.decay_rate / h)) + 1)
    v_inf = beta_inf * np.array([1.0, (c.a - alpha) / (c.a + alpha), m * (alpha - c.a) / c.a,
                                 0.5 * (alpha - c.a)])
    hom = np.exp(-c.decay_rate * ts)[:, None] * v_inf
    weight = np.exp(c.decay_rate * ts)[:, None]
    x = hom
    for _ in range(60):
        q = np.zeros_like(x)
        q[:, 2], q[:, 3] = _delta_form_q(*x.T, m)
        x_new = hom - reference_fixed_point_integral(q, exp_h, h)
        change = np.max(weight * np.abs(x_new - x))
        x = x_new
        if change < 1e-12 * max(beta_inf, 1.0):
            return x[0]
    raise AssertionError("the trapezoid fixed point did not converge in 60 sweeps")
