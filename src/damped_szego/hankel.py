"""Gram matrices of the squared Hankel operators and the explosion criterion.

For a symbol u the operator H_u f = P(u * conj(f)) has the squared Gram
matrix A[n,m] = sum_k u_hat(n+k) conj(u_hat(m+k)); the shifted variant K_u
uses the coefficients of S*u.  The alternating sum of the distinct
eigenvalues of K_u^2 is the threshold the squared L2 norm is compared
against to certify norm explosion.

The Gram matrix is built from its Hankel structure.  With m = n + d,
A[n, n+d] = sum_{j>=n} c(j) conj c(j+d) is a tail sum along the lag d.  The
head products j < size fill a size x size block; one vector along d holds the
sum of the terms j >= size.  A running sum up the rows, tail[j] += tail[j+1]
started from that vector, gives the tail sums, so decaying data add their
small terms first; each row add runs over contiguous memory.  The block is
stored sheared, row n at offset n (size + 1) of one buffer, so that read as a
size x size matrix its row n lands on A[n, n:]: the upper triangle is in
place without an index array, and what spills past it falls in the strict
lower triangle, which is then overwritten by the conjugate mirror.  For K
coefficients this takes O(size^2 + K size) work and O(size^2 + K) memory,
and the result is exactly Hermitian with a real diagonal.

The K_u^2 eigenvalues are computed on the Gram's numerical-rank block.  The
Gram is R R^* for its rows R, and its diagonal d[n] = sum_{j>=n} |c(j)|^2
decreases in n.  Keeping the k leading rows R_1, those whose trace tail
sum_{m>=n} d[m] exceeds eps d[0] (eps the double-precision machine epsilon),
changes the nonzero spectrum from that of R_1^* R_1 to that of
R_1^* R_1 + R_2^* R_2.  The added matrix is positive semidefinite with norm
at most its trace, the dropped tail, which is at most eps d[0] <= eps
lambda_max.  By Weyl's inequality every eigenvalue of the full Gram lies
between the block's (padded with zeros) and that plus the dropped trace, so
it moves by no more than the backward error of eigvalsh on the full Gram:
eigenvalues below eps lambda_max are roundoff in either computation.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidMatrixError, TruncationError
from .hardy import HardyState, inner_with_one, l2_norm_sq

__all__ = [
    "KSpectrum",
    "Verdict",
    "CriterionVerdict",
    "gram_k",
    "eigenvalues",
    "k_eigenvalues",
    "k_spectrum",
    "f_functional",
    "explosion_criterion",
    "tail_mass",
]

DEFAULT_SIZE = 128
CLUSTER_TOL = 1e-8  # k_spectrum merges eigenvalues closer than this times the top one
RANK_CUTOFF_REL = 1e-10  # and drops those at or below this times the top one as kernel
_ZERO_RANK_CUTOFF = 1e-14  # the cutoff when no eigenvalue is positive
CRITERION_TOL_REL = 1e-8  # explosion_criterion's equality tolerance over max(1, ||u||^2)
_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class KSpectrum:
    """Strictly decreasing positive eigenvalues of K_u^2 with multiplicities."""

    distinct_eigenvalues: np.ndarray
    multiplicities: np.ndarray
    rank_cutoff: float

    def __post_init__(self):
        vals = np.asarray(self.distinct_eigenvalues, dtype=float)
        mult = np.asarray(self.multiplicities, dtype=int)
        if vals.shape != mult.shape or vals.ndim != 1:
            raise ValueError("eigenvalues and multiplicities must be 1-d and aligned")
        if np.any(np.diff(vals) >= 0):
            raise ValueError("distinct eigenvalues must be strictly decreasing")
        if np.any(vals <= self.rank_cutoff):
            raise ValueError("all retained eigenvalues must exceed the rank cutoff")
        if np.any(mult < 1):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "distinct_eigenvalues", vals)
        object.__setattr__(self, "multiplicities", mult)

    def __len__(self):
        return self.distinct_eigenvalues.shape[0]

    @property
    def has_degenerate_cluster(self) -> bool:
        return bool(np.any(self.multiplicities > 1))


class Verdict(Enum):
    EXPLODES_STRICT = "ExplodesStrict"
    EXPLODES_EQUAL_CASE = "ExplodesEqualCase"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CriterionVerdict:
    l2_sq: float
    f_value: float
    u0_coeff_abs: float
    verdict: Verdict


def _gram(c: np.ndarray, size: int) -> np.ndarray:
    """A[n, m] = sum_{k>=0} c(n+k) conj c(m+k) for n, m < size (see the module docstring)."""
    avail = c.shape[0]
    pad = np.zeros(max(avail, size) + size - 1, dtype=complex)
    pad[:avail] = c
    lag = sliding_window_view(pad.conj(), size)  # lag[j, d] = conj c(j+d)
    sheared = np.empty((size, size + 1), dtype=complex)
    tail = sheared[:, :size]  # tail[n, d] sums the lag-d products j >= n
    np.multiply(pad[:size, None], lag[:size], out=tail)
    tail[-1] += pad[size:avail] @ lag[size:avail]
    for j in range(size - 2, -1, -1):
        tail[j] += tail[j + 1]
    # The diagonal sums |c(j)|^2; a fused multiply-add may leave roundoff in its imaginary part.
    tail[:, 0] = tail[:, 0].real
    a = sheared.reshape(-1)[: size * size].reshape(size, size)  # a[n, n+d] = tail[n, d]
    np.copyto(a, a.T.conj(), where=np.tri(size, size, -1, dtype=bool))
    return a


def gram_k(u: HardyState, size: int) -> np.ndarray:
    """size x size matrix of K_u^2, built from the shifted coefficients."""
    if size < 1 or size > u.n_modes:
        raise TruncationError(f"size must lie in [1, {u.n_modes}], got {size}")
    return _gram(u.coeffs[1:], size)


def tail_mass(u: HardyState, size: int) -> float:
    """Weighted coefficient mass sum_{k>=size} (k+1)|u_hat(k)|^2 lost to truncation."""
    k = np.arange(size, u.n_modes)
    return float(np.sum((k + 1) * np.abs(u.coeffs[size:]) ** 2))


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, in descending order.

    The input must be Hermitian to within 1e-12 of its largest entry.
    Output is deterministic for identical input.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if dev > _HERMITIAN_TOL * scale:
        raise InvalidMatrixError(f"matrix deviates from Hermitian by {dev:.3e}")
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return w[::-1].copy()


def k_eigenvalues(u: HardyState, size: int) -> np.ndarray:
    """All ``size`` eigenvalues of K_u^2, in descending order.

    ``eigvalsh`` runs on the leading block whose trailing rows carry more than
    eps d[0] of the trace; the rest are zeros, sorted in among the block's
    roundoff-negative eigenvalues (see the module docstring).
    """
    a = gram_k(u, size)
    d = a.diagonal().real
    tail = np.cumsum(d[::-1])[::-1]
    k = int(np.count_nonzero(tail > np.finfo(float).eps * d[0]))
    out = np.zeros(size)
    out[:k] = eigenvalues(a[:k, :k])
    return np.sort(out)[::-1]


def k_spectrum(u: HardyState, size: int = DEFAULT_SIZE) -> KSpectrum:
    """Clustered positive spectrum of K_u^2.

    Eigenvalues at or below the rank cutoff, 1e-10 of the top eigenvalue, are
    treated as kernel.  Consecutive eigenvalues closer than 1e-8 times the top
    eigenvalue merge into a single distinct eigenvalue whose value is the
    cluster mean and whose multiplicity is the cluster size; exact arithmetic
    would make these clusters exactly degenerate.
    """
    size = min(size, u.n_modes)
    evals = k_eigenvalues(u, size)
    top = float(evals[0]) if evals.shape[0] else 0.0
    rank_cutoff = RANK_CUTOFF_REL * top if top > 0 else _ZERO_RANK_CUTOFF
    evals = evals[evals > rank_cutoff]
    if evals.shape[0] == 0:
        return KSpectrum(np.empty(0), np.empty(0, dtype=int), rank_cutoff)

    gap = CLUSTER_TOL * top
    clusters = [[float(evals[0])]]
    for v in evals[1:]:
        if clusters[-1][-1] - float(v) <= gap:
            clusters[-1].append(float(v))
        else:
            clusters.append([float(v)])
    vals = np.array([np.mean(c) for c in clusters])
    mult = np.array([len(c) for c in clusters], dtype=int)
    return KSpectrum(vals, mult, rank_cutoff)


def f_functional(spec: KSpectrum) -> float:
    """Alternating sum over the distinct eigenvalues, starting positive."""
    vals = spec.distinct_eigenvalues
    signs = np.where(np.arange(vals.shape[0]) % 2 == 0, 1.0, -1.0)
    return float(np.sum(signs * vals))


def explosion_criterion(u: HardyState, spec: KSpectrum) -> CriterionVerdict:
    """Decide whether u certifies unbounded Sobolev growth.

    ``spec`` is the K_u^2 spectrum of u, as :func:`k_spectrum` returns it.
    ExplodesStrict / ExplodesEqualCase certify that every H^s norm with
    s > 1/2 tends to infinity along the damped flow; Inconclusive makes no
    claim.  Equality is judged to 1e-8 max(1, ||u||^2).
    """
    l2 = l2_norm_sq(u)
    f_val = f_functional(spec)
    u0_abs = abs(inner_with_one(u))
    tol = CRITERION_TOL_REL * max(1.0, l2)
    if l2 < f_val - tol:
        verdict = Verdict.EXPLODES_STRICT
    elif abs(l2 - f_val) <= tol and u0_abs > tol:
        verdict = Verdict.EXPLODES_EQUAL_CASE
    else:
        verdict = Verdict.INCONCLUSIVE
    return CriterionVerdict(l2_sq=l2, f_value=f_val, u0_coeff_abs=u0_abs, verdict=verdict)
