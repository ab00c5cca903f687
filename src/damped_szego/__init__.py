"""Spectral toolkit for the damped cubic Szego equation on the torus."""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    ConfigError,
    FitError,
    FixedPointDivergenceError,
    InvalidGridError,
    InvalidMatrixError,
    NotInManifoldError,
    ResolutionLossWarning,
    SzegoError,
    TruncationError,
)
from .hardy import (
    GridField,
    HardyState,
    from_grid,
    grid_points,
    hs_norm_sq,
    inner_with_one,
    l2_norm_sq,
    momentum,
    to_grid,
)
from .hankel import (
    CriterionVerdict,
    KSpectrum,
    Verdict,
    eigenvalues,
    explosion_criterion,
    f_functional,
    gram_h,
    gram_k,
    k_eigenvalues,
    k_spectrum,
    tail_mass,
)
from .solver import (
    DiagnosticsSeries,
    SolverConfig,
    SolverResult,
    check_lyapunov,
    evolve,
    rhs,
    rk4_step,
)
from .wmanifold import (
    AsymptoticConstants,
    ReducedState,
    WState,
    asymptotic_constants,
    beta_decay_rate,
    classify_w_run,
    delta_beta_ratio,
    gamma_tail_fit,
    growth_fit,
    hardy_to_w,
    integrate_reduced,
    integrate_w,
    linearization_matrix,
    linearized_q0,
    reduced_from_w,
    reduced_rhs,
    sobolev_sq_w,
    stable_manifold_trajectory,
    w_rhs,
    w_to_hardy,
)
