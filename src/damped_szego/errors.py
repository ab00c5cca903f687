"""Exception and warning types shared across the package."""


class SzegoError(Exception):
    """Base class for all package-specific errors."""


class InvalidGridError(SzegoError):
    """Grid data is unusable (odd length, empty, non-finite samples)."""


class BlowUpError(SzegoError):
    """Time integration produced non-finite data or runaway norms.

    Carries the simulation time that was reached before the abort.
    """

    def __init__(self, t_reached, message=None):
        self.t_reached = float(t_reached)
        super().__init__(message or f"solution blew up at t={self.t_reached:.6g}")


class TruncationError(SzegoError):
    """A requested matrix size exceeds the available Fourier modes."""


class InvalidMatrixError(SzegoError):
    """Matrix input violated a structural requirement (e.g. Hermiticity)."""


class NotInManifoldError(SzegoError):
    """Coefficients do not describe a rank-one state.

    ``max_deviation`` is the largest observed departure of the coefficient
    ratios from a geometric progression.
    """

    def __init__(self, message, max_deviation=None):
        self.max_deviation = max_deviation
        super().__init__(message)


class FitError(SzegoError):
    """An asymptotic fit was requested on unsuitable data."""


class FixedPointDivergenceError(SzegoError):
    """The scattering fixed-point iteration failed to contract.

    Usually means the matching time was chosen too small; retry with a
    larger ``t_start``.
    """


class ConfigError(SzegoError):
    """A configuration file or flag could not be parsed."""

    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        loc = ""
        if line is not None:
            loc += f" (line {line}"
            loc += f", field {field!r})" if field else ")"
        elif field:
            loc += f" (field {field!r})"
        super().__init__(message + loc)


def require(rules):
    """Raise a ConfigError naming the first field whose ``(ok, message)`` rule fails."""
    for name, (ok, message) in rules.items():
        if not ok:
            raise ConfigError(message, field=name)


class ResolutionLossWarning(UserWarning):
    """The highest retained Fourier mode is no longer negligible."""
