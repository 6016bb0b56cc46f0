"""Exception hierarchy shared across the package."""


class ExactSIError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(ExactSIError):
    """An argument violates a documented precondition (NaN, bad shape, bad domain)."""


class InvalidSchemeError(InvalidArgumentError):
    """A randomization scheme cannot produce a valid covariance."""


class ConvergenceError(ExactSIError):
    """A solver hit its iteration cap or could not certify its answer to tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InconsistentOutcomeError(ExactSIError):
    """A selection outcome does not reproduce its own stationarity identity."""


class SingularDesignError(ExactSIError):
    """A design (sub)matrix required to be full rank is numerically singular."""


class GeometryInconsistencyError(ExactSIError):
    """The observed statistic falls outside its own conditioning region.

    This always signals an upstream bug or numerically broken inputs, never a
    legitimate data configuration.
    """


class NumericalDegeneracyError(ExactSIError):
    """A quantity that must be positive/finite degenerated numerically."""


class EmptyMassError(ExactSIError):
    """A weighted integral carries no mass anywhere on its grid."""


class NoRootError(ExactSIError):
    """Bracket expansion never straddled the requested target value."""


class InsufficientSampleError(ExactSIError):
    """Too few values were pooled for the requested statistical check."""
