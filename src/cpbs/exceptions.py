"""Exception hierarchy.

Each class carries a stable ``code`` used by the command-line layer to map
failures to distinct exit codes (see ``cpbs.cli``).
"""

from __future__ import annotations

__all__ = [
    "CpbsError",
    "DataFormatError",
    "MissingColumnError",
    "ResponseTypeError",
    "MissingValueError",
    "RankDeficiencyError",
    "MStepConvergenceError",
    "BootstrapFailureError",
    "StaleFitError",
    "ConfigSchemaError",
]


class CpbsError(Exception):
    """Base class for all package errors."""

    code = "error"


class DataFormatError(CpbsError):
    """Malformed input data (CSV layout, cell values)."""

    code = "data-format"


class MissingColumnError(DataFormatError):
    code = "missing-column"


class ResponseTypeError(DataFormatError):
    """Response cell is not a non-negative integer."""

    code = "non-integer-response"


class MissingValueError(DataFormatError):
    """Empty or NaN cell where a numeric value is required."""

    code = "nan-cell"


class RankDeficiencyError(CpbsError):
    """Design matrix (or weighted normal equations) not of full column rank."""

    code = "rank-deficiency"


class MStepConvergenceError(CpbsError):
    """Inner Poisson-with-offset solve did not converge.

    Carries the last iterate so callers can inspect or restart.
    """

    code = "m-step"

    def __init__(self, message: str, beta_last=None):
        super().__init__(message)
        self.beta_last = beta_last


class BootstrapFailureError(CpbsError):
    """Too many replicates failed to refit.

    The ceiling is 10% of the bootstrap or envelope replicates and 5% of the
    Monte Carlo replications.
    """

    code = "replicate-failures"


class StaleFitError(CpbsError):
    """Saved fit report does not match the data it is being applied to."""

    code = "stale-fit"


class ConfigSchemaError(CpbsError):
    """Invalid study/config file; message names the offending key."""

    code = "config-schema"
