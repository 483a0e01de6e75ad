"""Exception types shared across the library."""

from __future__ import annotations


class TwistSmcError(Exception):
    """Base class for all library errors."""


class DegenerateWeights(TwistSmcError):
    """Every particle weight is zero; the cloud cannot be resampled."""

    def __init__(self, message: str = "all particle weights are zero", t: int | None = None):
        if t is not None:
            message = f"{message} (t={t})"
        super().__init__(message)
        self.t = t


class InvalidTwist(TwistSmcError):
    """Twist is incompatible with a kernel covariance: precision + A is not
    positive definite, so the twisted kernel cannot be normalized."""


class SingularDesign(TwistSmcError):
    """Regression design is numerically singular or has too few usable points."""

    def __init__(self, message: str = "singular regression design", t: int | None = None):
        if t is not None:
            message = f"{message} (t={t})"
        super().__init__(message)
        self.t = t


class InvalidModel(TwistSmcError):
    """Model parameters violate a structural requirement (e.g. non-PD
    covariance), or a model returned values it must not (NaN or +inf
    log-potentials, at step t when known)."""

    def __init__(self, message: str = "invalid model", t: int | None = None):
        if t is not None:
            message = f"{message} (t={t})"
        super().__init__(message)
        self.t = t


class IngestError(TwistSmcError):
    """A data file failed validation."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
        self.row = row
        self.column = column


class ConfigError(TwistSmcError):
    """Invalid experiment configuration."""
