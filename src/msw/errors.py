"""Exception types shared across the library."""


class MswError(Exception):
    """Base class for all library errors."""


class DomainError(MswError, ValueError):
    """An argument violates an operation's contract (wrong range, shape, size)."""


class SpecError(MswError, ValueError):
    """A distribution or kernel specification is invalid or unsupported here."""


class UnsupportedDimensionError(DomainError):
    """The ambient dimension is outside the supported range for this operation."""


class ScaleError(MswError):
    """The input exceeds the supported desk scale of an exact algorithm."""


class NumericError(MswError):
    """A numeric evaluation failed (overflow, non-finite quantile, ...)."""


class ConfigError(MswError, ValueError):
    """An experiment configuration is inconsistent or incomplete."""


def check_order(p, error=DomainError) -> None:
    """Raise error unless the order p is finite and at least 1."""
    if not 1.0 <= p < float("inf"):
        raise error(f"order p must be finite and >= 1, got {p}")


def check_vs_truth_order(p, error=DomainError) -> None:
    """Raise error unless p is 2, the one order of msw's distance to a Gaussian law."""
    check_order(p, error)
    if p != 2.0:
        raise error(f"the distance to a Gaussian law is computed at p = 2 only, got {p}")
