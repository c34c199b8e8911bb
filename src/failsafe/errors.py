"""Exception types shared across the package."""


class FailsafeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FailsafeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InsufficientDataError(FailsafeError, ValueError):
    """Too few studies for the requested computation."""


class DegenerateVarianceError(FailsafeError, ValueError):
    """A variance of zero makes the requested interval or test meaningless."""


class BelowThresholdError(FailsafeError, ValueError):
    """The combined z-score sits below the significance threshold, so the
    requested quantity is undefined."""


class IngestError(FailsafeError, ValueError):
    """Malformed input data file.  ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
