"""Exception types shared across the package."""


class GouestError(Exception):
    """Base class for all package-specific errors."""


class PoleError(GouestError):
    """Evaluation requested at a pole of the function."""


class TruncationError(GouestError):
    """A series sampler hit its term cap before reaching the tail tolerance."""


class DomainError(GouestError):
    """Argument outside the mathematical domain of the operation."""
