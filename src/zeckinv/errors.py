"""Exception hierarchy shared by all zeckinv modules."""

__all__ = [
    "ZeckinvError",
    "DomainError",
    "NotCoprime",
    "InvalidRep",
    "PreconditionError",
    "SynthesisError",
    "InternalInvariantViolation",
]


class ZeckinvError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ZeckinvError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NotCoprime(ZeckinvError):
    """A modular inverse was requested for non-coprime arguments.

    Carries the offending gcd as a witness in ``self.gcd``.
    """

    def __init__(self, gcd: int, message: str | None = None):
        self.gcd = gcd
        super().__init__(message or f"arguments are not coprime (gcd = {gcd})")


class InvalidRep(ZeckinvError, ValueError):
    """A Zeckendorf index set violates its invariants."""


class PreconditionError(ZeckinvError, ValueError):
    """A stated hypothesis of an operation does not hold for the inputs."""


class SynthesisError(ZeckinvError):
    """Pattern synthesis hit a state that should be mathematically impossible."""


class InternalInvariantViolation(ZeckinvError):
    """An internal consistency assertion failed; indicates a bug, not bad input."""
