"""Exception types shared across the package."""


class AmsalError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(AmsalError):
    """An argument violates a documented precondition (shape, finiteness, range)."""


class InfeasibleBounds(AmsalError):
    """The per-record count bounds admit no total assignment."""


class FormatError(AmsalError):
    """A file does not conform to one of the supported on-disk formats."""
