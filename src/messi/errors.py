"""Exception hierarchy shared by all messi modules."""


class MessiError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(MessiError, ValueError):
    """An argument violates an operation's preconditions (bad rank, shape, id, ...)."""


class InputError(MessiError, ValueError):
    """Input data is unusable (non-finite entries and the like)."""


class FormatError(MessiError, ValueError):
    """An on-disk artifact does not conform to its declared format."""
