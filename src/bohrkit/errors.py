"""Exception hierarchy shared by all bohrkit modules."""


class BohrkitError(Exception):
    """Base class for all bohrkit errors."""


class DomainError(BohrkitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(BohrkitError, ValueError):
    """Inputs are individually valid but violate an operation's contract."""


class NumericalError(BohrkitError, RuntimeError):
    """A computation could not reach its certified accuracy target."""


class InconclusiveError(NumericalError):
    """Too few certified data points to support a conclusion."""
