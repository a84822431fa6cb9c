"""Exception hierarchy shared across the toolkit.

Two families matter to callers: ``UsageError`` (bad request: wrong scheme for
the table shape, unknown subject, malformed config) and ``DataError`` (the
data itself cannot be analyzed). The CLI maps them to exit codes 1 and 2.
"""


class TaylorLawError(Exception):
    """Base class for all toolkit errors."""


class UsageError(TaylorLawError):
    """The request is malformed or incompatible with the data."""


class DataError(TaylorLawError):
    """The data cannot be parsed or analyzed as requested."""


class ParseError(DataError):
    """Input text does not conform to the expected CSV layout."""


class InsufficientDataError(DataError):
    """Too few usable observations for the requested computation."""


class DegenerateDesignError(DataError):
    """The data admits no unique solution (e.g. all predictors equal)."""


class DomainError(DataError):
    """An argument lies outside the mathematical domain of the operation."""


def fresh_copy(error: DataError) -> DataError:
    """A new error of the same type and arguments as a stored ``error``.

    Code that keeps errors to raise later (one per row of a block fit, one
    per species of a table fit) raises this copy. A raised error holds its
    traceback, whose frames hold the store that holds the error: a
    reference cycle that only the cyclic garbage collector frees.
    """
    return type(error)(*error.args)
