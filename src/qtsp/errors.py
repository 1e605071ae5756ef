"""Exception types shared across the package."""


class QtspError(Exception):
    """Base class for all qtsp errors."""


class InvalidInstanceError(QtspError):
    """Distance matrix or city count violates the instance invariants."""


class InvalidTourError(QtspError, ValueError):
    """A batch of tour labels has the wrong shape, a label that is no integer
    in 1..N, or, where tours are asked for, a row that is no permutation."""


class SizeLimitError(QtspError):
    """Problem size exceeds the guard for an exponential/factorial routine."""
