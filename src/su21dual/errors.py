"""Exception types shared across the package."""


class Su21Error(Exception):
    """Base class for every error raised by this package."""


class DegenerateInput(Su21Error):
    """An operation received an input outside its domain, e.g. division by zero."""


class InvalidParameter(Su21Error):
    """A parameter violates a structural constraint (parity, range, positivity)."""


class EmptyTruncation(Su21Error):
    """The truncation bound lies below the dimension of the lowest K-type."""


class InvalidBasisIndex(Su21Error):
    """A vector refers to a basis index outside the truncated module."""


class InconsistentGauge(Su21Error):
    """Two norm-recursion paths disagree, so the coefficient table is corrupt."""
