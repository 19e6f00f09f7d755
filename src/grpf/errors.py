"""Shared exception types.

Domain violations raise subclasses of ValueError so that callers (and the
command line front end) can distinguish bad input (usage errors) from
mathematical verification failures, which are reported through result
objects rather than exceptions.
"""


class InvalidRankError(ValueError):
    """A rank parameter lies outside the supported range."""


class DominanceError(ValueError):
    """A weight vector is not weakly decreasing where it must be."""


class ParityError(ValueError):
    """A matrix-size parity requirement is violated."""


class DegenerateFamilyError(ValueError):
    """A family of 2-forms fails the required surjectivity."""


class IntegrityError(RuntimeError):
    """An internal consistency check failed; indicates a bug upstream."""
