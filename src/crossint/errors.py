"""Exception taxonomy shared by every module.

Four failure modes are kept apart so callers (and the CLI exit-code table) can
react differently to each:

* bad input that a caller could have avoided,
  such as a resumed stream that is not the grid
  its flags give                                  -> UsageError
* parameters outside a function's proven domain   -> DomainError
* instance too large for the configured caps      -> CapacityError
* two independent computations of the same value
  disagreeing (a bug, never a math fact)          -> IntegrityError
"""

from __future__ import annotations


class CrossIntError(Exception):
    """Base class for all toolkit errors."""


class UsageError(CrossIntError, ValueError):
    """Malformed or inconsistent arguments (mismatched ground sets, bad text)."""


class DomainError(CrossIntError, ValueError):
    """Parameters violate a documented precondition of the underlying theory."""


class CapacityError(CrossIntError):
    """Instance exceeds an enumeration cap.

    ``partial_best`` may carry the best result found before the cap was hit.
    """

    def __init__(self, message: str, partial_best=None):
        super().__init__(message)
        self.partial_best = partial_best


class IntegrityError(CrossIntError):
    """Two routes to the same exact value disagreed; indicates a defect."""


class OutOfScopeError(DomainError):
    """Parameters are valid but outside the regime the operation classifies."""
