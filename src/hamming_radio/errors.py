"""Exception types shared across the package.

The CLI maps them to exit codes by class: BudgetExceededError exits 3,
InvalidWitnessError propagates, and every other one exits 2.
"""


class RadioGraphError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(RadioGraphError, ValueError):
    """A graph spec is malformed (empty, non-increasing factor sizes, bad values)."""


class ShapeError(RadioGraphError, ValueError):
    """A vertex, row, column index or permutation has the wrong shape or range."""


class RepetitionError(RadioGraphError, ValueError):
    """An operation that needs pairwise-distinct rows was given a repeated row."""


class NotAtBoundaryError(RadioGraphError, ValueError):
    """The spec has no factor whose cumulative width sits at the forced-structure boundary."""


class MembershipError(RadioGraphError, ValueError):
    """An instruction column or generator violates its structural rules, or
    names no known generator kind."""


class UnsupportedSizeError(RadioGraphError, ValueError):
    """Instruction machinery is only defined for complete factors on 3+ vertices."""


class TooLargeError(RadioGraphError):
    """The requested enumeration exceeds its size cap (a module constant); the CLI exits 2."""


class BudgetExceededError(RadioGraphError):
    """An exhaustive enumeration would exceed instructions.ENUMERATION_CAP; the CLI exits 3."""


class DocumentError(RadioGraphError, ValueError):
    """An ordering or instruction file could not be parsed."""


class InvalidWitnessError(RadioGraphError):
    """A search produced an ordering that fails the window check (a defect in the search)."""
