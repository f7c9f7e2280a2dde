"""Exception hierarchy shared by all chaoskit modules.

The CLI maps these onto its exit-code contract:
invalid input -> 2, size budget -> 3, violated precondition -> 4.
"""


class ChaosKitError(Exception):
    """Base class for all chaoskit errors."""


class InvalidInputError(ChaosKitError, ValueError):
    """Malformed construction data: bad lengths, non-finite entries,
    unknown names, incompatible operands."""


class BudgetExceededError(ChaosKitError):
    """A computation would exceed the entry budget or numpy's cap on axes."""

    def __init__(self, order: int, entries: int, budget: int, message: str | None = None):
        self.order = order
        self.entries = entries
        self.budget = budget
        super().__init__(
            message
            or f"tensor of order {order} needs {entries} entries, "
            f"exceeding the budget of {budget}"
        )


class PreconditionError(ChaosKitError):
    """An operation's mathematical precondition does not hold
    (symmetry, mirror symmetry, normalization, positivity)."""
