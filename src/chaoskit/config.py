"""Process-wide knobs: the dense-tensor entry budget and the thread cap.

Intermediate tensors in k-th moment expansions can reach order ~kp/2+p,
so every routine that materializes a dense array checks the budget first
and fails loudly instead of thrashing memory.  numpy's cap on the number
of array axes is a second, fixed size limit (`check_axes`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from .errors import BudgetExceededError, InvalidInputError

DEFAULT_ENTRY_BUDGET = 10_000_000

# numpy's maximum number of array dimensions (NPY_MAXDIMS)
MAX_AXES = 64 if int(np.__version__.split(".")[0]) >= 2 else 32

_entry_budget = DEFAULT_ENTRY_BUDGET
_thread_count: int | None = None


def entry_budget() -> int:
    return _entry_budget


def set_entry_budget(n: int) -> None:
    global _entry_budget
    if n < 1:
        raise InvalidInputError(f"entry budget must be positive, got {n}")
    _entry_budget = int(n)


@contextmanager
def budget(n: int):
    """Temporarily override the entry budget."""
    global _entry_budget
    old = _entry_budget
    set_entry_budget(n)
    try:
        yield
    finally:
        _entry_budget = old


def check_entries(m: int, order: int, rows: int = 1) -> int:
    """Return rows * m**order after verifying it fits in the budget.

    The power is capped at the budget's bit length: for m >= 2 that capped
    power already passes the budget, so a huge order never builds a huge
    int, and the error reports the capped product as a lower bound.
    """
    capped = min(order, _entry_budget.bit_length())
    entries = rows * m**capped
    if entries > _entry_budget:
        raise BudgetExceededError(
            order, entries, _entry_budget,
            f"tensor of order {order} needs {'at least ' if capped < order else ''}"
            f"{entries} entries, exceeding the budget of {_entry_budget}",
        )
    return entries


def check_axes(m: int, order: int) -> tuple[int, ...]:
    """Return the shape (m,) * order after verifying numpy can hold that
    many axes; call it before reshaping an array to one axis per slot."""
    if order > MAX_AXES:
        raise BudgetExceededError(
            order, order, MAX_AXES,
            f"tensor of order {order} needs one axis per slot, exceeding "
            f"numpy's cap of {MAX_AXES} axes",
        )
    return (m,) * order


def thread_count() -> int:
    """Worker cap for parallel sections; CHAOSKIT_THREADS is the fallback."""
    if _thread_count is not None:
        return _thread_count
    env = os.environ.get("CHAOSKIT_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def thread_override() -> int | None:
    """The cap set by set_thread_count, or None when CHAOSKIT_THREADS rules."""
    return _thread_count


def set_thread_count(n: int | None) -> None:
    global _thread_count
    _thread_count = None if n is None else max(1, int(n))
