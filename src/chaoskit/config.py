"""Scoped knobs: the dense-tensor entry budget and the thread cap.

Intermediate tensors in k-th moment expansions can reach order ~kp/2+p,
so every routine that materializes a dense array, each contraction step
included, checks the budget first and fails loudly instead of thrashing
memory.  numpy's cap on array axes is a second, fixed limit (`check_axes`)
on the order of a kernel reshaped to one axis per slot.

Both knobs are context variables: a setting holds in the context that made
it, `budget()` undoes exactly its own, and new threads start from the
defaults.  The CLI runs each command in a copied context, so `--budget` and
`--threads` end with the command.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar, Token

import numpy as np

from .errors import BudgetExceededError, InvalidInputError

DEFAULT_ENTRY_BUDGET = 10_000_000

# numpy's maximum number of array dimensions (NPY_MAXDIMS)
MAX_AXES = 64 if int(np.__version__.split(".")[0]) >= 2 else 32

_entry_budget: ContextVar[int] = ContextVar("entry_budget", default=DEFAULT_ENTRY_BUDGET)
_thread_count: ContextVar[int | None] = ContextVar("thread_count", default=None)


def entry_budget() -> int:
    return _entry_budget.get()


def set_entry_budget(n: int) -> Token:
    """Set the entry budget in the current context; the returned token
    resets it."""
    if n < 1:
        raise InvalidInputError(f"entry budget must be positive, got {n}")
    return _entry_budget.set(int(n))


@contextmanager
def budget(n: int):
    """Temporarily override the entry budget."""
    token = set_entry_budget(n)
    try:
        yield
    finally:
        _entry_budget.reset(token)


def check_entries(m: int, order: int, rows: int = 1, what: str | None = None) -> int:
    """Return rows * m**order after verifying it fits in the budget; the
    error names `what` (default: the tensor of that order).

    The power is capped at the budget's bit length: for m >= 2 that capped
    power already passes the budget, so a huge order never builds a huge
    int, and the error reports the capped product as a lower bound.
    """
    cap = _entry_budget.get()
    capped = min(order, cap.bit_length())
    entries = rows * m**capped
    if entries > cap:
        raise BudgetExceededError(
            order, entries, cap,
            f"{what or f'tensor of order {order}'} needs "
            f"{'at least ' if capped < order else ''}"
            f"{entries} entries, exceeding the budget of {cap}",
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
    override = _thread_count.get()
    if override is not None:
        return override
    env = os.environ.get("CHAOSKIT_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def thread_override() -> int | None:
    """The cap set by set_thread_count, or None when CHAOSKIT_THREADS rules."""
    return _thread_count.get()


def set_thread_count(n: int | None) -> None:
    _thread_count.set(None if n is None else max(1, int(n)))
