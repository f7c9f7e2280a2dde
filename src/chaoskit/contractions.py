"""Contractions of grid step kernels.

The classical contraction pairs the last r slots of f with the last r slots
of g; the free contraction pairs the last r slots of f with the first r
slots of g in reversed order:

    (f ox_r g)[T1, T2] = (1/m^r) sum_S f[T1, S] g[T2, S]
    (f fr_r g)[T1, T2] = (1/m^r) sum_S f[T1, S] g[reverse(S), T2]

T1 is the first p-r free slots of f and T2 the remaining free slots of g.
r = 0 is the tensor product; r = p = q collapses to an inner product.
Both accept general (not necessarily symmetric) kernels: the grid formula
is well-defined regardless, and iterated moment expansions need the
intermediate non-symmetric tensors.

Every array routine is one 2-D product over trailing slots (`_dot`), the
free contraction after moving g's contracted slots last, so each result is
checked against the entry budget before it is built, and its int64
operands become Python ints where a sum could overflow (`kernels._widen`).
The chain evaluator folds several blocks into f one routine call at a time
(`moments._Chain.fuse`), so every intermediate passes the same check.
Only the free contraction reshapes a kernel to one axis per slot.  Flat
arrays of either numeric mode go through the same numpy calls.  The
results are raw sums without the measure factor 1/m^r, which the
kernel-level contractions and the chain evaluator fold into a rational
factor (see kernels.py).
"""

from __future__ import annotations

import numpy as np

from .config import check_axes, check_entries
from .errors import InvalidInputError
from .kernels import GridKernel, _require_compatible, _widen, symmetrize


def _dot(fa: np.ndarray, p: int, ga: np.ndarray, q: int, r: int, m: int) -> np.ndarray:
    """Flat raw sums sum_S f[T1, S] g[T2, S] over the last r slots of both
    (rows T1, columns T2), checked against the budget before they exist."""
    check_entries(m, p + q - 2 * r)
    a, b = _widen(m**r, fa.reshape(-1, m**r), ga.reshape(-1, m**r))
    with np.errstate(over="ignore", invalid="ignore"):  # a float past binary64: +-inf
        return np.dot(a, b.T).reshape(-1)


def contract_arrays_classical(fa: np.ndarray, p: int, ga: np.ndarray, q: int,
                              r: int, m: int) -> np.ndarray:
    """Flat array of the classical contraction sums (no measure factor)."""
    return _dot(fa, p, ga, q, r, m)


def contract_arrays_free(fa: np.ndarray, p: int, ga: np.ndarray, q: int,
                         r: int, m: int) -> np.ndarray:
    """Flat array of the free contraction sums (no measure factor)."""
    if r > 1:
        # g's axis 0 holds s_r, ..., axis r-1 holds s_1: reverse so the
        # flattened contracted index matches f's (s_1 slowest).
        perm = tuple(reversed(range(r))) + tuple(range(r, q))
        ga = ga.reshape(check_axes(m, q)).transpose(perm)
    # _dot transposes this view back: np.dot sees the (m^r, m^(q-r)) operand
    return _dot(fa, p, ga.reshape(m**r, -1).T, q, r, m)


def _contract(contract_arrays, f: GridKernel, g: GridKernel, r: int) -> GridKernel:
    """Kernel-level contraction through one of the array routines above."""
    _require_compatible(f, g, same_order=False)
    if r < 0 or r > min(f.order, g.order):
        raise InvalidInputError(
            f"contraction rank r={r} out of range 0..{min(f.order, g.order)}"
        )
    m = f.resolution
    arr = contract_arrays(f.nums, f.order, g.nums, g.order, r, m)
    return GridKernel(f.order + g.order - 2 * r, m, f.mode, arr,
                      f.scale_sq * g.scale_sq, f.factor * g.factor / m**r)


def contract_classical(f: GridKernel, g: GridKernel, r: int) -> GridKernel:
    """f ox_r g, of order p + q - 2r."""
    return _contract(contract_arrays_classical, f, g, r)


def contract_classical_sym(f: GridKernel, g: GridKernel, r: int) -> GridKernel:
    """Symmetrized classical contraction."""
    return symmetrize(contract_classical(f, g, r))


def contract_free(f: GridKernel, g: GridKernel, r: int) -> GridKernel:
    """f fr_r g: g's contracted slots come first and reversed."""
    return _contract(contract_arrays_free, f, g, r)
