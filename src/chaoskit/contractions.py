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

The array routines take flat numerator arrays of either numeric mode (exact
int64 or object-int numerators, or float64 coefficients) and run the same
numpy calls on both.  They return the raw sums, without the measure factor
1/m^r: the kernel-level contractions and the chain evaluator fold it into
the result's rational factor (see kernels.py), so exact contractions never
form a Fraction per entry.  Integer operands go through `kernels._widen`
first, which switches them to Python ints when int64 could overflow.
Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import numpy as np

from .config import check_axes, check_entries
from .errors import InvalidInputError
from .kernels import GridKernel, _require_compatible, _widen, symmetrize


def contract_arrays_classical(fa: np.ndarray, p: int, ga: np.ndarray, q: int,
                              r: int, m: int) -> np.ndarray:
    """Flat array of the classical contraction sums (no measure factor)."""
    check_entries(m, p + q - 2 * r)
    a, b = _widen(m**r, fa.reshape(m ** (p - r), m**r), ga.reshape(m ** (q - r), m**r))
    return np.dot(a, b.T).reshape(-1)


def contract_arrays_free(fa: np.ndarray, p: int, ga: np.ndarray, q: int,
                         r: int, m: int) -> np.ndarray:
    """Flat array of the free contraction sums (no measure factor)."""
    check_entries(m, p + q - 2 * r)
    a = fa.reshape(m ** (p - r), m**r)
    if r == 0:
        b = ga.reshape(1, -1)
    else:
        # g's axis 0 holds s_r, ..., axis r-1 holds s_1: reverse so the
        # flattened contracted index matches f's (s_1 slowest).
        perm = tuple(reversed(range(r))) + tuple(range(r, q))
        b = ga.reshape(check_axes(m, q)).transpose(perm).reshape(m**r, m ** (q - r))
    a, b = _widen(m**r, a, b)
    return np.dot(a, b).reshape(-1)


def tensor_product_arrays(arrs: list[np.ndarray], orders: list[int],
                          m: int) -> np.ndarray:
    """Flat array of arrs[0] ox arrs[1] ox ... (slot order preserved)."""
    total = sum(orders)
    check_entries(m, total)
    arrs = _widen(1, *arrs)
    out = arrs[0].reshape(-1)
    for nxt in arrs[1:]:
        out = (out[:, None] * nxt.reshape(-1)[None, :]).reshape(-1)
    return out


def multi_contract(core: np.ndarray, p: int, parts: list[tuple[np.ndarray, int, int]],
                   m: int) -> tuple[np.ndarray, int]:
    """Contract several tensors against distinct slot blocks of one core.

    `parts` is a list of (array, order, r_i) with r_i >= 1 and sum r_i <= p;
    part i gives its last r_i slots to r_i distinct slots of the core.
    Returns (flat array of raw sums, order), without the measure factor
    1/m^(sum r_i); slot order is [parts reversed free slots..., core free
    slots], which callers symmetrize anyway.
    """
    used = sum(r for _, _, r in parts)
    if used > p:
        raise InvalidInputError("multi_contract: parts over-consume the core")
    out_order = p + sum(o - r for _, o, r in parts) - used
    check_entries(m, out_order)
    core, *arrs = _widen(m**used, core, *(arr for arr, _, _ in parts))
    x = core.reshape(check_axes(m, p))
    for arr, (_, o, r) in zip(arrs, parts):
        g = arr.reshape(check_axes(m, o))
        check_axes(m, o + x.ndim - 2 * r)  # axes of the tensordot result
        axes_g = list(range(o - r, o))
        axes_x = list(range(x.ndim - r, x.ndim))
        x = np.tensordot(g, x, axes=(axes_g, axes_x))
    # a full contraction leaves a bare scalar; reshape makes it length 1
    return np.reshape(x, -1), out_order


def _contract(contract_arrays, f: GridKernel, g: GridKernel, r: int) -> GridKernel:
    """Kernel-level contraction through one of the array routines above."""
    _require_compatible(f, g, same_order=False)
    if r < 0 or r > min(f.order, g.order):
        raise InvalidInputError(
            f"contraction rank r={r} out of range 0..{min(f.order, g.order)}"
        )
    m = f.resolution
    arr = contract_arrays(f.nums, f.order, g.nums, g.order, r, m)
    return GridKernel(
        f.order + g.order - 2 * r,
        m,
        f.mode,
        arr,
        f.scale_sq * g.scale_sq,
        f.factor * g.factor / m**r,
    )


def contract_classical(f: GridKernel, g: GridKernel, r: int) -> GridKernel:
    """f ox_r g, of order p + q - 2r."""
    return _contract(contract_arrays_classical, f, g, r)


def contract_classical_sym(f: GridKernel, g: GridKernel, r: int) -> GridKernel:
    """Symmetrized classical contraction."""
    return symmetrize(contract_classical(f, g, r))


def contract_free(f: GridKernel, g: GridKernel, r: int) -> GridKernel:
    """f fr_r g: g's contracted slots come first and reversed."""
    return _contract(contract_arrays_free, f, g, r)
