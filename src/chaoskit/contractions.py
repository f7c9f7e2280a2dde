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

The array routines take flat coefficient arrays of either numeric mode
(object arrays of Fraction or float64 arrays) and run the same numpy calls
on both; the measure factor 1/m^r is a plain division, exact on Fractions.
Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import numpy as np

from .config import check_axes, check_entries
from .errors import InvalidInputError
from .kernels import GridKernel, _require_compatible, symmetrize


def contract_arrays_classical(fa: np.ndarray, p: int, ga: np.ndarray, q: int,
                              r: int, m: int) -> np.ndarray:
    """Flat coefficient array of the classical contraction (no scales)."""
    check_entries(m, p + q - 2 * r)
    a = fa.reshape(m ** (p - r), m**r)
    b = ga.reshape(m ** (q - r), m**r)
    out = np.dot(a, b.T).reshape(-1)
    # r == 0 skips the division: dividing by 1 would rebuild every Fraction
    return out / m**r if r else out


def contract_arrays_free(fa: np.ndarray, p: int, ga: np.ndarray, q: int,
                         r: int, m: int) -> np.ndarray:
    """Flat coefficient array of the free contraction (no scales)."""
    check_entries(m, p + q - 2 * r)
    a = fa.reshape(m ** (p - r), m**r)
    if r == 0:
        return np.dot(a, ga.reshape(1, -1)).reshape(-1)
    # g's axis 0 holds s_r, ..., axis r-1 holds s_1: reverse so the
    # flattened contracted index matches f's (s_1 slowest).
    perm = tuple(reversed(range(r))) + tuple(range(r, q))
    b = ga.reshape(check_axes(m, q)).transpose(perm).reshape(m**r, m ** (q - r))
    return np.dot(a, b).reshape(-1) / m**r


def tensor_product_arrays(arrs: list[np.ndarray], orders: list[int],
                          m: int) -> np.ndarray:
    """Flat array of arrs[0] ox arrs[1] ox ... (slot order preserved)."""
    total = sum(orders)
    check_entries(m, total)
    out = arrs[0].reshape(-1)
    for nxt in arrs[1:]:
        out = (out[:, None] * nxt.reshape(-1)[None, :]).reshape(-1)
    return out


def multi_contract(core: np.ndarray, p: int, parts: list[tuple[np.ndarray, int, int]],
                   m: int) -> tuple[np.ndarray, int]:
    """Contract several tensors against distinct slot blocks of one core.

    `parts` is a list of (array, order, r_i) with r_i >= 1 and sum r_i <= p;
    part i gives its last r_i slots to r_i distinct slots of the core.
    Returns (flat array, order); slot order is [parts reversed free slots...,
    core free slots], which callers symmetrize anyway.
    """
    used = sum(r for _, _, r in parts)
    if used > p:
        raise InvalidInputError("multi_contract: parts over-consume the core")
    out_order = p + sum(o - r for _, o, r in parts) - used
    check_entries(m, out_order)
    x = core.reshape(check_axes(m, p))
    for arr, o, r in parts:
        g = arr.reshape(check_axes(m, o))
        check_axes(m, o + x.ndim - 2 * r)  # axes of the tensordot result
        axes_g = list(range(o - r, o))
        axes_x = list(range(x.ndim - r, x.ndim))
        x = np.tensordot(g, x, axes=(axes_g, axes_x)) / m**r
    # a full contraction leaves a bare scalar; reshape makes it length 1
    return np.reshape(x, -1), out_order


def _contract(contract_arrays, f: GridKernel, g: GridKernel, r: int) -> GridKernel:
    """Kernel-level contraction through one of the array routines above."""
    _require_compatible(f, g, same_order=False)
    if r < 0 or r > min(f.order, g.order):
        raise InvalidInputError(
            f"contraction rank r={r} out of range 0..{min(f.order, g.order)}"
        )
    arr = contract_arrays(f.coeffs, f.order, g.coeffs, g.order, r, f.resolution)
    return GridKernel(
        f.order + g.order - 2 * r,
        f.resolution,
        f.mode,
        arr,
        f.scale_sq * g.scale_sq,
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
