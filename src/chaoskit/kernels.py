"""Step-function kernels on the unit cube.

A :class:`GridKernel` is a function on [0,1]^p that is constant on each cell
of the uniform m x ... x m grid.  Coefficients are stored flat in row-major
order over index tuples (i_1, ..., i_p) in {1..m}^p; cell (i_1, ..., i_p)
covers prod_j [(i_j-1)/m, i_j/m), so every cell has measure 1/m^p.

Two numeric modes exist and never mix inside one computation.  The mode
fixes only the scalar type: every array routine of the package runs the
same numpy calls on either, and this module alone turns a mode into
numbers (coefficient coercion, `as_scalar`, `scaled_scalar`, JSON).

``exact``
    coefficients are :class:`fractions.Fraction` in object arrays; all
    identities hold as equalities of rationals.  Normalizations whose
    scale is irrational (e.g. 1/sqrt(2)) are carried by the ``scale_sq``
    field: the kernel represented is sqrt(scale_sq) * coeffs, with
    ``scale_sq`` rational.  Every quantity of even homogeneity degree
    therefore stays rational.

``float``
    coefficients are binary64 (float64 arrays); scales are folded into the
    coefficients at construction time and ``scale_sq`` is identically 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

import numpy as np

from .config import check_axes, check_entries
from .errors import InvalidInputError, PreconditionError

Scalar = Union[Fraction, float]

MODELS = ("classical", "free")
MODES = ("exact", "float")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def exact_sqrt(q: Fraction) -> Optional[Fraction]:
    """Square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    if q == 0:
        return _ZERO
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def as_scalar(x, mode: str) -> Scalar:
    """The rational x as a scalar of the given mode."""
    return float(x) if mode == "float" else Fraction(x)


def scaled_scalar(raw: Scalar, scale_sq: Fraction, half_power: int, mode: str) -> Scalar:
    """Return raw * scale_sq**(half_power/2), exactly when representable.

    Chains of j kernel factors pick up the factor sqrt(scale_sq)**j; even j
    is always rational, odd j degrades to float unless raw vanishes or
    scale_sq is a perfect square.
    """
    if raw == 0:
        return as_scalar(0, mode)
    if mode == "float":
        return float(raw) * float(scale_sq) ** (half_power / 2.0)
    rad = scale_sq**half_power
    root = exact_sqrt(rad)
    if root is not None:
        return raw * root
    return float(raw) * math.sqrt(float(rad))


@lru_cache(maxsize=256)
def _digit_matrix(m: int, p: int) -> np.ndarray:
    """(m**p, p) matrix of index digits, row-major (last digit fastest)."""
    idx = np.arange(m**p, dtype=np.int64)
    digits = np.empty((m**p, p), dtype=np.int64)
    for j in range(p):
        digits[:, j] = (idx // m ** (p - 1 - j)) % m
    digits.setflags(write=False)
    return digits


def _coerce_coeffs(values: Iterable, mode: str) -> np.ndarray:
    values = list(values)
    if mode == "float":
        arr = np.asarray(values, dtype=np.float64)
        if arr.size and not np.all(np.isfinite(arr)):
            raise InvalidInputError("float kernels must have finite coefficients")
        return arr
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        if isinstance(v, Fraction):
            out[i] = v
        elif isinstance(v, (int, np.integer)):
            out[i] = Fraction(int(v))
        elif isinstance(v, str):
            out[i] = Fraction(v)
        elif isinstance(v, float):
            if not math.isfinite(v):
                raise InvalidInputError("exact kernels must have finite coefficients")
            out[i] = Fraction(v)
        else:
            raise InvalidInputError(f"cannot coerce {v!r} to an exact coefficient")
    return out


@dataclass(frozen=True, eq=False)
class GridKernel:
    """Immutable step kernel; safe to share across threads."""

    order: int
    resolution: int
    mode: str
    coeffs: np.ndarray
    scale_sq: Fraction = field(default=_ONE)

    @property
    def array(self) -> np.ndarray:
        """Coefficients reshaped to (m,)*p (a view; treat as read-only)."""
        return self.coeffs.reshape(check_axes(self.resolution, self.order))

    @property
    def n_entries(self) -> int:
        return self.coeffs.size

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs.flat)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridKernel):
            return NotImplemented
        return (
            self.order == other.order
            and self.resolution == other.resolution
            and self.mode == other.mode
            and self.scale_sq == other.scale_sq
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __repr__(self) -> str:
        return (
            f"GridKernel(p={self.order}, m={self.resolution}, mode={self.mode!r}, "
            f"scale_sq={self.scale_sq}, {self.n_entries} coeffs)"
        )


def new_kernel(p: int, m: int, coeffs: Iterable, mode: str = "exact",
               scale_sq: Fraction | int | str = 1) -> GridKernel:
    """Build a kernel from flat row-major coefficients.

    Raises InvalidInputError on a length mismatch or non-finite entry and
    BudgetExceededError when m**p, or the order itself, exceeds the entry
    budget.
    """
    if mode not in MODES:
        raise InvalidInputError(f"unknown mode {mode!r}")
    if p < 0:
        raise InvalidInputError("kernel order must be >= 0")
    if m < 1:
        raise InvalidInputError("grid resolution must be >= 1")
    # an m = 1 kernel has one coefficient, but its digit table and p! still
    # grow with p
    check_entries(m, p, rows=p if m == 1 else 1)
    arr = _coerce_coeffs(coeffs, mode)
    if arr.size != m**p:
        raise InvalidInputError(
            f"expected {m**p} coefficients for p={p}, m={m}, got {arr.size}"
        )
    sq = Fraction(scale_sq)
    if sq <= 0:
        raise InvalidInputError("scale_sq must be positive")
    if mode == "float" and sq != 1:
        arr, sq = arr * math.sqrt(float(sq)), _ONE
    return GridKernel(p, m, mode, arr, sq)


def constant_kernel(p: int, m: int, value=1, mode: str = "exact") -> GridKernel:
    return new_kernel(p, m, [value] * (m**p), mode=mode)


def _require_compatible(f: GridKernel, g: GridKernel, same_order: bool = True) -> None:
    if same_order and f.order != g.order:
        raise InvalidInputError(f"order mismatch: {f.order} != {g.order}")
    if f.resolution != g.resolution:
        raise InvalidInputError(
            f"resolution mismatch: {f.resolution} != {g.resolution}"
        )
    if f.mode != g.mode:
        raise InvalidInputError(f"mode mismatch: {f.mode} != {g.mode}")


def l2_inner(f: GridKernel, g: GridKernel) -> Scalar:
    """L2 inner product on [0,1]^p: (1/m^p) * sum_I a_I b_I, scales included."""
    _require_compatible(f, g)
    raw = as_scalar(np.dot(f.coeffs, g.coeffs), f.mode) / f.resolution**f.order
    rad = f.scale_sq * g.scale_sq
    root = exact_sqrt(rad)
    if root is not None:
        return raw * root
    if raw == 0:
        return _ZERO
    raise InvalidInputError(
        "inner product of kernels with incompatible exact scales is "
        "irrational; fold scales or use float mode"
    )


def l2_norm_sq(f: GridKernel) -> Scalar:
    return l2_inner(f, f)


@lru_cache(maxsize=256)
def _multisets(m: int, p: int) -> np.ndarray:
    """The rows of _digit_matrix sorted: each cell's index multiset."""
    rows = np.sort(_digit_matrix(m, p), axis=1)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=256)
def _orbits(m: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbit id of every cell under argument permutations (cells with the
    same index multiset share an id) and the size of each orbit."""
    keys = _multisets(m, p) @ (m ** np.arange(p - 1, -1, -1, dtype=np.int64))
    _, ids, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    ids.setflags(write=False)
    sizes.setflags(write=False)
    return ids, sizes


def _sym_array(arr: np.ndarray, p: int, m: int) -> np.ndarray:
    """Symmetrize by orbit accumulation: each coefficient becomes the mean of
    its value over all arrangements of its index multiset."""
    if p <= 1 or m == 1:  # one cell per orbit
        return arr.copy()
    ids, sizes = _orbits(m, p)
    sums = np.zeros(sizes.size, dtype=arr.dtype)
    np.add.at(sums, ids, arr)
    return (sums / sizes)[ids]


def symmetrize(f: GridKernel) -> GridKernel:
    """Average f over all argument permutations (idempotent, linear)."""
    return GridKernel(
        f.order,
        f.resolution,
        f.mode,
        _sym_array(f.coeffs, f.order, f.resolution),
        f.scale_sq,
    )


def _adjoint_array(arr: np.ndarray, p: int, m: int) -> np.ndarray:
    if p <= 1 or m == 1:  # reversing the slots moves no cell
        return arr.copy()
    return (
        arr.reshape(check_axes(m, p))
        .transpose(tuple(reversed(range(p))))
        .reshape(-1)
        .copy()
    )


def adjoint(f: GridKernel) -> GridKernel:
    """Mirror adjoint: b_(i_1,...,i_p) = a_(i_p,...,i_1)."""
    return GridKernel(
        f.order,
        f.resolution,
        f.mode,
        _adjoint_array(f.coeffs, f.order, f.resolution),
        f.scale_sq,
    )


def is_symmetric(f: GridKernel) -> bool:
    return bool(
        np.array_equal(
            f.coeffs, _sym_array(f.coeffs, f.order, f.resolution)
        )
    )


def is_mirror_symmetric(f: GridKernel) -> bool:
    return bool(
        np.array_equal(f.coeffs, _adjoint_array(f.coeffs, f.order, f.resolution))
    )


def _repeated_digit_mask(m: int, p: int) -> np.ndarray:
    """Flat mask of the cells whose index tuple repeats a digit."""
    rows = _multisets(m, p)
    return np.any(rows[:, 1:] == rows[:, :-1], axis=1)


def is_off_diagonal(f: GridKernel) -> bool:
    """True when f vanishes on every cell with a repeated index."""
    if f.order < 2:
        return True
    return not np.any(f.coeffs[_repeated_digit_mask(f.resolution, f.order)] != 0)


def off_diagonal_part(f: GridKernel) -> GridKernel:
    """Zero out every diagonal-touching cell."""
    if f.order < 2:
        return f
    arr = f.coeffs.copy()
    arr[_repeated_digit_mask(f.resolution, f.order)] = as_scalar(0, f.mode)
    return GridKernel(f.order, f.resolution, f.mode, arr, f.scale_sq)


def scale(f: GridKernel, c) -> GridKernel:
    """Multiply the kernel by a scalar (exact mode: c must be rational)."""
    c = as_scalar(c, f.mode)
    return GridKernel(f.order, f.resolution, f.mode, f.coeffs * c, f.scale_sq)


def fold_scale(f: GridKernel) -> GridKernel:
    """Push scale_sq into the coefficients; exact mode requires it to be a
    perfect rational square."""
    if f.scale_sq == 1:
        return f
    root = exact_sqrt(f.scale_sq)
    if root is None:
        raise InvalidInputError(
            f"scale_sq={f.scale_sq} has no rational square root; use float mode"
        )
    return GridKernel(f.order, f.resolution, f.mode, f.coeffs * root, _ONE)


def add(f: GridKernel, g: GridKernel) -> GridKernel:
    _require_compatible(f, g)
    if f.scale_sq == g.scale_sq:
        return GridKernel(f.order, f.resolution, f.mode, f.coeffs + g.coeffs, f.scale_sq)
    f2, g2 = fold_scale(f), fold_scale(g)
    return GridKernel(f.order, f.resolution, f.mode, f2.coeffs + g2.coeffs, _ONE)


def as_float(f: GridKernel) -> GridKernel:
    """Float-mode copy with the exact scale folded in."""
    if f.mode == "float":
        return f
    arr = np.array([float(c) for c in f.coeffs], dtype=np.float64)
    arr *= math.sqrt(float(f.scale_sq))
    return GridKernel(f.order, f.resolution, "float", arr, _ONE)


def normalize_variance(f: GridKernel, model: str) -> GridKernel:
    """Rescale so the order-p integral of the kernel has unit variance.

    classical: returns c * symmetrize(f) with p! * ||c f~||^2 = 1.
    free:      returns c * f with <c f, (c f)*> = 1; requires <f, f*> > 0.

    In exact mode the (generally irrational) scale c is carried by scale_sq.
    """
    if model not in MODELS:
        raise InvalidInputError(f"unknown model {model!r}")
    if f.is_zero():
        raise PreconditionError("cannot normalize the zero kernel")
    if model == "classical":
        f = symmetrize(f)
        v = math.factorial(f.order) * l2_norm_sq(f)
        if v == 0:
            raise PreconditionError("cannot normalize: symmetrization vanishes")
    else:
        v = l2_inner(f, adjoint(f))
        if v <= 0:
            raise PreconditionError(
                f"free normalization requires <f, f*> > 0, got {v}"
            )
    if f.mode == "float":
        return GridKernel(f.order, f.resolution, f.mode, f.coeffs / math.sqrt(v), _ONE)
    return GridKernel(f.order, f.resolution, f.mode, f.coeffs, f.scale_sq / v)


def refine(f: GridKernel, factor: int) -> GridKernel:
    """Split every axis into `factor` sub-cells; the represented function is
    unchanged (each coefficient replicated over factor**p sub-cells)."""
    if factor < 1:
        raise InvalidInputError("refinement factor must be >= 1")
    if factor == 1:
        return f
    m2 = f.resolution * factor
    check_entries(m2, f.order)
    arr = f.array
    for axis in range(f.order):
        arr = np.repeat(arr, factor, axis=axis)
    return GridKernel(f.order, m2, f.mode, arr.reshape(-1), f.scale_sq)


def family_kernel(name: str, *, n: int | None = None, p: int | None = None,
                  model: str | None = None, mode: str = "exact") -> GridKernel:
    """Named test families.

    pair_clt(n): order-2 kernel at m=2n supported on the paired cells
    {(2i-1, 2i), (2i, 2i-1)}, normalized for `model`; the classical law is a
    normalized sum of n i.i.d. products of two independent standard normals.

    constant_hermite(p): the constant kernel 1 on [0,1]^p at m=1.
    """
    if name == "pair_clt":
        if n is None or n < 1:
            raise InvalidInputError("pair_clt requires n >= 1")
        if model not in MODELS:
            raise InvalidInputError("pair_clt requires a model")
        m = 2 * n
        coeffs = [0] * (m * m)
        for i in range(n):
            a, b = 2 * i, 2 * i + 1
            coeffs[a * m + b] = 1
            coeffs[b * m + a] = 1
        sq = n if model == "classical" else 2 * n
        return new_kernel(2, m, coeffs, mode=mode, scale_sq=sq)
    if name == "constant_hermite":
        if p is None or p < 1:
            raise InvalidInputError("constant_hermite requires p >= 1")
        return constant_kernel(p, 1, 1, mode=mode)
    raise InvalidInputError(f"unknown kernel family {name!r}")


# --- JSON interchange -----------------------------------------------------
#
# {"model": "classical"|"free"|null, "p": int, "m": int,
#  "mode": "exact"|"float", "coeffs": [...],  # exact mode: "num/den" strings
#  "scale_sq": "num/den"}                     # optional, exact mode only


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def to_json_dict(f: GridKernel, model: str | None = None) -> dict:
    if model is not None and model not in MODELS:
        raise InvalidInputError(f"unknown model {model!r}")
    d: dict = {
        "model": model,
        "p": f.order,
        "m": f.resolution,
        "mode": f.mode,
    }
    if f.mode == "exact":
        d["coeffs"] = [_frac_str(c) for c in f.coeffs]
        if f.scale_sq != 1:
            d["scale_sq"] = _frac_str(f.scale_sq)
    else:
        d["coeffs"] = [float(c) for c in f.coeffs]
    return d


def from_json_dict(d: dict) -> tuple[GridKernel, str | None]:
    try:
        p, m, mode, coeffs = d["p"], d["m"], d["mode"], d["coeffs"]
    except KeyError as exc:
        raise InvalidInputError(f"malformed kernel JSON: missing {exc}") from exc
    for name, value in (("p", p), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidInputError(
                f"kernel JSON {name!r} must be an integer, got {value!r}"
            )
    if not isinstance(coeffs, list):
        raise InvalidInputError(
            f"kernel JSON 'coeffs' must be a list, got {type(coeffs).__name__}"
        )
    model = d.get("model")
    if model is not None and model not in MODELS:
        raise InvalidInputError(f"unknown model {model!r} in kernel JSON")
    try:
        kern = new_kernel(p, m, coeffs, mode=mode, scale_sq=d.get("scale_sq", 1))
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        if isinstance(exc, InvalidInputError):
            raise
        raise InvalidInputError(f"malformed kernel JSON: {exc}") from exc
    return kern, model


def kernel_to_json(f: GridKernel, model: str | None = None) -> str:
    return json.dumps(to_json_dict(f, model))


def kernel_from_json(text: str) -> tuple[GridKernel, str | None]:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"invalid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise InvalidInputError("kernel JSON must be an object")
    return from_json_dict(d)
