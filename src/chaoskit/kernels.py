"""Step-function kernels on the unit cube.

A :class:`GridKernel` is a function on [0,1]^p that is constant on each cell
of the uniform m x ... x m grid.  Coefficients are stored flat in row-major
order over index tuples (i_1, ..., i_p) in {1..m}^p; cell (i_1, ..., i_p)
covers prod_j [(i_j-1)/m, i_j/m), so every cell has measure 1/m^p.

Two numeric modes exist and never mix inside one computation.  This module
alone turns a mode into numbers (coefficient coercion, `as_scalar`,
`scaled_scalar`, `_reduce`, `_widen`, JSON); every array routine of the
package runs the same numpy calls on either.

``exact``
    the coefficients are ``factor * nums``: one integer numerator array and
    one positive :class:`fractions.Fraction` that absorbs the common
    denominator and the 1/m^r measure factors of contractions.  `_reduce`
    divides the numerators by their gcd, so the pair is canonical and equal
    blocks have equal bytes.  Numerators are int64 when an a-priori bound
    shows that no sum can pass 2^63 - 1 (`_widen`; numpy integer arithmetic
    wraps silently), else object arrays of Python ints.  ``coeffs`` derives
    the Fraction coefficients on first use.  All identities hold as
    equalities of rationals.  Normalizations whose scale is irrational
    (e.g. 1/sqrt(2)) are carried by the ``scale_sq`` field: the kernel
    represented is sqrt(scale_sq) * coeffs, with ``scale_sq`` rational.
    Every quantity of even homogeneity degree therefore stays rational.

``float``
    ``nums`` holds the binary64 coefficients and ``factor`` is 1; scales are
    folded into the coefficients at construction time and ``scale_sq`` is
    identically 1.

Cells are decoded here once: `_orbits` groups them by index multiset;
symmetrization, the symmetry test, the diagonal mask and `_cell_plan`
(the Wick oracle's and the sampler's Hermite form) all read it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Union

import numpy as np

from .config import check_axes, check_entries
from .errors import BudgetExceededError, InvalidInputError, PreconditionError

Scalar = Union[Fraction, float]

MODELS = ("classical", "free")
MODES = ("exact", "float")

_ZERO = Fraction(0)
_ONE = Fraction(1)
_INT64_MAX = 2**63 - 1


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
    """The rational x as a scalar of the given mode; a float past the
    binary64 range is +-inf."""
    if mode == "exact":
        return Fraction(x)
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _times_root(x: Fraction, q: Fraction) -> float:
    """x * sqrt(q) in binary64, from the exact x^2 q scaled into range by a
    power of 4, so a tiny x never meets a huge sqrt(q) as 0 * inf; the sign
    is the rational's, and a result past binary64 is +-inf."""
    y = x * x * q
    e = (y.numerator.bit_length() - y.denominator.bit_length()) // 2
    try:
        v = math.ldexp(math.sqrt(y / Fraction(4) ** e), e)
    except OverflowError:
        v = math.inf
    return -v if x < 0 else v


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
    return _times_root(Fraction(raw), rad)


# --- the exact number format ------------------------------------------------


def _max_abs(a: np.ndarray) -> int:
    if a.dtype == object or a.size <= 64:  # small blocks: a list is faster
        return max(map(abs, a.reshape(-1).tolist()), default=0)
    return int(np.abs(a).max())


def _int_array(values: list) -> np.ndarray:
    """Python ints as int64 when they all fit, else as an object array."""
    fits = max(map(abs, values), default=0) <= _INT64_MAX
    return np.array(values, dtype=np.int64 if fits else object)


def _widen(inner: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The operands of a product of `arrays` summed over `inner` terms.

    When every operand is int64 and max|a_1| * ... * max|a_n| * inner could
    pass 2^63 - 1, they become object arrays of Python ints, which cannot
    overflow; other dtypes pass through."""
    if any(a.dtype != np.int64 for a in arrays):
        return arrays
    bound = inner
    for a in arrays:
        bound *= _max_abs(a)
    if bound <= _INT64_MAX:
        return arrays
    return tuple(a.astype(object) for a in arrays)


def _times(x, factor: Fraction):
    """A float scalar or array times a rational factor; dividing by an
    integer denominator rounds once.  A factor past binary64 goes in as
    mantissa * 2**e: only a product past binary64 is +-inf, zeros stay 0."""
    try:
        return x / factor.denominator if factor.numerator == 1 else x * float(factor)
    except OverflowError:
        e = factor.numerator.bit_length() - factor.denominator.bit_length()
        m, ex = np.frexp(x)  # |m * mantissa| < 2 cannot overflow
        with np.errstate(over="ignore", under="ignore"):
            return np.ldexp(m * float(factor / Fraction(2) ** e), ex + e)


def _reduce(nums: np.ndarray, factor: Fraction) -> tuple[np.ndarray, Fraction]:
    """The canonical form of the coefficients factor * nums.

    Exact: the numerators' gcd moves into a positive factor (all zeros:
    int64 zeros with factor 1) and they are int64 whenever they fit.
    Float: the factor is folded into the array."""
    if nums.dtype.kind == "f":
        return (nums if factor == 1 else _times(nums, factor)), _ONE
    g = abs(int(np.gcd.reduce(nums)))  # one entry: the entry itself, signed
    if g == 0 or factor == 0:
        return np.zeros(nums.size, dtype=np.int64), _ONE
    if factor < 0:
        g = -g
    if g != 1:
        nums, factor = nums // g, factor * g
    if nums.dtype == object and _max_abs(nums) <= _INT64_MAX:
        nums = nums.astype(np.int64)
    return nums, factor


def _product(factors: list, den: int) -> Fraction:
    """prod(factors) / den with one gcd instead of one per multiplication."""
    return Fraction(math.prod(q.numerator for q in factors),
                    den * math.prod(q.denominator for q in factors))


def _content(nums: np.ndarray):
    """Hashable content of a canonical numerator array."""
    return tuple(nums.tolist()) if nums.dtype == object else nums.tobytes()


def _scalar(raw, factor: Fraction) -> Scalar:
    """factor * raw for one entry of a numerator array: a Fraction for an
    integer entry, a float for a float one."""
    if isinstance(raw, (float, np.floating)):
        return _times(float(raw), factor)
    return int(raw) * factor


def _split(coeffs) -> tuple[np.ndarray, Fraction]:
    """Rational coefficients as numerators over their common denominator."""
    values = [Fraction(c) for c in np.asarray(coeffs, dtype=object).flat]
    den = math.lcm(*(v.denominator for v in values))
    nums = _int_array([v.numerator * (den // v.denominator) for v in values])
    return nums, Fraction(1, den)


def _coerce_coeffs(values: Iterable, mode: str) -> np.ndarray:
    values = list(values)
    if mode == "float":
        arr = np.asarray(values, dtype=np.float64)
        if arr.size and not np.all(np.isfinite(arr)):
            raise InvalidInputError("float kernels must have finite coefficients")
        return arr
    try:  # rationals, "num/den" strings and finite floats
        return np.array([Fraction(v) for v in values], dtype=object)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"not an exact coefficient: {exc}") from exc


@dataclass(frozen=True, eq=False, init=False)
class GridKernel:
    """Immutable step kernel; safe to share across threads.

    ``GridKernel(p, m, mode, coeffs, scale_sq)`` takes the coefficients in
    the mode's scalar type; with ``factor`` given, ``coeffs`` are numerators
    and the coefficients are factor * coeffs.  Either way the kernel stores
    the canonical pair (``nums``, ``factor``) described in the module
    docstring.
    """

    order: int
    resolution: int
    mode: str
    nums: np.ndarray
    factor: Fraction
    scale_sq: Fraction

    def __init__(self, order: int, resolution: int, mode: str, coeffs: np.ndarray,
                 scale_sq: Fraction = _ONE, factor: Fraction | None = None):
        if factor is None:
            coeffs, factor = _split(coeffs) if mode == "exact" else (coeffs, _ONE)
        nums, factor = _reduce(coeffs, factor)
        for name, value in (("order", order), ("resolution", resolution), ("mode", mode),
                            ("nums", nums), ("factor", factor), ("scale_sq", scale_sq)):
            object.__setattr__(self, name, value)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Flat coefficients: float64, or an object array of Fractions
        derived from the numerators (treat as read-only)."""
        if self.mode == "float":
            return self.nums
        return self.nums.astype(object) * self.factor

    @property
    def array(self) -> np.ndarray:
        """Coefficients reshaped to (m,)*p (a view; treat as read-only)."""
        return self.coeffs.reshape(check_axes(self.resolution, self.order))

    @property
    def n_entries(self) -> int:
        return self.nums.size

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridKernel):
            return NotImplemented
        return (
            self.order == other.order
            and self.resolution == other.resolution
            and self.mode == other.mode
            and self.scale_sq == other.scale_sq
            and self.factor == other.factor
            and bool(np.array_equal(self.nums, other.nums))
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
    a, b = _widen(f.n_entries, f.nums, g.nums)
    with np.errstate(over="ignore"):  # a float sum past binary64 is +-inf
        dot = np.dot(a, b)
    raw = _scalar(dot, f.factor * g.factor / f.resolution**f.order)
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
def _orbits(m: int, p: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray,
                                     np.ndarray]:
    """The one cell decoder: cells with the same index multiset form an orbit
    under argument permutations.  Returns each cell's orbit id, the orbit
    sizes, their lcm L, the integers L / size and each orbit's sorted
    multiset.  Orbits are numbered in first-cell order, which is np.unique's
    order of the base-m multiset keys: a sorted arrangement is its orbit's
    smallest cell."""
    powers = m ** np.arange(p - 1, -1, -1, dtype=np.int64)
    digits = np.sort(np.arange(m**p, dtype=np.int64)[:, None] // powers % m, axis=1)
    _, first, ids, sizes = np.unique(digits @ powers, return_index=True,
                                     return_inverse=True, return_counts=True)
    lcm = math.lcm(*sizes.tolist())
    mult = _int_array([lcm // s for s in sizes.tolist()])
    multisets = digits[first]
    for arr in (ids, sizes, mult, multisets):
        arr.setflags(write=False)
    return ids, sizes, lcm, mult, multisets


def _cell_plan(f: GridKernel) -> list[tuple[np.ndarray, np.ndarray, Scalar]]:
    """f's cells grouped by orbit: (variables, multiplicities, summed
    coefficient) for each orbit whose coefficients do not sum to 0, in
    orbit order and in f's scalar type.  The integral of f is m^(-p/2)
    times the sum over the plan of coeff * prod_i He_{k_i}(xi_i)."""
    ids, sizes, _, _, multisets = _orbits(f.resolution, f.order)
    sums = np.zeros(sizes.size, dtype=f.coeffs.dtype)
    np.add.at(sums, ids, f.coeffs)
    return [(*np.unique(multisets[o], return_counts=True), sums[o])
            for o in np.flatnonzero(sums)]


def _sym_array(nums: np.ndarray, factor: Fraction, p: int,
               m: int) -> tuple[np.ndarray, Fraction]:
    """Symmetrize the coefficients factor * nums by orbit accumulation: each
    coefficient becomes the mean of its value over all arrangements of its
    index multiset.  Exact numerators become orbit sums times L / size under
    the factor factor / L, L the lcm of the orbit sizes.  The result is not
    reduced."""
    if p <= 1 or m == 1:  # one cell per orbit
        return nums.copy(), factor
    ids, sizes, lcm, mult, _ = _orbits(m, p)
    (nums,) = _widen(lcm, nums)
    if nums.dtype.kind == "f":  # the float path divides before it sums
        nums, factor = _reduce(nums, factor)
    sums = np.zeros(sizes.size, dtype=nums.dtype)
    np.add.at(sums, ids, nums)
    if nums.dtype.kind == "f":
        return (sums / sizes)[ids], factor
    return (sums * mult)[ids], factor / lcm


def symmetrize(f: GridKernel) -> GridKernel:
    """Average f over all argument permutations (idempotent, linear)."""
    nums, factor = _sym_array(f.nums, f.factor, f.order, f.resolution)
    return GridKernel(f.order, f.resolution, f.mode, nums, f.scale_sq, factor)


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
        _adjoint_array(f.nums, f.order, f.resolution),
        f.scale_sq,
        f.factor,
    )


def is_symmetric(f: GridKernel) -> bool:
    """f is constant on each orbit of `_orbits`; nothing is symmetrized."""
    p, m = f.order, f.resolution
    if p <= 1 or m == 1:  # one cell per orbit
        return True
    ids, *_, multisets = _orbits(m, p)
    first = multisets @ m ** np.arange(p - 1, -1, -1, dtype=np.int64)  # smallest cells
    return bool(np.array_equal(f.nums, f.nums[first][ids]))


def is_mirror_symmetric(f: GridKernel) -> bool:
    return bool(
        np.array_equal(f.nums, _adjoint_array(f.nums, f.order, f.resolution))
    )


def _repeated_digit_mask(m: int, p: int) -> np.ndarray:
    """Flat mask of the cells whose index tuple repeats a digit."""
    ids, *_, multisets = _orbits(m, p)
    return np.any(multisets[:, 1:] == multisets[:, :-1], axis=1)[ids]


def is_off_diagonal(f: GridKernel) -> bool:
    """True when f vanishes on every cell with a repeated index."""
    if f.order < 2:
        return True
    return not np.any(f.nums[_repeated_digit_mask(f.resolution, f.order)] != 0)


def off_diagonal_part(f: GridKernel) -> GridKernel:
    """Zero out every diagonal-touching cell."""
    if f.order < 2:
        return f
    arr = f.nums.copy()
    arr[_repeated_digit_mask(f.resolution, f.order)] = 0
    return GridKernel(f.order, f.resolution, f.mode, arr, f.scale_sq, f.factor)


def scale(f: GridKernel, c) -> GridKernel:
    """Multiply the kernel by a scalar (exact mode: c must be rational)."""
    return GridKernel(f.order, f.resolution, f.mode, f.nums, f.scale_sq,
                      f.factor * Fraction(c))


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
    return GridKernel(f.order, f.resolution, f.mode, f.nums, _ONE, f.factor * root)


def add(f: GridKernel, g: GridKernel) -> GridKernel:
    """f + g over the factors' common rational divisor: the numerators are
    u * f.nums + v * g.nums with integers u, v."""
    _require_compatible(f, g)
    if f.scale_sq != g.scale_sq:
        f, g = fold_scale(f), fold_scale(g)
    ff, gf = f.factor, g.factor
    common = Fraction(math.gcd(ff.numerator, gf.numerator),
                      math.lcm(ff.denominator, gf.denominator))
    u, v = int(ff / common), int(gf / common)
    a, b = f.nums, g.nums
    # canonical object numerators pass int64 themselves, so one bound covers
    # mixed dtypes; max(.., 1): a huge u must not meet an all-zero array
    if a.dtype.kind != "f" and (
            abs(u) * max(_max_abs(a), 1) + abs(v) * max(_max_abs(b), 1) > _INT64_MAX):
        a, b = a.astype(object), b.astype(object)
    if u != 1:
        a = a * u
    if v != 1:
        b = b * v
    return GridKernel(f.order, f.resolution, f.mode, a + b, f.scale_sq, common)


def as_float(f: GridKernel) -> GridKernel:
    """Float-mode copy with the exact scale folded in."""
    if f.mode == "float":
        return f
    root = exact_sqrt(f.scale_sq)
    if root is None:
        arr = np.array([_times_root(c, f.scale_sq) for c in f.coeffs], dtype=np.float64)
    else:
        arr = np.array([as_scalar(c, "float") for c in f.coeffs], dtype=np.float64)
        arr *= math.sqrt(as_scalar(f.scale_sq, "float"))
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("kernel coefficients pass the binary64 range; "
                                "use exact mode")
    return GridKernel(f.order, f.resolution, "float", arr, _ONE)


def variance(f: GridKernel, model: str) -> Scalar:
    """Variance of the order-p integral of f: p! ||f||^2 for a symmetric f
    (classical) or <f, f*> (free).  In float mode the product with p! is
    formed exactly and rounded once, since p! alone passes binary64 from
    p = 171 on; a result past binary64 is inf."""
    if model == "classical":
        v, weight = l2_norm_sq(f), math.factorial(f.order)
    else:
        v, weight = l2_inner(f, adjoint(f)), 1
    if f.mode == "exact" or not math.isfinite(v):
        return weight * v
    return as_scalar(weight * Fraction(v), "float")


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
    v = variance(f, model)
    if f.mode == "float" and not math.isfinite(v):
        raise InvalidInputError("the variance passes the binary64 range; use exact mode")
    if model == "classical" and v == 0:
        raise PreconditionError("cannot normalize: symmetrization vanishes")
    if model == "free" and v <= 0:
        raise PreconditionError(
            f"free normalization requires <f, f*> > 0, got {_brief(v)}"
        )
    if f.mode == "float":
        return GridKernel(f.order, f.resolution, f.mode, f.nums / math.sqrt(v), _ONE)
    return GridKernel(f.order, f.resolution, f.mode, f.nums, f.scale_sq / v, f.factor)


def refine(f: GridKernel, factor: int) -> GridKernel:
    """Split every axis into `factor` sub-cells; the represented function is
    unchanged (each coefficient replicated over factor**p sub-cells)."""
    if factor < 1:
        raise InvalidInputError("refinement factor must be >= 1")
    if factor == 1:
        return f
    m2 = f.resolution * factor
    check_entries(m2, f.order)
    arr = f.nums.reshape(check_axes(f.resolution, f.order))
    for axis in range(f.order):
        arr = np.repeat(arr, factor, axis=axis)
    return GridKernel(f.order, m2, f.mode, arr.reshape(-1), f.scale_sq, f.factor)


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


def _too_many_digits(what: str, hint: str = "") -> BudgetExceededError:
    """The error for a value past Python's cap on the digits of an int in text."""
    cap = sys.get_int_max_str_digits()
    return BudgetExceededError(0, 0, cap, f"{what} has more than {cap} digits, "
                               f"Python's cap for an int in text{hint}")


def _frac_str(q: Fraction) -> str:
    """num/den text; past the digit cap, an oversize result."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:
        raise _too_many_digits("exact value", "; use float mode") from exc


def _brief(q: Scalar) -> str:
    """str(q) for a message, or a float approximation past the digit cap."""
    try:
        return str(q)
    except ValueError:
        return f"~{as_scalar(q, 'float'):.6g}"


def kernel_to_json(f: GridKernel, model: str | None = None) -> str:
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
    return json.dumps(d)


def kernel_from_json(text: str) -> tuple[GridKernel, str | None]:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"invalid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise InvalidInputError("kernel JSON must be an object")
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
    if any(isinstance(c, bool) for c in coeffs):
        raise InvalidInputError("kernel JSON 'coeffs' must be numbers, not booleans")
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
