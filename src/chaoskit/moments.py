"""Closed-form k-th moments, fourth-moment identities, and oracles.

The k-th moment of an order-p integral is a sum over the closed rank
sequences B_k of iterated contractions of k copies of the kernel, evaluated
left to right; a classical sequence also carries the integer weight
prod_j r_j! C(p, r_j) C(o_{j-1}, r_j), o_j being the running order.
Materializing those chains naively is hopeless: a prefix of zero ranks
yields a dense order-jp intermediate, which for a resolution-64 kernel at
k = 8 would need 64^8 entries.  Instead an intermediate is a weighted bag of
terms {block-id tuple: weight}, each term the tensor product of small,
deduplicated dense blocks:

* free terms keep their blocks in order, and a rank-r step only ever
  touches the trailing blocks;
* classical chains are symmetrized, which spreads a rank-r step over all
  blocks; a term's block tuple is kept sorted, and one step splits each
  term over the ways of drawing r slots from its blocks:

      sym(W) o~_r f = sum over (r_1..r_s), sum r_i = r of
          [prod_i C(o_i, r_i) / C(o, r)] * sym(untouched ox fuse(f; {(g_i, r_i)}))

  where fuse contracts r_i slots of each chosen block against distinct slots
  of the incoming kernel.

Blocks stay small (order <= 2p-2 in practice), and each distinct (blocks, r)
step is contracted once and memoized.

Walking B_k one tuple at a time costs |B_k|, which grows exponentially
(4,213 tuples at p = 2, k = 12; 227,475 at k = 16), so the moments sum the
rank tree level by level instead (`_walk`).  After each step, every
prefix that reaches the same block tuple is one term whose weight is the sum
of those prefixes' weights.  The classical weight factors step by step, so a
rank-r step from order o first multiplies the term weights by
r! C(p, r) C(o, r) and the final sum needs no per-tuple weight.  Terms also
carry a flag, "every rank so far in {0, p}", so one pass yields both the
C_k and the E_k part of the sum.

`chain_values` returns one value per rank tuple, which merging would lose,
so it runs the same walk with each rank prefix kept as its own state; its
cost therefore grows with |B_k|.  The test suite checks the merged sums
against the per-tuple values, both against literal dense chains, and the
moments against the product-formula expansion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from . import combinatorics as comb
from .chaos import moment_via_expansion
from .config import check_axes
from .contractions import (
    contract_arrays_free,
    contract_classical,
    contract_classical_sym,
    contract_free,
    multi_contract,
    tensor_product_arrays,
)
from .errors import BudgetExceededError, InvalidInputError, PreconditionError
from .kernels import (
    GridKernel,
    Scalar,
    _brief,
    _content,
    _digit_matrix,
    _product,
    _reduce,
    _scalar,
    _sym_array,
    as_scalar,
    family_kernel,
    is_mirror_symmetric,
    is_symmetric,
    l2_norm_sq,
    scaled_scalar,
    symmetrize,
    variance,
)

PATHS = ("formula", "expansion", "oracle", "simulation")

WICK_VARIABLE_CAP = 12
WICK_DEGREE_CAP = 24

_NORMALIZATION_RTOL = 1e-9


@dataclass(frozen=True)
class MomentReport:
    """A computed moment with its provenance."""

    k: int
    value: Scalar
    path: str
    stderr: Optional[float] = None
    target: Optional[Scalar] = None

    def __post_init__(self):
        if self.path not in PATHS:
            raise InvalidInputError(f"unknown moment path {self.path!r}")
        if (self.stderr is not None) != (self.path == "simulation"):
            raise InvalidInputError("stderr is present iff path='simulation'")


@dataclass(frozen=True)
class ContractionProfile:
    """Squared L2 norms of the self-contractions at ranks 1..p-1."""

    raw_sq: tuple
    sym_sq: Optional[tuple] = None


# --- factored chain evaluators ---------------------------------------------


class _Chain:
    """Chain state: a dict mapping block-id tuples to scalar weights; the
    represented value is sum_terms w * (tensor product of the blocks).
    Blocks live in a content-addressed store: each is reduced to its
    canonical numerators and factor once, so equal blocks share one id.
    Subclasses define a rank-r step; its memo is keyed by block ids, which
    the store makes content addresses."""

    def __init__(self, f_nums: np.ndarray, f_factor: Fraction, p: int, m: int,
                 mode: str):
        self.p = p
        self.m = m
        self.orders: list[int] = []
        self.arrays: list[np.ndarray] = []
        self.factors: list[Fraction] = []
        self._index: dict = {}
        self.base = self.add(p, f_nums, f_factor)
        self.f_arr = self.arrays[self.base]
        self.f_factor = self.factors[self.base]
        self.one = as_scalar(1, mode)
        self.zero = as_scalar(0, mode)
        self.memo: dict = {}
        self.splits: dict = {}

    def add(self, order: int, nums: np.ndarray, factor: Fraction) -> int:
        """Id of the block factor * nums, stored on first sight."""
        nums, factor = _reduce(nums, factor)
        key = (order, factor, _content(nums))
        hit = self._index.get(key)
        if hit is None:
            hit = self._index[key] = len(self.orders)
            self.orders.append(order)
            self.arrays.append(nums)
            self.factors.append(factor)
        return hit

    def result(self, ids, r: int, order: int, nums: np.ndarray):
        """Memo entry for the raw sums `nums` of contracting r slots of the
        blocks `ids` with f: ("s", scalar) or ("f", block id)."""
        factor = _product([self.f_factor, *(self.factors[i] for i in ids)], self.m**r)
        if order == 0:
            return ("s", _scalar(nums[0], factor))
        return ("f", self.add(order, nums, factor))

    def initial(self) -> dict:
        return {(self.base,): self.one}

    def order(self, ids: tuple) -> int:
        return sum(self.orders[i] for i in ids)

    def rank_weight(self, order: int, r: int) -> int:
        """Expansion weight of a rank-r step from running order `order`."""
        return 1

    def finalize(self, terms: dict) -> Scalar:
        if set(terms) - {()}:
            raise AssertionError("chain finalized with open blocks")
        return terms.get((), self.zero)


class _FreeChain(_Chain):
    """Blocks stay in tensor-product order; a rank-r step only touches the
    trailing blocks."""

    def _step_term(self, ids: tuple, w, r: int):
        if r == 0:
            return ids + (self.base,), w
        rest = list(ids)
        popped: list[int] = []
        total = 0
        while total < r:
            i = rest.pop()
            popped.append(i)
            total += self.orders[i]
        popped.reverse()
        key = (tuple(popped), r)
        hit = self.memo.get(key)
        if hit is None:
            arrs = [self.arrays[i] for i in popped]
            block = tensor_product_arrays(arrs, [self.orders[i] for i in popped], self.m)
            out = contract_arrays_free(block, total, self.f_arr, self.p, r, self.m)
            hit = self.memo[key] = self.result(popped, r, total + self.p - 2 * r, out)
        if hit[0] == "s":
            return tuple(rest), w * hit[1]
        return tuple(rest) + (hit[1],), w

    def step(self, terms: dict, r: int) -> dict:
        out: dict = {}
        for ids, w in terms.items():
            key, w = self._step_term(ids, w, r)
            out[key] = out.get(key, self.zero) + w
        return out


def _compositions(total: int, caps: tuple[int, ...]) -> list[tuple]:
    """All tuples c with 0 <= c_i <= caps[i] and sum(c) == total, in
    lexicographic order."""
    ranges = (range(cap + 1) for cap in caps)
    return [c for c in itertools.product(*ranges) if sum(c) == total]


class _ClassicalChain(_Chain):
    """Terms are symmetrized (block tuples kept sorted), so a rank-r step
    splits each term over the ways of drawing r slots from its blocks."""

    def rank_weight(self, order: int, r: int) -> int:
        return math.factorial(r) * math.comb(self.p, r) * math.comb(order, r)

    def _fuse(self, parts_key: tuple):
        hit = self.memo.get(parts_key)
        if hit is None:
            parts = [(self.arrays[i], self.orders[i], ri) for i, ri in parts_key]
            arr, order = multi_contract(self.f_arr, self.p, parts, self.m, measure=False)
            ids = [i for i, _ in parts_key]
            r = sum(ri for _, ri in parts_key)
            hit = self.memo[parts_key] = self.result(ids, r, order, arr)
        return hit

    def add(self, order: int, nums: np.ndarray, factor: Fraction) -> int:
        """Classical blocks are stored symmetrized."""
        return super().add(order, *_sym_array(nums, factor, order, self.m))

    def step(self, terms: dict, r: int) -> dict:
        out: dict = {}
        for ids, w in terms.items():
            if r == 0:
                key = tuple(sorted(ids + (self.base,)))
                out[key] = out.get(key, self.zero) + w
                continue
            orders = tuple(self.orders[i] for i in ids)
            splits = self.splits.get((orders, r))
            if splits is None:
                # ratios prod_i C(o_i, r_i) / C(o, r), once per chain; one * count
                # makes each a scalar of the chain's mode
                denom = math.comb(sum(orders), r)
                splits = self.splits[(orders, r)] = [
                    (split, self.one * math.prod(map(math.comb, orders, split)) / denom)
                    for split in _compositions(r, orders)
                ]
            for split, ratio in splits:
                weight = w * ratio
                parts_key = tuple(
                    sorted((ids[i], ci) for i, ci in enumerate(split) if ci > 0)
                )
                untouched = tuple(ids[i] for i, ci in enumerate(split) if ci == 0)
                kind, payload = self._fuse(parts_key)
                if kind == "s":
                    key = tuple(sorted(untouched))
                    out[key] = out.get(key, self.zero) + weight * payload
                else:
                    key = tuple(sorted(untouched + (payload,)))
                    out[key] = out.get(key, self.zero) + weight
        return out


def _chain(f: GridKernel, model: str) -> _Chain:
    """The chain evaluator for f's moments in one model."""
    p, m, mode = f.order, f.resolution, f.mode
    if p < 1:
        raise InvalidInputError("chain values need an order >= 1 kernel")
    if model == "classical":
        return _ClassicalChain(f.nums, f.factor, p, m, mode)
    if model == "free":
        if not is_mirror_symmetric(f):
            raise PreconditionError(
                "free moments are defined for mirror-symmetric kernels"
            )
        return _FreeChain(f.nums, f.factor, p, m, mode)
    raise InvalidInputError(f"unknown model {model!r}")


def _next_ranks(p: int, order: int, left: int, classes: str):
    """Ranks of the next step from running order `order`, with `left` steps
    to go counting this one, after which the chain can still close at 0."""
    for r in (0, p) if classes == "C" else range(p + 1):
        new_order = order + p - 2 * r
        if r > order or new_order > (left - 1) * p:
            continue
        if (new_order + (left - 1) * p) % 2:
            continue
        yield r


def _walk(chain: _Chain, k: int, classes: str, merge: bool) -> dict:
    """Walk the rank tree level by level; return {label: raw value}.

    Without merge a state's label is its rank prefix, and the result maps
    each rank tuple of the class to its chain value.  With merge the label
    is only whether every rank so far is in {0, p}: prefixes that reach the
    same block tuple under one label become one term whose weight sums
    theirs, each rank-r step first multiplies the weights by
    chain.rank_weight, and the result maps True/False to the C_k/E_k part
    of the weighted sum.
    """
    if k < 2:
        raise InvalidInputError("chain values need k >= 2")
    p, steps = chain.p, k - 1
    check_axes(chain.m, p)  # every step reshapes f to one axis per slot
    levels = {True if merge else (): chain.initial()}
    for depth in range(steps):
        nxt: dict = {}
        for label, terms in levels.items():
            by_rank: dict[int, dict] = {}
            for ids, w in terms.items():
                order = chain.order(ids)
                for r in _next_ranks(p, order, steps - depth, classes):
                    by_rank.setdefault(r, {})[ids] = (
                        w * chain.rank_weight(order, r) if merge else w
                    )
            for r, bucket in by_rank.items():
                key = label and r in (0, p) if merge else label + (r,)
                out = nxt.setdefault(key, {})
                for ids, w in chain.step(bucket, r).items():
                    out[ids] = out.get(ids, chain.zero) + w
        levels = nxt
    if classes == "E":
        levels = {
            t: terms for t, terms in levels.items() if not all(r in (0, p) for r in t)
        }
    return {label: chain.finalize(terms) for label, terms in levels.items()}


def _class_sums(chain: _Chain, k: int, classes: str = "B") -> tuple[Scalar, Scalar]:
    """Raw C_k and E_k parts of the weighted chain sum over B_k (or C_k)."""
    sums = _walk(chain, k, classes, merge=True)
    return sums.get(True, chain.zero), sums.get(False, chain.zero)


def chain_values(f: GridKernel, k: int, model: str,
                 classes: str = "B") -> dict[tuple, Scalar]:
    """Per-tuple iterated contraction values over B_k (or its C/E parts).

    Classical chains run on the symmetrization of f and are the iterated
    symmetrized contractions WITHOUT the integer expansion weights; free
    chains require a mirror-symmetric kernel.  Values include the kernel's
    exact scale (degree k).
    """
    if classes not in ("B", "C", "E"):
        raise InvalidInputError("chain classes must be 'B', 'C' or 'E'")
    raw = _walk(_chain(f, model), k, classes, merge=False)
    return {
        t: scaled_scalar(v, f.scale_sq, k, f.mode) for t, v in raw.items()
    }


def _formula_moment(f: GridKernel, k: int, model: str) -> Scalar:
    if f.order == 0:
        return scaled_scalar(f.coeffs[0] ** k, f.scale_sq, k, f.mode)
    chain = _chain(f, model)
    if k == 1:
        return chain.zero
    ck, ek = _class_sums(chain, k)
    return scaled_scalar(ck + ek, f.scale_sq, k, f.mode)


def free_moment(f: GridKernel, k: int) -> Scalar:
    """E[F^k] for the order-p Wigner integral of a mirror-symmetric f:
    the plain sum of the iterated free contractions over B_k."""
    return _formula_moment(f, k, "free")


def classical_moment(f: GridKernel, k: int) -> Scalar:
    """E[F^k] for the Wiener-Ito integral of f (symmetrized first):
    the weighted sum of iterated symmetrized contractions over B_k."""
    return _formula_moment(f, k, "classical")


# --- fourth-moment identities ----------------------------------------------


def require_normalized(f: GridKernel, model: str) -> None:
    """Raise PreconditionError unless the order-p integral of f has unit
    variance in the given model."""
    v = variance(symmetrize(f) if model == "classical" else f, model)
    if f.mode == "exact":
        ok = v == 1
    else:
        ok = abs(v - 1.0) <= _NORMALIZATION_RTOL
    if not ok:
        label = "p! ||sym(f)||^2" if model == "classical" else "<f, f*>"
        raise PreconditionError(
            f"kernel is not variance-normalized for the {model} model: "
            f"{label} = {_brief(v)}; call normalize_variance first"
        )


def free_fourth_identity(f: GridKernel,
                         profile: Optional[ContractionProfile] = None) -> Scalar:
    """2 ||f||^4 + sum_{r=1}^{p-1} ||f fr_r f||^2, which equals the free
    fourth moment of any mirror-symmetric kernel.  A caller that holds f's
    free contraction_profile passes it and has checked f = f* itself."""
    if profile is None:
        if not is_mirror_symmetric(f):
            raise PreconditionError("the free fourth-moment identity needs f = f*")
        profile = contraction_profile(f, "free")
    nsq = l2_norm_sq(f)
    return sum(profile.raw_sq, 2 * nsq * nsq)


def _classical_profile(f: GridKernel, what: str) -> ContractionProfile:
    """The preconditions of the classical identities, then f's profile."""
    if not is_symmetric(f):
        raise PreconditionError(f"the {what} needs a symmetric kernel")
    require_normalized(f, "classical")
    return contraction_profile(f, "classical")


def classical_fourth_identity(f: GridKernel,
                              profile: Optional[ContractionProfile] = None) -> Scalar:
    """3 + sum_{r=1}^{p-1} C(p,r)^2 [ (p!)^2 ||f ox_r f||^2
    + (r!)^2 C(p,r)^2 (2p-2r)! ||sym(f ox_r f)||^2 ]
    for a symmetric, variance-normalized kernel.  A caller that holds f's
    classical contraction_profile passes it and has checked both
    conditions itself."""
    if profile is None:
        profile = _classical_profile(f, "classical identity")
    p = f.order
    pf2 = math.factorial(p) ** 2
    total = as_scalar(3, f.mode)
    for r, raw, sym in zip(range(1, p), profile.raw_sq, profile.sym_sq):
        c = math.comb(p, r)
        total = total + c**2 * (
            pf2 * raw
            + math.factorial(r) ** 2 * c**2 * math.factorial(2 * p - 2 * r) * sym
        )
    return total


def symmetrized_square_identity(f: GridKernel,
                                profile: Optional[ContractionProfile] = None
                                ) -> tuple[Scalar, Scalar]:
    """Both sides of the exact split of the symmetrized tensor square:
    (2p)! ||sym(f ox f)||^2  and  2 + (p!)^2 sum_r C(p,r)^2 ||f ox_r f||^2,
    for a symmetric variance-normalized kernel; `profile` as for
    classical_fourth_identity."""
    if profile is None:
        profile = _classical_profile(f, "square identity")
    p = f.order
    lhs = math.factorial(2 * p) * l2_norm_sq(contract_classical_sym(f, f, 0))
    rhs = as_scalar(2, f.mode)
    pf2 = math.factorial(p) ** 2
    for r, raw in zip(range(1, p), profile.raw_sq):
        rhs = rhs + pf2 * math.comb(p, r) ** 2 * raw
    return lhs, rhs


def contraction_profile(f: GridKernel, model: str) -> ContractionProfile:
    """[||f o_r f||^2 for r = 1..p-1]; the classical profile also carries the
    symmetrized variants.  These are the quantities whose decay drives the
    fourth-moment criterion."""
    if model not in ("classical", "free"):
        raise InvalidInputError(f"unknown model {model!r}")
    ranks = range(1, f.order)
    if model == "free":
        raw = tuple(l2_norm_sq(contract_free(f, f, r)) for r in ranks)
        return ContractionProfile(raw)
    return ContractionProfile(
        tuple(l2_norm_sq(contract_classical(f, f, r)) for r in ranks),
        tuple(l2_norm_sq(contract_classical_sym(f, f, r)) for r in ranks),
    )


def fourth_moment_limit(f: GridKernel, model: str) -> int:
    """The limit of E[F^4] under a normalized kernel (3 classical, 2 free);
    raises PreconditionError unless f is normalized."""
    require_normalized(f, model)
    return 3 if model == "classical" else 2


def fourth_moment_gap(f: GridKernel, model: str) -> Scalar:
    """E[F^4] minus its limiting value for a normalized kernel; nonnegative
    by the fourth-moment identities."""
    limit = fourth_moment_limit(f, model)
    return _formula_moment(f, 4, model) - limit


# --- Wick/Isserlis oracle ---------------------------------------------------


@lru_cache(maxsize=64)
def _hermite_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of the probabilists' Hermite polynomial He_n."""
    if n == 0:
        return (1,)
    if n == 1:
        return (0, 1)
    prev2, prev1 = _hermite_coeffs(n - 2), _hermite_coeffs(n - 1)
    out = [0] * (n + 1)
    for i, c in enumerate(prev1):
        out[i + 1] += c
    for i, c in enumerate(prev2):
        out[i] -= (n - 1) * c
    return tuple(out)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _gauss_polynomial(f: GridKernel) -> dict:
    """f's integral as a polynomial in m independent standard normals,
    WITHOUT the overall m^(-p/2) and scale factors: each ordered nonzero
    cell with index multiplicities (k_1, ...) contributes
    a_I * prod_i He_{k_i}(xi_i)."""
    m = f.resolution
    poly: dict = {}
    flat = f.coeffs
    digits = _digit_matrix(m, f.order)
    for i in range(flat.size):
        a = flat[i]
        if a == 0:
            continue
        counts: dict[int, int] = {}
        for d in digits[i].tolist():
            counts[d] = counts.get(d, 0) + 1
        cell_poly: dict = {(0,) * m: 1}
        for var, cnt in counts.items():
            hc = _hermite_coeffs(cnt)
            nxt: dict = {}
            for exps, co in cell_poly.items():
                for e, c in enumerate(hc):
                    if c == 0:
                        continue
                    key = exps[:var] + (exps[var] + e,) + exps[var + 1 :]
                    nxt[key] = nxt.get(key, 0) + co * c
            cell_poly = nxt
        for exps, co in cell_poly.items():
            poly[exps] = poly.get(exps, 0) + a * co
    return {e: c for e, c in poly.items() if c != 0}


def wick_oracle_moment(f: GridKernel, k: int, *, var_cap: int = WICK_VARIABLE_CAP,
                       degree_cap: int = WICK_DEGREE_CAP) -> Scalar:
    """E[F^k] computed with no contraction machinery at all: F is written
    exactly as a polynomial in m independent standard normals via the
    Hermite product rule, raised to the k-th power symbolically, and
    integrated termwise with E[xi^n] = (n-1)!! (0 for odd n).

    Exact in exact mode whenever the global factor sqrt(scale_sq^k / m^(kp))
    is rational (always true for even k*p and rational scales); otherwise
    the rational part is computed exactly and the root applied in binary64.
    """
    if k < 1:
        raise InvalidInputError("moment order k must be >= 1")
    if not is_symmetric(f):
        raise PreconditionError("the Wick oracle requires a symmetric kernel")
    p, m = f.order, f.resolution
    if m > var_cap:
        raise BudgetExceededError(
            p, m, var_cap,
            f"Wick oracle capped at {var_cap} Gaussian variables, kernel has {m}",
        )
    if k * p > degree_cap:
        raise BudgetExceededError(
            k * p, k * p, degree_cap,
            f"Wick oracle capped at polynomial degree {degree_cap}, need {k * p}",
        )
    if p == 0:
        return scaled_scalar(f.coeffs[0] ** k, f.scale_sq, k, f.mode)
    base = _gauss_polynomial(f)
    power = {(0,) * m: 1}
    for _ in range(k):
        power = _poly_mul(power, base)
    raw = 0
    for exps, co in power.items():
        if any(e % 2 for e in exps):
            continue
        term = co
        for e in exps:
            if e:
                term *= comb.double_factorial(e - 1)
        raw += term
    return scaled_scalar(raw, f.scale_sq / m**p, k, f.mode)


# --- cross-path dispatch and convergence tables ------------------------------


def compute_moment(f: GridKernel, k: int, model: str, path: str = "formula") -> Scalar:
    """Route to one of the three deterministic moment paths."""
    if model not in ("classical", "free"):
        raise InvalidInputError(f"unknown model {model!r}")
    if path == "formula":
        return _formula_moment(f, k, model)
    if path == "expansion":
        return moment_via_expansion(f, k, model)
    if path == "oracle":
        if model != "classical":
            raise InvalidInputError("the Wick oracle applies to the classical model")
        return wick_oracle_moment(symmetrize(f), k)
    raise InvalidInputError(f"unknown moment path {path!r}")


def is_normalized(f: GridKernel, model: str) -> bool:
    try:
        require_normalized(f, model)
    except PreconditionError:
        return False
    return True


def convergence_report(family: str, n_list, k_max: int, model: str,
                       mode: str = "float") -> list[dict]:
    """Moment table for a kernel family along an n-grid.

    One row per (n, k): the formula-path moment, the Gaussian/semicircle
    target, their gap, the B_k sum split into its C_k and E_k parts, and the
    self-contraction profile.  For the free model the C_k partial sum is
    always computed in exact arithmetic (cheap: class-C chains only take
    full or tensor steps), which makes its constancy an exact statement.
    """
    if k_max < 2:
        raise InvalidInputError("k_max must be >= 2")
    rows: list[dict] = []
    for n in n_list:
        f = family_kernel(family, n=n, model=model, mode=mode)
        prof = contraction_profile(f, model)
        chain = _chain(f, model)
        exact_chain = None
        if model == "free" and mode == "float":
            exact_f = family_kernel(family, n=n, model=model, mode="exact")
            exact_chain = _chain(exact_f, model)
        for k in range(2, k_max + 1):
            c_raw, e_raw = _class_sums(chain, k)
            moment, ck, ek = (
                scaled_scalar(v, f.scale_sq, k, mode)
                for v in (c_raw + e_raw, c_raw, e_raw)
            )
            if exact_chain is not None:
                ck = scaled_scalar(
                    _class_sums(exact_chain, k, "C")[0], exact_f.scale_sq, k, "exact"
                )
            if model == "classical":
                target = comb.gaussian_moment(k)
            else:
                target = comb.semicircle_moment(k)
            rows.append(
                {
                    "family": family,
                    "model": model,
                    "n": n,
                    "k": k,
                    "moment": moment,
                    "target": target,
                    "gap": moment - target,
                    "ck_sum": ck,
                    "ek_sum": ek,
                    "profile_sq": tuple(prof.raw_sq),
                    "profile_sym_sq": tuple(prof.sym_sq) if prof.sym_sq else None,
                }
            )
    return rows
