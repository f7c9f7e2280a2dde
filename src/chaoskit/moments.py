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

Both walks contract through one fold, `_Chain.fuse`, and differ only in
which block slots a rank-r step takes.  Blocks stay small (order <= 2p-2 in
practice), and each distinct (blocks, r) step is contracted once and
memoized.

Walking B_k one tuple at a time costs |B_k|, which grows exponentially
(4,213 tuples at p = 2, k = 12; 227,475 at k = 16), so the moments sum the
rank tree level by level instead (`_walk`).  After each step, every prefix
that reaches the same block tuple is one term whose weight is the sum of
those prefixes' weights.  The classical weight factors step by step, so a
classical step folds its step weight into the split ratios above and the
final sum needs no per-tuple weight.  Which ranks may follow a running
order, and the step weights, come from `combinatorics.rank_steps`, the one
place that rule lives.  `convergence_report` walks class C separately and
takes the E_k part as B_k - C_k.

`chain_values` returns one value per rank tuple, which merging would lose,
so it folds each tuple of `comb.rank_tree` through the same levels, one
rank with step weight 1 at a time; its cost grows with |B_k|.  The test
suite checks the merged sums against these per-tuple values, both against
literal dense chains, and the moments against the product-formula
expansion.
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
from .config import check_axes, entry_budget
from .contractions import (
    contract_arrays_classical,
    contract_arrays_free,
    contract_classical,
    contract_classical_sym,
    contract_free,
)
from .errors import BudgetExceededError, InvalidInputError, PreconditionError
from .kernels import (
    GridKernel,
    Scalar,
    _brief,
    _cell_plan,
    _content,
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
    `level` is the one place a term steps: it hands each term and each
    (rank, step weight) of a `comb.rank_steps` table to the subclass's
    `step`, which adds the stepped term into the next state.  Step memos
    are keyed by block ids, which the store makes content addresses."""

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

    def fuse(self, parts, contract):
        """Memo entry for f folded with the blocks of `parts`, (block id, r_i)
        pairs in fold order: each block gives its last r_i slots to the
        running result through `contract`, one of the array routines of
        `contractions`.  ("s", scalar) at order 0, else ("f", block id)."""
        arr, order, r = self.f_arr, self.p, 0
        for i, ri in parts:
            arr = contract(self.arrays[i], self.orders[i], arr, order, ri, self.m)
            order += self.orders[i] - 2 * ri
            r += ri
        factor = _product([self.f_factor, *(self.factors[i] for i, _ in parts)],
                          self.m**r)
        if order == 0:
            return ("s", _scalar(arr[0], factor))
        return ("f", self.add(order, arr, factor))

    def initial(self) -> dict:
        return {(self.base,): self.one}

    def level(self, terms: dict, table: dict) -> dict:
        """The next state: every term stepped at every rank that `table`
        allows from its running order."""
        out: dict = {}
        for ids, w in terms.items():
            for r, weight in table[sum(self.orders[i] for i in ids)]:
                self.step(out, ids, w, r, weight)
        return out

    def finalize(self, terms: dict) -> Scalar:
        if set(terms) - {()}:
            raise AssertionError("chain finalized with open blocks")
        return terms.get((), self.zero)


class _FreeChain(_Chain):
    """Blocks stay in tensor-product order; a rank-r step only touches the
    trailing blocks.  Free moments carry no step weights."""

    def step(self, out: dict, ids: tuple, w, r: int, weight) -> None:
        if r == 0:
            key = ids + (self.base,)
        else:
            rest = list(ids)
            popped: list[int] = []  # last block first
            total = 0
            while total < r:
                i = rest.pop()
                popped.append(i)
                total += self.orders[i]
            memo_key = (tuple(popped), r)
            hit = self.memo.get(memo_key)
            if hit is None:
                # each popped block gives its last slots to the first slots of
                # the running result; the earliest keeps its leading slots, as
                # it would in the tensor product of the popped blocks
                parts, left = [], r
                for i in popped:
                    ri = min(left, self.orders[i])
                    parts.append((i, ri))
                    left -= ri
                hit = self.memo[memo_key] = self.fuse(parts, contract_arrays_free)
            if hit[0] == "s":
                key, w = tuple(rest), w * hit[1]
            else:
                key = tuple(rest) + (hit[1],)
        out[key] = out.get(key, self.zero) + w


def _compositions(total: int, caps: tuple[int, ...]) -> list[tuple]:
    """All tuples c with 0 <= c_i <= caps[i] and sum(c) == total, in
    lexicographic order: each head runs over the values the later caps
    can still complete."""
    if not caps:
        return [()] if total == 0 else []
    room = sum(caps[1:])
    return [(c, *rest)
            for c in range(max(0, total - room), min(caps[0], total) + 1)
            for rest in _compositions(total - c, caps[1:])]


class _ClassicalChain(_Chain):
    """Terms are symmetrized (block tuples kept sorted), so a rank-r step
    splits each term over the ways of drawing r slots from its blocks."""

    def add(self, order: int, nums: np.ndarray, factor: Fraction) -> int:
        """Classical blocks are stored symmetrized."""
        return super().add(order, *_sym_array(nums, factor, order, self.m))

    def step(self, out: dict, ids: tuple, w, r: int, weight) -> None:
        if r == 0:
            key = tuple(sorted(ids + (self.base,)))
            out[key] = out.get(key, self.zero) + w * weight
            return
        orders = tuple(self.orders[i] for i in ids)
        splits = self.splits.get((orders, r, weight))
        if splits is None:
            # ratios weight * prod_i C(o_i, r_i) / C(o, r), once per chain;
            # one * weight makes each a scalar of the chain's mode
            scaled, denom = self.one * weight, math.comb(sum(orders), r)
            splits = self.splits[(orders, r, weight)] = [
                (split, scaled * math.prod(map(math.comb, orders, split)) / denom)
                for split in _compositions(r, orders)
            ]
        for split, ratio in splits:
            parts_key = tuple(
                sorted((ids[i], ci) for i, ci in enumerate(split) if ci > 0)
            )
            untouched = tuple(ids[i] for i, ci in enumerate(split) if ci == 0)
            hit = self.memo.get(parts_key)
            if hit is None:
                hit = self.memo[parts_key] = self.fuse(parts_key,
                                                       contract_arrays_classical)
            kind, payload = hit
            if kind == "s":
                key = tuple(sorted(untouched))
                out[key] = out.get(key, self.zero) + w * ratio * payload
            else:
                key = tuple(sorted(untouched + (payload,)))
                out[key] = out.get(key, self.zero) + w * ratio


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


def _walk(chain: _Chain, k: int, classes: str = "B") -> Scalar:
    """Raw weighted chain sum over B_k (or C_k; E_k is their difference):
    the merged level-by-level walk of the module docstring over one
    `comb.rank_steps` table.  Its state is one {block ids: weight} dict, so
    C and E prefixes that reach the same blocks are one term."""
    if k < 2:
        raise InvalidInputError("chain values need k >= 2")
    check_axes(chain.m, chain.p)  # free steps reshape f per slot; bounds p before p!
    terms = chain.initial()
    for table in comb.rank_steps(chain.p, k, classes):
        terms = chain.level(terms, table)
    return chain.finalize(terms)


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
    chain = _chain(f, model)
    check_axes(chain.m, chain.p)  # as in _walk, before the rank tree forms p!
    tree = comb.rank_tree(chain.p, k, classes)
    out = {}
    for ranks, _ in tree:
        terms, order = chain.initial(), chain.p
        for r in ranks:  # every term of one tuple has the same running order
            terms = chain.level(terms, {order: [(r, 1)]})
            order += chain.p - 2 * r
        out[ranks] = scaled_scalar(chain.finalize(terms), f.scale_sq, k, f.mode)
    return out


def _formula_moment(f: GridKernel, k: int, model: str) -> Scalar:
    if f.order == 0:
        return scaled_scalar(f.coeffs[0] ** k, f.scale_sq, k, f.mode)
    chain = _chain(f, model)
    if k == 1:
        return chain.zero
    return scaled_scalar(_walk(chain, k), f.scale_sq, k, f.mode)


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
    variance in the given model.  The classical variance p! ||sym f||^2 is
    formed only when log2 p! and the bit lengths of ||sym f||^2 come within
    2 bits of cancelling: p! alone takes seconds at p = 10^6."""
    v = None
    if model == "classical":
        f = symmetrize(f)
        norm = l2_norm_sq(f)
        q = Fraction(norm) if 0 < norm < math.inf else Fraction(0)
        bits = q.numerator.bit_length() - q.denominator.bit_length()  # log2 q +- 1
        if q and abs(bits + math.lgamma(f.order + 1) / math.log(2)) <= 2:
            v = variance(f, model)
    else:
        v = variance(f, model)
    if v is None or not (v == 1 if f.mode == "exact" else abs(v - 1.0) <= _NORMALIZATION_RTOL):
        label = "p! ||sym(f)||^2" if model == "classical" else "<f, f*>"
        shown = f"{f.order}! * {_brief(norm)}" if v is None else _brief(v)
        raise PreconditionError(
            f"kernel is not variance-normalized for the {model} model: "
            f"{label} = {shown}; call normalize_variance first"
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
    """Coefficients of the probabilists' Hermite polynomial He_n, by
    iterating He_{j+1} = x He_j - j He_{j-1}."""
    prev, cur = [], [1]
    for j in range(n):
        pairs = itertools.zip_longest([0, *cur], prev, fillvalue=0)
        prev, cur = cur, [a - j * b for a, b in pairs]
    return tuple(cur)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _gauss_polynomial(f: GridKernel) -> dict:
    """f's integral as a polynomial in m independent standard normals,
    WITHOUT the overall m^(-p/2) and scale factors: the Hermite product
    prod_i He_{k_i}(xi_i) of each orbit of `_cell_plan`, times its summed
    coefficient."""
    m = f.resolution
    poly: dict = {}
    for variables, mults, a in _cell_plan(f):
        cell_poly: dict = {(0,) * m: 1}
        for var, cnt in zip(variables.tolist(), mults.tolist()):
            # var has exponent 0 in every key so far, so no two keys collide
            cell_poly = {exps[:var] + (e,) + exps[var + 1 :]: co * c
                         for exps, co in cell_poly.items()
                         for e, c in enumerate(_hermite_coeffs(cnt)) if c}
        for exps, co in cell_poly.items():
            poly[exps] = poly.get(exps, 0) + a * co
    return {e: c for e, c in poly.items() if c != 0}


def wick_oracle_moment(f: GridKernel, k: int) -> Scalar:
    """E[F^k] computed with no contraction machinery at all: F is written
    exactly as a polynomial in m independent standard normals via the
    Hermite product rule, raised to the k-th power symbolically, and
    integrated termwise with E[xi^n] = (n-1)!! (0 for odd n).

    Its predicted work, checked against the entry budget before anything is
    built, counts p^2 + (kp)^2 table entries (He_0..He_p, E[xi^e] for e <= kp),
    s*p*m exponents written for F's n-term polynomial and t_j*n*m for the j-th
    of the k products, with s = C(m+p-1, p) 2^(p//2), n = min(C(p+m, m), s),
    t_0 = 1 and t_j = min(C(jp+m, m), t_{j-1} n) bounding the j-th power.

    Exact in exact mode whenever the global factor sqrt(scale_sq^k / m^(kp))
    is rational (always true for even k*p and rational scales); otherwise
    the rational part is computed exactly and the root applied in binary64.
    """
    if k < 1:
        raise InvalidInputError("moment order k must be >= 1")
    if not is_symmetric(f):
        raise PreconditionError("the Wick oracle requires a symmetric kernel")
    p, m = f.order, f.resolution
    if p == 0:
        return scaled_scalar(f.coeffs[0] ** k, f.scale_sq, k, f.mode)
    cap = entry_budget()
    work = p * p + (k * p) ** 2  # the He_j and E[xi^e] tables
    if work <= cap:  # else 2^(p//2) below may be vast
        split = math.comb(m + p - 1, p) << p // 2  # He_c has c//2+1 <= 2^(c//2) terms
        n, terms = min(math.comb(p + m, m), split), 1  # bounds on |base| and t_j
        work += split * p * m  # at most p steps per orbit, m exponents per key
        for j in range(k):
            if work > cap:
                break
            work += terms * n * m
            terms = min(math.comb((j + 1) * p + m, m), terms * n)
    if work > cap:
        raise BudgetExceededError(
            k * p, work, cap,
            f"Wick oracle may write {work} table entries and monomial "
            f"exponents, exceeding the budget of {cap}",
        )
    with np.errstate(over="ignore", invalid="ignore"):  # float mode: inf, nan pass on
        base = _gauss_polynomial(f)
        power = {(0,) * m: 1}
        for _ in range(k):
            power = _poly_mul(power, base)
        gauss = [comb.gaussian_moment(e) for e in range(k * p + 1)]
        raw = 0
        for exps, co in power.items():
            if any(e % 2 for e in exps):
                continue
            term = co
            for e in filter(None, exps):
                term *= gauss[e]
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
    self-contraction profile.  Two walks give the B_k and C_k sums and E_k
    is their difference, so a float E_k carries rounding error relative to
    B_k, not to E_k.  For the free model the C_k partial sum is
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
            b_raw, c_raw = _walk(chain, k), _walk(chain, k, "C")
            moment, ck, ek = (
                scaled_scalar(v, f.scale_sq, k, mode)
                for v in (b_raw, c_raw, b_raw - c_raw)
            )
            if exact_chain is not None:
                ck = scaled_scalar(_walk(exact_chain, k, "C"),
                                   exact_f.scale_sq, k, "exact")
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
