"""Index sets driving the k-th moment expansions, and their limit weights.

A contraction tuple (r_1, ..., r_{k-1}) records the ranks used when a k-th
power of an order-p integral is expanded one product at a time.  The running
tensor order after j steps is o_j = (j+1)p - 2(r_1+...+r_j), and the classes
are:

    A: every r_j in {0..p} with r_j <= o_{j-1}   (the expansion tree)
    B: A with o_{k-1} = 0                         (the moment terms)
    C: B with every r_j in {0, p}                 (full/tensor steps only)
    E: B \\ C

Class C is in bijection with Dyck paths, which is where the Catalan numbers
enter: #C_k = Cat_{k/2} for even k, independently of p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import InvalidInputError

CLASSES = ("A", "B", "C", "E")


@dataclass(frozen=True)
class ContractionTuple:
    """A validated member of A_k / B_k / C_k / E_k for one (p, k)."""

    p: int
    k: int
    r: tuple[int, ...]
    cls: str

    def __post_init__(self):
        p, k, r, cls = self.p, self.k, self.r, self.cls
        if cls not in CLASSES:
            raise InvalidInputError(f"unknown tuple class {cls!r}")
        if p < 1 or k < 2:
            raise InvalidInputError("contraction tuples need p >= 1, k >= 2")
        if len(r) != k - 1:
            raise InvalidInputError(f"expected {k - 1} ranks, got {len(r)}")
        order = p
        for j, rj in enumerate(r, start=1):
            if not 0 <= rj <= p:
                raise InvalidInputError(f"r_{j}={rj} outside 0..{p}")
            if rj > order:
                raise InvalidInputError(
                    f"r_{j}={rj} exceeds the running order {order}"
                )
            order += p - 2 * rj
        if cls in ("B", "C", "E") and order != 0:
            raise InvalidInputError(
                f"class {cls} requires 2*sum(r) = kp, got final order {order}"
            )
        in_c = all(rj in (0, p) for rj in r)
        if cls == "C" and not in_c:
            raise InvalidInputError("class C requires every rank in {0, p}")
        if cls == "E" and in_c:
            raise InvalidInputError("class E excludes tuples with all ranks in {0, p}")


def _finest_class(p: int, r: tuple[int, ...]) -> str:
    order = p
    for rj in r:
        order += p - 2 * rj
    if order != 0:
        return "A"
    return "C" if all(rj in (0, p) for rj in r) else "E"


def enumerate_tuples(p: int, k: int, cls: str) -> list[ContractionTuple]:
    """Complete, duplicate-free, lexicographic enumeration of one class."""
    if cls not in CLASSES:
        raise InvalidInputError(f"unknown tuple class {cls!r}")
    if p < 1 or k < 2:
        raise InvalidInputError("enumeration needs p >= 1, k >= 2")
    out: list[ContractionTuple] = []
    closed = cls in ("B", "C", "E")
    steps = k - 1

    def rec(prefix: tuple[int, ...], order: int) -> None:
        depth = len(prefix)
        if depth == steps:
            if closed and order != 0:
                return
            finest = _finest_class(p, prefix)
            if cls == "C" and finest != "C":
                return
            if cls == "E" and finest != "E":
                return
            out.append(ContractionTuple(p, k, prefix, cls))
            return
        left = steps - depth
        choices = (0, p) if cls == "C" and p > 0 else range(0, min(p, order) + 1)
        for rj in choices:
            if rj > min(p, order):
                continue
            new_order = order + p - 2 * rj
            if closed:
                # prune branches that cannot come back to order 0
                if new_order > (left - 1) * p:
                    continue
                if (new_order + (left - 1) * p) % 2:
                    continue
            rec(prefix + (rj,), new_order)

    rec((), p)
    return out


def catalan(n: int) -> int:
    """C(2n, n) / (n + 1)."""
    if n < 0:
        raise InvalidInputError("catalan(n) needs n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def count_C(p: int, k: int) -> int:
    return len(enumerate_tuples(p, k, "C"))


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gaussian_moment(k: int) -> int:
    """k-th moment of the standard normal: (k-1)!! for even k, else 0."""
    if k < 0:
        raise InvalidInputError("moment order must be >= 0")
    return double_factorial(k - 1) if k % 2 == 0 else 0


def semicircle_moment(k: int) -> int:
    """k-th moment of the standard semicircle: Cat_{k/2} for even k, else 0."""
    if k < 0:
        raise InvalidInputError("moment order must be >= 0")
    return catalan(k // 2) if k % 2 == 0 else 0


def dyck_check(t: ContractionTuple) -> bool:
    """Map an all-{0,p} tuple to steps s_j = 1 - 2 r_j/p and test the
    lattice-path conditions: 1 + s_1 + ... + s_j >= 0 up to j = k-2 and
    total 0."""
    if t.cls != "C":
        raise InvalidInputError("dyck_check applies to class-C tuples")
    s = [1 - 2 * rj // t.p for rj in t.r]
    height = 1
    for j, sj in enumerate(s, start=1):
        height += sj
        if j <= t.k - 2 and height < 0:
            return False
    return height == 0


def dyck_path_count(k: int) -> int:
    """Number of {-1,1}^(k-1) step sequences with all partial sums
    1 + s_1 + ... + s_j >= 0 (j <= k-2) and total zero."""
    if k < 2:
        raise InvalidInputError("dyck_path_count needs k >= 2")
    count = 0
    for signs in product((-1, 1), repeat=k - 1):
        height = 1
        ok = True
        for j, sj in enumerate(signs, start=1):
            height += sj
            if j <= k - 2 and height < 0:
                ok = False
                break
        if ok and height == 0:
            count += 1
    return count


def classical_coeff_seq(p: int, r: tuple[int, ...]) -> int:
    """Classical expansion weight of a raw rank sequence (no validation)."""
    coeff = 1
    order = p
    for rj in r:
        coeff *= math.factorial(rj) * math.comb(p, rj) * math.comb(order, rj)
        order += p - 2 * rj
    return coeff


def classical_coeff(t: ContractionTuple) -> int:
    """prod_j r_j! C(p, r_j) C(o_{j-1}, r_j), the weight each tuple carries
    in the classical k-th moment expansion."""
    return classical_coeff_seq(t.p, t.r)


def limit_weight(t: ContractionTuple) -> int:
    """prod_j C(o_{j-1}/p, r_j/p): the p-independent weight whose sum over
    C_k gives the Gaussian moment (k-1)!!."""
    if t.cls != "C":
        raise InvalidInputError("limit_weight applies to class-C tuples")
    weight = 1
    order = t.p
    for rj in t.r:
        weight *= math.comb(order // t.p, rj // t.p)
        order += t.p - 2 * rj
    return weight


def limit_value(t: ContractionTuple) -> Fraction:
    """Limiting value of the iterated symmetrized contraction along t for a
    variance-normalized family with vanishing lower contractions:
    limit_weight(t) / prod_j r_j! C(o_{j-1}, r_j)."""
    if t.cls != "C":
        raise InvalidInputError("limit_value applies to class-C tuples")
    denom = 1
    order = t.p
    for rj in t.r:
        denom *= math.factorial(rj) * math.comb(order, rj)
        order += t.p - 2 * rj
    return Fraction(limit_weight(t), denom)
