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

The rule for which rank may follow from which running order lives here
once, in `rank_steps`, together with the classical step weight
r! C(p, r) C(o, r).  `rank_tree` grows every tuple of a class with its
weight from that table; `enumerate_tuples`, the `index-sets` command and
the moment walk in moments.py all iterate it.  `rank_tree` counts the class
from the same table first and refuses more tuples than the entry budget.
`ContractionTuple` checks each tuple against the definitions above without
using the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .config import entry_budget
from .errors import BudgetExceededError, InvalidInputError

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
        orders = _running_orders(p, r)
        for j, (rj, order) in enumerate(zip(r, orders), start=1):
            if not 0 <= rj <= p:
                raise InvalidInputError(f"r_{j}={rj} outside 0..{p}")
            if rj > order:
                raise InvalidInputError(
                    f"r_{j}={rj} exceeds the running order {order}"
                )
        if cls in ("B", "C", "E") and orders[-1] != 0:
            raise InvalidInputError(
                f"class {cls} requires 2*sum(r) = kp, got final order {orders[-1]}"
            )
        in_c = all(rj in (0, p) for rj in r)
        if cls == "C" and not in_c:
            raise InvalidInputError("class C requires every rank in {0, p}")
        if cls == "E" and in_c:
            raise InvalidInputError("class E excludes tuples with all ranks in {0, p}")


def _running_orders(p: int, r: tuple[int, ...]) -> list[int]:
    """The running orders o_0 = p, o_1, ..., o_len(r) along r."""
    orders = [p]
    for rj in r:
        orders.append(orders[-1] + p - 2 * rj)
    return orders


def _step_weight(p: int, order: int, r: int) -> int:
    """Classical weight of a rank-r step from running order `order`."""
    return math.factorial(r) * math.comb(p, r) * math.comb(order, r)


def rank_steps(p: int, k: int, cls: str) -> list[dict[int, list[tuple[int, int]]]]:
    """The rank rule of one class, one table per step.

    Table j maps each running order that a j-step prefix of the class can
    reach to the ranks allowed next, ascending, each with its classical
    step weight r! C(p, r) C(o, r).  Closed classes keep only the ranks
    after which the chain can still return to order 0.  E shares B's
    table; its tuples are those of B with a rank outside {0, p}.
    """
    if cls not in CLASSES:
        raise InvalidInputError(f"unknown tuple class {cls!r}")
    if p < 1 or k < 2:
        raise InvalidInputError("rank tuples need p >= 1, k >= 2")
    tables: list[dict] = []
    reach = {p}
    unit = 2 * p if cls == "C" else 2  # an order moves by p - 2r per step
    for left in range(k - 1, 0, -1):  # steps to go, counting this one
        # the later steps close the orders up to (left - 1) p that differ from
        # it by a multiple of `unit`, except that one last step closes only p
        room = (left - 1) * p
        closable = {p} if left == 2 else set(range(room, -1, -unit))
        choices = (0, p) if cls == "C" else range(p + 1)
        table = {
            order: [(r, _step_weight(p, order, r)) for r in choices
                    if r <= order and (cls == "A" or order + p - 2 * r in closable)]
            for order in sorted(reach)
        }
        tables.append(table)
        reach = {o + p - 2 * r for o, ranks in table.items() for r, _ in ranks}
    return tables


def _class_size(p: int, k: int, cls: str) -> int:
    """The number of tuples of one class, counted level by level from
    `rank_steps` without building them; E is B minus C."""
    if cls == "E":
        return _class_size(p, k, "B") - _class_size(p, k, "C")
    counts = {p: 1}
    for table in rank_steps(p, k, cls):
        nxt: dict[int, int] = {}
        for order, n in counts.items():
            for r, _ in table[order]:
                reached = order + p - 2 * r
                nxt[reached] = nxt.get(reached, 0) + n
        counts = nxt
    return sum(counts.values())


def rank_tree(p: int, k: int, cls: str) -> list[tuple[tuple[int, ...], int]]:
    """Every tuple of one class with its classical weight
    prod_j r_j! C(p, r_j) C(o_{j-1}, r_j), in lexicographic order, grown
    level by level from `rank_steps`.  Raises BudgetExceededError when the
    class has more tuples than the entry budget."""
    size, cap = _class_size(p, k, cls), entry_budget()
    if size > cap:
        raise BudgetExceededError(
            k, size, cap, f"class {cls} at p={p}, k={k} has {size} rank tuples, "
            f"exceeding the budget of {cap}")
    level = [((), 1, p)]
    for table in rank_steps(p, k, cls):
        level = [
            (r + (rj,), w * sw, order + p - 2 * rj)
            for r, w, order in level
            for rj, sw in table[order]
        ]
    return [(r, w) for r, w, _ in level if cls != "E" or any(0 < rj < p for rj in r)]


def enumerate_tuples(p: int, k: int, cls: str) -> list[ContractionTuple]:
    """Complete, duplicate-free, lexicographic enumeration of one class."""
    return [ContractionTuple(p, k, r, cls) for r, _ in rank_tree(p, k, cls)]


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
    return math.prod(_step_weight(p, o, rj) for o, rj in zip(_running_orders(p, r), r))


def classical_coeff(t: ContractionTuple) -> int:
    """prod_j r_j! C(p, r_j) C(o_{j-1}, r_j), the weight each tuple carries
    in the classical k-th moment expansion."""
    return classical_coeff_seq(t.p, t.r)


def limit_weight(t: ContractionTuple) -> int:
    """prod_j C(o_{j-1}/p, r_j/p): the p-independent weight whose sum over
    C_k gives the Gaussian moment (k-1)!!."""
    if t.cls != "C":
        raise InvalidInputError("limit_weight applies to class-C tuples")
    orders = _running_orders(t.p, t.r)
    return math.prod(math.comb(o // t.p, rj // t.p) for o, rj in zip(orders, t.r))


def limit_value(t: ContractionTuple) -> Fraction:
    """Limiting value of the iterated symmetrized contraction along t for a
    variance-normalized family with vanishing lower contractions:
    limit_weight(t) / prod_j r_j! C(o_{j-1}, r_j)."""
    if t.cls != "C":
        raise InvalidInputError("limit_value applies to class-C tuples")
    orders = _running_orders(t.p, t.r)
    denom = math.prod(math.factorial(rj) * math.comb(o, rj) for o, rj in zip(orders, t.r))
    return Fraction(limit_weight(t), denom)
