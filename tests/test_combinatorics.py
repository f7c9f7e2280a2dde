from fractions import Fraction
from itertools import product

import pytest

from chaoskit.combinatorics import (
    ContractionTuple,
    catalan,
    classical_coeff,
    classical_coeff_seq,
    count_C,
    double_factorial,
    dyck_check,
    dyck_path_count,
    enumerate_tuples,
    gaussian_moment,
    limit_value,
    limit_weight,
    rank_steps,
    rank_tree,
    semicircle_moment,
)
from chaoskit.config import budget
from chaoskit.errors import BudgetExceededError, InvalidInputError
from chaoskit.kernels import constant_kernel
from chaoskit.moments import chain_values


def test_enumerate_c_p2_k4():
    assert [t.r for t in enumerate_tuples(2, 4, "C")] == [(0, 2, 2), (2, 0, 2)]


def test_enumerate_b_p1_k2():
    assert [t.r for t in enumerate_tuples(1, 2, "B")] == [(1,)]


def test_odd_k_class_c_empty():
    for p in (1, 2, 3):
        for k in (3, 5, 7):
            assert enumerate_tuples(p, k, "C") == []


def test_enumerate_lexicographic_and_unique():
    ts = [t.r for t in enumerate_tuples(3, 6, "B")]
    assert ts == sorted(ts)
    assert len(ts) == len(set(ts))


def test_running_order_constraint_rejected():
    # (2,2,0) violates r_2 <= 2p - 2 r_1 = 0
    with pytest.raises(InvalidInputError):
        ContractionTuple(2, 4, (2, 2, 0), "B")


def test_tuple_class_validation():
    with pytest.raises(InvalidInputError):
        ContractionTuple(2, 4, (1, 1, 2), "C")  # middle ranks, not class C
    with pytest.raises(InvalidInputError):
        ContractionTuple(2, 4, (0, 2, 2), "E")  # that one IS class C
    with pytest.raises(InvalidInputError):
        ContractionTuple(2, 4, (0, 0, 2), "B")  # open chain
    with pytest.raises(InvalidInputError):
        ContractionTuple(2, 4, (0, 2, 2), "X")


def test_catalan_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_count_c_matches_catalan_all_p():
    for p in range(1, 6):
        assert count_C(p, 4) == 2
        assert count_C(p, 6) == 5
        assert count_C(p, 8) == 14
        assert count_C(p, 10) == 42


def test_dyck_check_example():
    t = ContractionTuple(2, 4, (0, 2, 2), "C")
    assert dyck_check(t)
    for p in (2, 3):
        for k in (4, 6, 8):
            assert all(dyck_check(t) for t in enumerate_tuples(p, k, "C"))


def test_dyck_check_wrong_class():
    with pytest.raises(InvalidInputError):
        dyck_check(ContractionTuple(2, 4, (1, 1, 2), "B"))


def test_dyck_path_count_matches_count_c():
    for k in range(2, 11):
        assert dyck_path_count(k) == count_C(3, k)


def test_step_conditions_equivalent_exhaustive():
    # strong and weak partial-sum conditions select the same sign vectors
    for k in range(2, 11):
        strong = set()
        weak = set()
        for s in product((-1, 1), repeat=k - 1):
            partial = [1]
            for sj in s:
                partial.append(partial[-1] + sj)
            if partial[-1] != 0:
                continue
            if all(
                partial[j] >= (1 - s[j]) / 2 for j in range(1, k - 1)
            ):
                strong.add(s)
            if all(partial[j] >= 0 for j in range(1, k - 1)):
                weak.add(s)
        assert strong == weak
        assert len(weak) == dyck_path_count(k)


def test_classical_coeff_examples():
    assert classical_coeff(ContractionTuple(1, 2, (1,), "B")) == 1
    assert classical_coeff(ContractionTuple(2, 4, (0, 2, 2), "C")) == 24
    assert classical_coeff(ContractionTuple(2, 4, (0, 0, 0), "A")) == 1
    assert classical_coeff(ContractionTuple(2, 4, (1, 1, 2), "B")) == 32
    assert classical_coeff(ContractionTuple(2, 4, (2, 0, 2), "C")) == 4


def test_coeff_positive_over_class_a():
    for p in (1, 2, 3):
        for k in (3, 4, 5):
            for t in enumerate_tuples(p, k, "A"):
                assert classical_coeff(t) > 0


def test_limit_weight_examples():
    t1 = ContractionTuple(2, 4, (0, 2, 2), "C")
    t2 = ContractionTuple(2, 4, (2, 0, 2), "C")
    assert limit_weight(t1) == 2
    assert limit_weight(t2) == 1
    assert limit_weight(t1) + limit_weight(t2) == 3 == gaussian_moment(4)
    assert limit_value(t1) == Fraction(1, 12)
    assert limit_value(t2) == Fraction(1, 4)


def test_limit_weight_sums():
    for p in (2, 3, 4):
        for k in (4, 6, 8):
            total = sum(limit_weight(t) for t in enumerate_tuples(p, k, "C"))
            assert total == gaussian_moment(k)


def test_limit_ops_reject_wrong_class():
    t = ContractionTuple(2, 4, (1, 1, 2), "B")
    with pytest.raises(InvalidInputError):
        limit_weight(t)
    with pytest.raises(InvalidInputError):
        limit_value(t)


def test_gaussian_and_semicircle_moments():
    assert gaussian_moment(6) == 15
    assert gaussian_moment(8) == 105
    assert semicircle_moment(8) == 14
    assert gaussian_moment(5) == semicircle_moment(5) == 0
    assert gaussian_moment(0) == semicircle_moment(0) == 1
    assert double_factorial(-1) == 1


def test_class_partition():
    for p in (1, 2, 3):
        for k in (3, 4, 5, 6, 7):
            a = {t.r for t in enumerate_tuples(p, k, "A")}
            b = {t.r for t in enumerate_tuples(p, k, "B")}
            c = {t.r for t in enumerate_tuples(p, k, "C")}
            e = {t.r for t in enumerate_tuples(p, k, "E")}
            assert b <= a
            assert c | e == b
            assert not (c & e)


def test_b3_p2_not_empty():
    # sum 2 r = 3p is attainable for p = 2: the third moment of a
    # second-chaos element need not vanish (E[(xi^2-1)^3] = 8)
    assert [t.r for t in enumerate_tuples(2, 3, "B")] == [(1, 2)]
    # parity does empty B_k when k*p is odd
    assert enumerate_tuples(1, 3, "B") == []
    assert enumerate_tuples(3, 3, "B") == []


def test_k2_degenerate():
    for p in (1, 2, 3):
        ts = enumerate_tuples(p, 2, "B")
        assert [t.r for t in ts] == [(p,)]


def _brute_class(p, k, cls):
    """Every rank sequence in {0..p}^(k-1), lexicographic, filtered by the
    class definitions of the module docstring."""
    out = []
    for r in product(range(p + 1), repeat=k - 1):
        order, in_a = p, True
        for rj in r:
            in_a = in_a and rj <= order
            order += p - 2 * rj
        in_c = all(rj in (0, p) for rj in r)
        closed = in_a and order == 0
        if {"A": in_a, "B": closed, "C": closed and in_c, "E": closed and not in_c}[cls]:
            out.append(r)
    return out


@pytest.mark.parametrize("cls", ["A", "B", "C", "E"])
def test_rank_tree_matches_brute_force(cls):
    for p in (1, 2, 3):
        for k in range(2, 8):
            tree = rank_tree(p, k, cls)
            assert [r for r, _ in tree] == _brute_class(p, k, cls), (p, k)
            assert [w for _, w in tree] == [classical_coeff_seq(p, r) for r, _ in tree]


def test_rank_steps_tables():
    # p = 2, k = 4, class B, weights r! C(2, r) C(o, r); a rank 2 from
    # order 2 at the second step is cut, since one step cannot close order 0
    assert rank_steps(2, 4, "B") == [
        {2: [(0, 1), (1, 4), (2, 2)]},
        {0: [(0, 1)], 2: [(1, 4)], 4: [(2, 12)]},
        {2: [(2, 2)]},
    ]
    # every listed rank leads to an order that the next table lists ranks for
    for p, k, cls in product((1, 2, 3, 4), range(2, 10), "ABC"):
        tables = rank_steps(p, k, cls)
        for table, after in zip(tables, tables[1:]):
            for order, ranks in table.items():
                assert all(after[order + p - 2 * r] for r, _ in ranks), (p, k, cls)
    assert rank_steps(2, 4, "C")[0] == {2: [(0, 1), (2, 2)]}
    with pytest.raises(InvalidInputError):
        rank_steps(2, 1, "B")
    with pytest.raises(InvalidInputError):
        rank_tree(2, 4, "X")


@pytest.mark.parametrize("model", ["classical", "free"])
def test_chain_values_keys_are_the_rank_tree(model):
    for p in (1, 2, 3):
        f = constant_kernel(p, 2)
        for k in range(2, 6):
            for cls in "BCE":
                tuples = [r for r, _ in rank_tree(p, k, cls)]
                assert list(chain_values(f, k, model, cls)) == tuples, (p, k, cls)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_rank_tree_refuses_more_tuples_than_the_budget(p):
    # the count comes from the rank tables (E as B minus C), the list from
    # rank_tree, so the budget boundary checks one against the other
    for k in range(2, 9):
        for cls in "ABCE":
            n = len(rank_tree(p, k, cls))
            with budget(max(n, 1)):
                assert len(rank_tree(p, k, cls)) == n
            if n > 1:
                with budget(n - 1), pytest.raises(BudgetExceededError):
                    rank_tree(p, k, cls)
