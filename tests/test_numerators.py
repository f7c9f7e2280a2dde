"""The exact number format: integer numerators plus one rational factor.

Every int64 site must switch to Python ints before numpy could wrap, so the
overflow tests build numerators near 2**62, or factors over pairwise-coprime
denominators whose lcm passes 2**63, and compare each result as a Fraction
equality against the brute-force references of conftest.
"""

from fractions import Fraction

import numpy as np
import pytest

from chaoskit.combinatorics import classical_coeff_seq
from chaoskit.contractions import (
    contract_arrays_classical,
    contract_arrays_free,
    contract_classical,
    contract_classical_sym,
    contract_free,
)
from chaoskit.kernels import (
    GridKernel,
    add,
    adjoint,
    l2_inner,
    new_kernel,
    scale,
    symmetrize,
)
from chaoskit.moments import _Chain, chain_values, classical_moment, free_moment

from conftest import (
    brute_contract_classical,
    brute_contract_free,
    brute_symmetrize,
    random_kernel,
)

BIG = 2**62
# pairwise coprime; the lcm of any two passes 2**63
WIDE_DENS = (2**32 + 15, 2**32 + 17, 2**32 + 19)


def big_kernel(rng, p: int, m: int, den: int = 1) -> GridKernel:
    """Numerators within 2**20 of +-2**62 over one denominator."""
    nums = [int(rng.integers(-(2**20), 2**20)) + BIG * int(rng.choice((-1, 1)))
            for _ in range(m**p)]
    return new_kernel(p, m, [Fraction(n, den) for n in nums])


def test_numerators_are_canonical():
    f = new_kernel(2, 2, [Fraction(1, 2), Fraction(-3, 4), 0, Fraction(3, 2)])
    assert f.nums.dtype == np.int64 and f.nums.tolist() == [2, -3, 0, 6]
    assert f.factor == Fraction(1, 4)
    # the same coefficients reached another way give the same pair
    g = scale(new_kernel(2, 2, [-2, 3, 0, -6]), Fraction(-1, 4))
    assert g.nums.tolist() == f.nums.tolist() and g.factor == f.factor and g == f
    z = scale(f, 0)
    assert z.is_zero() and z.factor == 1 and z.nums.tolist() == [0] * 4
    assert list(f.coeffs) == [Fraction(1, 2), Fraction(-3, 4), 0, Fraction(3, 2)]
    assert all(type(c) is Fraction for c in f.coeffs)


def test_coefficients_round_trip_through_numerators(rng):
    for p, m in ((0, 1), (1, 3), (2, 2), (3, 2)):
        f = random_kernel(rng, p, m)
        g = GridKernel(p, m, "exact", f.coeffs, f.scale_sq)
        assert g == f and list(g.coeffs) == list(f.coeffs)
    wide = new_kernel(1, 3, [Fraction(BIG, d) for d in WIDE_DENS])
    assert wide.nums.dtype == object  # the common denominator passes int64
    assert list(wide.coeffs) == [Fraction(BIG, d) for d in WIDE_DENS]


def test_contraction_dot_overflow_falls_back(rng):
    for p, q, m in ((1, 1, 3), (2, 2, 2), (3, 2, 2), (2, 1, 3)):
        f, g = big_kernel(rng, p, m), big_kernel(rng, q, m)
        assert f.nums.dtype == g.nums.dtype == np.int64
        for r in range(min(p, q) + 1):
            assert contract_classical(f, g, r) == brute_contract_classical(f, g, r)
            assert contract_free(f, g, r) == brute_contract_free(f, g, r)
            for routine in (contract_arrays_classical, contract_arrays_free):
                assert routine(f.nums, p, g.nums, q, r, m).dtype == object
        want = sum(a * b for a, b in zip(f.coeffs, f.coeffs)) / m**p
        assert l2_inner(f, f) == want


def test_single_entry_factor_stays_positive():
    # np.gcd.reduce of a one-entry array is the entry itself, sign included
    neg = new_kernel(0, 1, [-(2**70)])
    assert neg.factor > 0
    assert neg == scale(new_kernel(0, 1, [2**70]), -1)
    assert new_kernel(0, 1, [-3]).factor == 3


def _fuse_classical(f, *parts):
    """_Chain.fuse of f with the kernels of `parts` ((kernel, r_i) pairs),
    as (order, coefficients) of the block it stores."""
    chain = _Chain(f.nums, f.factor, f.order, f.resolution, f.mode)
    ids = [(chain.add(g.order, g.nums, g.factor), r) for g, r in parts]
    kind, i = chain.fuse(ids, contract_arrays_classical)
    assert kind == "f"
    return chain.orders[i], [chain.factors[i] * int(x) for x in chain.arrays[i]]


def test_fuse_raw_sums_overflow_falls_back(rng):
    f, g, h = big_kernel(rng, 3, 2), big_kernel(rng, 2, 2), big_kernel(rng, 1, 2)
    # the same two contractions one after the other by brute force
    ref = brute_contract_classical(h, brute_contract_classical(g, f, 1), 1)
    assert _fuse_classical(f, (g, 1), (h, 1)) == (2, list(ref.coeffs))


def test_fuse_widens_mid_fold(rng, monkeypatch):
    # the first step's sums fit int64 and stay there; the second step's
    # operands could overflow, so that step alone runs on Python ints
    f = new_kernel(3, 2, [int(x) for x in rng.integers(-(2**20), 2**20, 8)])
    g = new_kernel(2, 2, [int(x) + 2**40 for x in rng.integers(-(2**20), 2**20, 4)])
    h = new_kernel(1, 2, [2**20 + 1, -(2**20) + 3])
    assert f.nums.dtype == g.nums.dtype == h.nums.dtype == np.int64
    dtypes = []
    dot = np.dot

    def recorded_dot(a, b):
        dtypes.append(a.dtype)
        return dot(a, b)

    monkeypatch.setattr(np, "dot", recorded_dot)
    ref = brute_contract_classical(h, brute_contract_classical(g, f, 1), 1)
    assert _fuse_classical(f, (g, 1), (h, 1)) == (2, list(ref.coeffs))
    assert dtypes == [np.int64, object]


def test_symmetrization_accumulate_overflow_falls_back(rng):
    for p, m in ((2, 3), (3, 2), (4, 2)):
        f = big_kernel(rng, p, m)
        assert symmetrize(f) == brute_symmetrize(f)
        assert contract_classical_sym(f, f, 1) == brute_symmetrize(
            brute_contract_classical(f, f, 1)
        )


def test_add_over_wide_common_denominator_falls_back(rng):
    for p, m in ((1, 3), (2, 2)):
        f = big_kernel(rng, p, m, den=WIDE_DENS[0])
        g = big_kernel(rng, p, m, den=WIDE_DENS[1])
        h = add(f, g)
        assert h.nums.dtype == object
        assert list(h.coeffs) == [a + b for a, b in zip(f.coeffs, g.coeffs)]
        # small numerators too: only the lcm of the factors is large
        s = new_kernel(p, m, [Fraction(1, WIDE_DENS[2])] * m**p)
        t = new_kernel(p, m, [Fraction(-1, WIDE_DENS[0])] * m**p)
        assert list(add(s, t).coeffs) == [
            Fraction(1, WIDE_DENS[2]) - Fraction(1, WIDE_DENS[0])
        ] * m**p
    # int64 numerators meet Python-int ones
    w = new_kernel(1, 3, [Fraction(BIG, d) for d in WIDE_DENS])
    f = big_kernel(rng, 1, 3, den=7)
    assert f.nums.dtype == np.int64 and w.nums.dtype == object
    assert list(add(f, w).coeffs) == [a + b for a, b in zip(f.coeffs, w.coeffs)]


def test_results_return_to_int64_when_they_fit():
    f = new_kernel(1, 2, [BIG + 1, BIG - 1])
    assert contract_arrays_classical(f.nums, 1, f.nums, 1, 1, 2).dtype == object
    h = contract_classical(f, f, 1)  # one numerator near 2**125: the gcd moves it
    assert h.nums.dtype == np.int64 and h.nums.tolist() == [1]
    assert h.factor == Fraction((BIG + 1) ** 2 + (BIG - 1) ** 2, 2)


def _weighted_sum(f, k, model):
    values = chain_values(f, k, model)
    if model == "free":
        return sum(values.values(), Fraction(0))
    return sum((classical_coeff_seq(f.order, t) * v for t, v in values.items()),
               Fraction(0))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_merged_moments_on_wide_numerators(rng, p):
    """Merged moments equal the per-tuple sums as Fractions when every block
    of the chain runs on Python-int numerators."""
    for m in (1, 2, 3):
        kmax = 6 if m**p <= 9 else 4
        den = WIDE_DENS[m - 1]
        for k in range(2, kmax + 1):
            f = big_kernel(rng, p, m, den)
            assert classical_moment(f, k) == _weighted_sum(f, k, "classical"), (p, m, k)
            g = add(f, adjoint(f))
            assert free_moment(g, k) == _weighted_sum(g, k, "free"), (p, m, k)
