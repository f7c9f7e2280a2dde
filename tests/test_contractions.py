from fractions import Fraction

import numpy as np
import pytest

from chaoskit.config import budget
from chaoskit.errors import BudgetExceededError, InvalidInputError
from chaoskit.kernels import (
    adjoint,
    as_float,
    constant_kernel,
    is_mirror_symmetric,
    l2_norm_sq,
    new_kernel,
    normalize_variance,
    symmetrize,
)
from chaoskit.contractions import (
    contract_classical,
    contract_classical_sym,
    contract_free,
    multi_contract,
)

from conftest import (
    brute_contract_classical,
    brute_contract_free,
    random_kernel,
    random_mirror_kernel,
)


def test_full_contraction_is_inner_product():
    ones = constant_kernel(1, 1)
    h = contract_classical(ones, ones, 1)
    assert h.order == 0 and h.coeffs[0] == 1


def test_pair_self_contraction(pair_kernel):
    h = contract_classical(pair_kernel, pair_kernel, 1)
    assert list(h.coeffs) == [Fraction(1, 2), 0, 0, Fraction(1, 2)]
    hs = contract_classical_sym(pair_kernel, pair_kernel, 1)
    assert hs == h  # already symmetric


def test_tensor_product_norm_equality(rng):
    f = random_kernel(rng, 2, 2)
    g = random_kernel(rng, 1, 2)
    h = contract_classical(f, g, 0)
    assert h.order == 3
    assert l2_norm_sq(h) == l2_norm_sq(f) * l2_norm_sq(g)


def test_free_pair_scaled(pair_kernel):
    f = normalize_variance(pair_kernel, "free")  # scale_sq = 2
    h = contract_free(f, f, 1)
    # semantic coefficients are sqrt(4) * [1/2, 0, 0, 1/2] = [1, 0, 0, 1]
    assert h.scale_sq == 4
    assert list(h.coeffs) == [Fraction(1, 2), 0, 0, Fraction(1, 2)]
    assert l2_norm_sq(h) == Fraction(1, 2)


def test_full_free_contraction_unit(rng):
    f = normalize_variance(random_mirror_kernel(rng, 2, 3), "free")
    h = contract_free(f, f, 2)
    assert h.order == 0
    from chaoskit.kernels import scaled_scalar

    assert scaled_scalar(h.coeffs[0], h.scale_sq, 1, "exact") == 1


def test_symmetric_free_equals_classical(rng):
    f = symmetrize(random_kernel(rng, 3, 2))
    for r in range(0, 4):
        assert contract_free(f, f, r) == contract_classical(f, f, r)


def test_against_brute_force(rng):
    for p, q, m in ((1, 1, 3), (2, 1, 2), (2, 2, 2), (3, 2, 2), (2, 2, 3)):
        f = random_kernel(rng, p, m)
        g = random_kernel(rng, q, m)
        for r in range(0, min(p, q) + 1):
            assert contract_classical(f, g, r) == brute_contract_classical(f, g, r)
            assert contract_free(f, g, r) == brute_contract_free(f, g, r)


def test_cauchy_schwarz(rng):
    for _ in range(5):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        f = random_kernel(rng, p, 2)
        g = random_kernel(rng, q, 2)
        bound = l2_norm_sq(f) * l2_norm_sq(g)
        for r in range(0, min(p, q) + 1):
            h = contract_classical(f, g, r)
            assert l2_norm_sq(h) <= bound
            assert l2_norm_sq(contract_classical_sym(f, g, r)) <= l2_norm_sq(h)
            assert l2_norm_sq(contract_free(f, g, r)) <= bound
        assert l2_norm_sq(contract_classical(f, g, 0)) == bound
        assert l2_norm_sq(contract_free(f, g, 0)) == bound


def test_free_self_contraction_mirror(rng):
    # (f fr_r f)* = f fr_r f for mirror-symmetric f
    f = random_mirror_kernel(rng, 3, 2)
    for r in range(0, 3):
        h = contract_free(f, f, r)
        assert is_mirror_symmetric(h)
        assert adjoint(h) == h


def test_constant_bookkeeping():
    # ones(p) fr_r ones(q) = ones(p+q-2r): grid measure factors are consistent
    for p, q in ((2, 2), (3, 2), (3, 3)):
        f = constant_kernel(p, 2)
        g = constant_kernel(q, 2)
        for r in range(0, min(p, q) + 1):
            h = contract_free(f, g, r)
            assert h.order == p + q - 2 * r
            assert h == constant_kernel(p + q - 2 * r, 2)


def test_rank_out_of_range(pair_kernel):
    with pytest.raises(InvalidInputError):
        contract_classical(pair_kernel, pair_kernel, 3)
    with pytest.raises(InvalidInputError):
        contract_free(pair_kernel, pair_kernel, -1)


def test_resolution_mismatch(pair_kernel):
    with pytest.raises(InvalidInputError):
        contract_classical(pair_kernel, constant_kernel(2, 3), 1)


def test_mode_mismatch(pair_kernel):
    with pytest.raises(InvalidInputError):
        contract_classical(pair_kernel, as_float(pair_kernel), 1)


def test_float_matches_exact(rng):
    f = random_kernel(rng, 2, 3)
    g = random_kernel(rng, 2, 3)
    ff, gf = as_float(f), as_float(g)
    for r in (0, 1, 2):
        exact = contract_classical(f, g, r)
        flt = contract_classical(ff, gf, r)
        for a, b in zip(exact.coeffs, flt.coeffs):
            assert abs(float(a) - b) < 1e-12


def test_multi_contract_matches_sequential(pair_kernel):
    # fusing two rank-1 blocks into the pair kernel gives f^3 / m^2 = f/4;
    # multi_contract returns the raw sums, without the measure factor
    arr, order = multi_contract(
        pair_kernel.coeffs, 2,
        [(pair_kernel.coeffs, 2, 1), (pair_kernel.coeffs, 2, 1)], 2,
    )
    assert order == 2
    assert list(arr / 2**2) == [0, Fraction(1, 4), Fraction(1, 4), 0]


def test_multi_contract_full_contraction_keeps_mode(pair_kernel):
    # sum_S f[S]^2 / m^2 = 2/4 for the pair kernel
    arr, order = multi_contract(
        pair_kernel.coeffs, 2, [(pair_kernel.coeffs, 2, 2)], 2
    )
    assert order == 0 and arr.shape == (1,) and arr.dtype == object
    assert type(arr[0]) is Fraction and arr[0] / 2**2 == Fraction(1, 2)
    ff = as_float(pair_kernel)
    arr, order = multi_contract(ff.coeffs, 2, [(ff.coeffs, 2, 2)], 2)
    assert order == 0 and arr.shape == (1,) and arr.dtype == np.float64
    assert arr[0] / 2**2 == 0.5


def test_multi_contract_checks_every_intermediate(monkeypatch):
    # an order-3 core with parts of order 4 (r = 1) and 3 (r = 2) at m = 2:
    # the result has order 4 (16 entries), the first step order 5 (32)
    rng = np.random.default_rng(0)
    core, a, b = (rng.integers(-3, 4, 2**o) for o in (3, 4, 3))
    parts = [(a, 4, 1), (b, 3, 2)]
    x = np.einsum("abck,ijk->abcij", a.reshape((2,) * 4), core.reshape((2,) * 3))
    want = np.einsum("eij,abcij->eabc", b.reshape((2,) * 3), x).reshape(-1)
    built = []
    dot = np.dot

    def counted_dot(x, y):
        built.append(x.shape[0] * y.shape[1])
        return dot(x, y)

    monkeypatch.setattr(np, "dot", counted_dot)
    with budget(16), pytest.raises(BudgetExceededError, match="order 5 needs 32"):
        multi_contract(core, 3, parts, 2)
    assert built == []
    with budget(32):
        arr, order = multi_contract(core, 3, parts, 2)
    assert order == 4 and built == [32, 16] and arr.tolist() == want.tolist()


def test_multi_contract_overconsumption(pair_kernel):
    with pytest.raises(InvalidInputError):
        multi_contract(
            pair_kernel.coeffs, 2,
            [(pair_kernel.coeffs, 2, 2), (pair_kernel.coeffs, 2, 1)], 2,
        )


def test_sym_contraction_matches_brute(rng):
    from conftest import brute_symmetrize

    for p, q, m in ((2, 2, 2), (3, 2, 2), (2, 1, 3)):
        f = random_kernel(rng, p, m)
        g = random_kernel(rng, q, m)
        for r in range(0, min(p, q) + 1):
            expect = brute_symmetrize(brute_contract_classical(f, g, r))
            assert contract_classical_sym(f, g, r) == expect


def test_sym_tensor_product_of_basis_cells():
    # e1 ox e2 at m=2 symmetrizes to half-mass on both mixed cells
    e1 = new_kernel(1, 2, [1, 0])
    e2 = new_kernel(1, 2, [0, 1])
    h = contract_classical_sym(e1, e2, 0)
    assert list(h.coeffs) == [0, Fraction(1, 2), Fraction(1, 2), 0]


def test_sym_full_contraction_is_same_scalar(rng):
    f = random_kernel(rng, 2, 2)
    g = random_kernel(rng, 2, 2)
    assert contract_classical_sym(f, g, 2) == contract_classical(f, g, 2)
