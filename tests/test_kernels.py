import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from chaoskit.config import budget
from chaoskit.errors import BudgetExceededError, InvalidInputError, PreconditionError
from chaoskit.kernels import (
    _orbits,
    add,
    adjoint,
    as_float,
    constant_kernel,
    exact_sqrt,
    family_kernel,
    fold_scale,
    is_mirror_symmetric,
    is_off_diagonal,
    is_symmetric,
    kernel_from_json,
    kernel_to_json,
    l2_inner,
    l2_norm_sq,
    new_kernel,
    normalize_variance,
    off_diagonal_part,
    refine,
    scale,
    symmetrize,
)

from conftest import brute_symmetrize, nonzero, random_kernel


def test_new_kernel_order_zero_scalar():
    f = new_kernel(0, 1, [5])
    assert f.order == 0 and f.coeffs[0] == 5


def test_new_kernel_pair():
    f = new_kernel(2, 2, [0, 1, 1, 0])
    assert f.n_entries == 4


def test_new_kernel_length_mismatch():
    with pytest.raises(InvalidInputError):
        new_kernel(2, 2, [0, 1, 1])


def test_new_kernel_nonfinite_rejected():
    with pytest.raises(InvalidInputError):
        new_kernel(1, 2, [0.0, float("inf")], mode="float")
    with pytest.raises(InvalidInputError):
        new_kernel(1, 2, [0.0, float("nan")], mode="exact")


def test_new_kernel_budget():
    with budget(100):
        with pytest.raises(BudgetExceededError):
            new_kernel(2, 11, [0] * 121)


@pytest.mark.parametrize("build", [
    lambda: family_kernel("pair_clt", n=2000, model="free"),  # 1.6e7 cells
    lambda: constant_kernel(2, 4000),  # 1.6e7 cells
], ids=["pair_clt", "constant"])
def test_refused_kernels_build_no_coefficients(build):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_l2_inner_examples(pair_kernel):
    ones = constant_kernel(1, 1)
    assert l2_inner(ones, ones) == 1
    assert l2_inner(pair_kernel, pair_kernel) == Fraction(1, 2)
    f = constant_kernel(1, 2)
    g = new_kernel(1, 2, [1, -1])
    assert l2_inner(f, g) == 0


def test_l2_inner_mismatch(pair_kernel):
    with pytest.raises(InvalidInputError):
        l2_inner(pair_kernel, constant_kernel(1, 2))
    with pytest.raises(InvalidInputError):
        l2_inner(pair_kernel, constant_kernel(2, 3))


def test_symmetrize_two_element_orbit():
    f = new_kernel(2, 2, [0, 1, 0, 0])
    assert list(symmetrize(f).coeffs) == [0, Fraction(1, 2), Fraction(1, 2), 0]


def test_symmetrize_fixed_point(pair_kernel):
    assert symmetrize(pair_kernel) == pair_kernel


def test_symmetrize_three_cell_orbit():
    # e1 (x) e1 (x) e2 at m=2: mass 1 spreads over the three arrangements
    coeffs = [0] * 8
    coeffs[0 * 4 + 0 * 2 + 1] = 1  # index (1,1,2)
    f = new_kernel(3, 2, coeffs)
    g = symmetrize(f)
    third = Fraction(1, 3)
    expect = {(0, 0, 1): third, (0, 1, 0): third, (1, 0, 0): third}
    for idx in np.ndindex(2, 2, 2):
        assert g.array[idx] == expect.get(idx, 0)


def test_symmetrize_matches_brute_force(rng):
    # exact and float kernels share one symmetrization; coefficients have
    # |a| <= 4, so a float orbit mean of at most p! values errs by less
    # than p! * 4 * eps
    for p in range(5):
        for m in range(1, 5):
            f = random_kernel(rng, p, m)
            sf = symmetrize(f)
            assert sf == brute_symmetrize(f)
            assert all(type(c) is Fraction for c in sf.coeffs)
            ff = symmetrize(as_float(f))
            assert ff.coeffs.dtype == np.float64
            tol = math.factorial(p) * 4 * np.finfo(np.float64).eps
            assert np.max(np.abs(ff.coeffs - as_float(sf).coeffs)) <= tol


def test_symmetrize_idempotent_linear(rng):
    f = random_kernel(rng, 3, 2)
    g = random_kernel(rng, 3, 2)
    sf = symmetrize(f)
    assert symmetrize(sf) == sf
    assert symmetrize(add(f, g)) == add(symmetrize(f), symmetrize(g))
    assert l2_norm_sq(sf) <= l2_norm_sq(f)


def test_adjoint_examples(pair_kernel):
    f = new_kernel(2, 2, [0, 1, 0, 0])
    assert list(adjoint(f).coeffs) == [0, 0, 1, 0]
    assert adjoint(pair_kernel) == pair_kernel
    g = new_kernel(1, 3, [1, 2, 3])
    assert adjoint(g) == g


def test_adjoint_involution_isometry(rng):
    f = random_kernel(rng, 3, 2)
    assert adjoint(adjoint(f)) == f
    assert l2_norm_sq(adjoint(f)) == l2_norm_sq(f)
    # a symmetric kernel is mirror symmetric
    assert adjoint(symmetrize(f)) == symmetrize(f)


def test_predicates(pair_kernel):
    assert is_symmetric(pair_kernel)
    assert is_mirror_symmetric(pair_kernel)
    assert is_off_diagonal(pair_kernel)
    ones2 = constant_kernel(2, 1)
    assert not is_off_diagonal(ones2)
    f = new_kernel(2, 2, [0, 1, 0, 0])
    assert not is_symmetric(f)
    assert not is_mirror_symmetric(f)


def test_is_symmetric_reads_orbits_without_symmetrizing(monkeypatch):
    from chaoskit import kernels

    rng = np.random.default_rng(11)
    sym = [
        symmetrize(new_kernel(p, m, rng.standard_normal(m**p).tolist(), mode="float"))
        for p in (3, 4) for m in (3, 4)
    ]
    # float orbit means are not idempotent, so symmetrize(g) == g can fail
    assert any(symmetrize(g) != g for g in sym)
    skew = new_kernel(3, 3, rng.standard_normal(27).tolist(), mode="float")

    def fail(*args):
        raise AssertionError("is_symmetric must not symmetrize")

    monkeypatch.setattr(kernels, "_sym_array", fail)
    for g in sym:
        assert is_symmetric(g)
        assert is_symmetric(kernel_from_json(kernel_to_json(g))[0])
    assert not is_symmetric(skew)
    assert not is_symmetric(new_kernel(3, 2, [0, 1, 0, 0, 0, 0, 0, 0]))


def test_off_diagonal_part():
    f = constant_kernel(2, 2)
    g = off_diagonal_part(f)
    assert list(g.coeffs) == [0, 1, 1, 0]
    assert is_off_diagonal(g)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_off_diagonal_mask_matches_set_loop(rng, mode):
    from itertools import product

    for p in range(5):
        for m in (1, 2, 3):
            f = random_kernel(rng, p, m, mode)
            diagonal = [len(set(idx)) < p for idx in product(range(m), repeat=p)]
            ref = [0 if d else c for d, c in zip(diagonal, f.coeffs)]
            g = off_diagonal_part(f)
            assert list(g.coeffs) == ref and g.mode == mode
            assert is_off_diagonal(g)
            expected = not any(d and c != 0 for d, c in zip(diagonal, f.coeffs))
            assert is_off_diagonal(f) == expected


def test_normalize_classical(pair_kernel):
    g = normalize_variance(pair_kernel, "classical")
    assert g == pair_kernel  # already unit variance: 2! * 1/2 = 1
    h = normalize_variance(constant_kernel(2, 1), "classical")
    assert 2 * l2_norm_sq(h) == 1
    assert h.scale_sq == Fraction(1, 2)


def test_normalize_free(pair_kernel):
    g = normalize_variance(pair_kernel, "free")
    assert g.scale_sq == 2
    assert l2_inner(g, adjoint(g)) == 1


def test_normalize_zero_kernel():
    with pytest.raises(PreconditionError):
        normalize_variance(new_kernel(2, 2, [0, 0, 0, 0]), "classical")


def test_normalize_free_nonpositive():
    f = new_kernel(2, 2, [0, 1, -1, 0])  # <f, f*> = -1/2
    with pytest.raises(PreconditionError):
        normalize_variance(f, "free")


def test_normalize_float_mode(pair_kernel):
    g = normalize_variance(as_float(pair_kernel), "free")
    assert g.mode == "float"
    assert abs(l2_inner(g, adjoint(g)) - 1.0) < 1e-12
    assert abs(g.coeffs[1] - math.sqrt(2)) < 1e-12


def test_scale_past_binary64_is_inf_and_keeps_zeros():
    f = new_kernel(1, 2, [1.0, 0.0], mode="float")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scale(f, 10**400).coeffs.tolist() == [math.inf, 0.0]
        assert scale(f, -(10**400)).coeffs.tolist() == [-math.inf, 0.0]
        assert scale(f, Fraction(1, 10**400)).coeffs.tolist() == [0.0, 0.0]
        # a product inside binary64 stays finite when the factor is not
        g = new_kernel(1, 1, [1e300], mode="float")
        assert math.isclose(scale(g, Fraction(1, 10**320)).coeffs[0], 1e-20, rel_tol=1e-15)
        h = new_kernel(1, 1, [1e-200], mode="float")
        assert math.isclose(scale(h, math.factorial(200)).coeffs[0],
                            math.factorial(200) / 10**200, rel_tol=1e-15)


@pytest.mark.parametrize("model", ["classical", "free"])
def test_normalize_float_variance_past_binary64(model):
    f = new_kernel(2, 2, [1e200] * 4, mode="float")
    with warnings.catch_warnings(), \
            pytest.raises(InvalidInputError, match="use exact mode"):
        warnings.simplefilter("error")  # the overflowing sum is +-inf, silently
        normalize_variance(f, model)


def test_refine():
    assert refine(constant_kernel(1, 1), 4) == constant_kernel(1, 4)
    f = new_kernel(2, 2, [0, 1, 1, 0])
    g = refine(f, 3)
    assert g.resolution == 6
    assert l2_norm_sq(g) == l2_norm_sq(f)
    assert is_symmetric(g) and is_mirror_symmetric(g)


def test_refine_off_diagonal_mass():
    # refining the constant square: off-diagonal mass is 1 - 1/m
    for m in (2, 4, 8):
        g = off_diagonal_part(refine(constant_kernel(2, 1), m))
        assert l2_norm_sq(g) == 1 - Fraction(1, m)


def test_refine_budget():
    with budget(1000):
        with pytest.raises(BudgetExceededError):
            refine(constant_kernel(2, 2), 100)


def test_inner_bilinear_positive(rng):
    f = nonzero(rng, random_kernel, 2, 2)
    g = random_kernel(rng, 2, 2)
    h = random_kernel(rng, 2, 2)
    c = Fraction(3, 7)
    assert l2_inner(add(f, g), h) == l2_inner(f, h) + l2_inner(g, h)
    assert l2_inner(scale(f, c), g) == c * l2_inner(f, g)
    assert l2_inner(f, g) == l2_inner(g, f)
    assert l2_norm_sq(f) > 0


def test_family_pair_clt():
    f1 = family_kernel("pair_clt", n=1, model="classical")
    pair = new_kernel(2, 2, [0, 1, 1, 0])
    assert f1 == pair  # n=1 classical is exactly the pair kernel
    f1f = family_kernel("pair_clt", n=1, model="free")
    assert f1f.scale_sq == 2
    f3 = family_kernel("pair_clt", n=3, model="classical")
    assert f3.resolution == 6 and f3.scale_sq == 3
    assert is_symmetric(f3) and is_off_diagonal(f3)
    assert 2 * l2_norm_sq(f3) == 1


def test_family_constant_hermite():
    assert family_kernel("constant_hermite", p=2) == constant_kernel(2, 1)
    with pytest.raises(InvalidInputError):
        family_kernel("constant_hermite", p=0)
    with pytest.raises(InvalidInputError):
        family_kernel("nope", p=1)


def test_fold_scale_and_float():
    f = new_kernel(1, 2, [1, 2], scale_sq=Fraction(9, 4))
    g = fold_scale(f)
    assert g.scale_sq == 1 and list(g.coeffs) == [Fraction(3, 2), 3]
    h = new_kernel(1, 2, [1, 2], scale_sq=2)
    with pytest.raises(InvalidInputError):
        fold_scale(h)
    hf = as_float(h)
    assert hf.mode == "float"
    assert abs(hf.coeffs[0] - math.sqrt(2)) < 1e-15


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(0)) == 0


def test_json_roundtrip_exact():
    f = family_kernel("pair_clt", n=2, model="free")
    text = kernel_to_json(f, "free")
    d = json.loads(text)
    assert d["mode"] == "exact" and d["coeffs"][1] == "1/1"
    assert d["scale_sq"] == "4/1"
    g, model = kernel_from_json(text)
    assert g == f and model == "free"


def test_json_roundtrip_float():
    f = as_float(family_kernel("pair_clt", n=2, model="free"))
    g, model = kernel_from_json(kernel_to_json(f, "free"))
    assert g == f and model == "free"


def test_json_bad_input():
    with pytest.raises(InvalidInputError):
        kernel_from_json("{not json")
    with pytest.raises(InvalidInputError):
        kernel_from_json(json.dumps({"p": 2, "m": 2, "mode": "exact"}))
    with pytest.raises(InvalidInputError):
        kernel_from_json(
            json.dumps({"p": 2, "m": 2, "mode": "exact", "coeffs": ["1/1"] * 4,
                        "model": "quantum"})
        )


def test_refine_preserves_inner(rng):
    f = random_kernel(rng, 2, 2)
    g = random_kernel(rng, 2, 2)
    assert l2_inner(refine(f, 3), refine(g, 3)) == l2_inner(f, g)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 6, 9])
def test_orbits_match_product_decoder(p):
    for m in {3: (1, 2, 3, 4, 5), 6: (3,), 9: (2,)}.get(p, (1, 2, 3, 4)):
        numbering: dict[tuple, int] = {}  # sorted multiset -> id, first-cell order
        ids = [numbering.setdefault(tuple(sorted(cell)), len(numbering))
               for cell in product(range(m), repeat=p)]
        sizes = [ids.count(o) for o in range(len(numbering))]
        got_ids, got_sizes, lcm, mult, multisets = _orbits(m, p)
        assert got_ids.tolist() == ids, (p, m)
        assert multisets.tolist() == [list(key) for key in numbering], (p, m)
        assert got_sizes.tolist() == sizes, (p, m)
        assert lcm == math.lcm(*sizes) and mult.tolist() == [lcm // s for s in sizes]
        assert all(a.dtype == np.int64 for a in (got_ids, got_sizes, mult, multisets))


def test_orbits_decode_in_a_few_bytes_per_cell():
    _orbits.cache_clear()  # a cached entry would trace nothing
    tracemalloc.start()
    try:
        _orbits(2, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**16, peak / 2**16
