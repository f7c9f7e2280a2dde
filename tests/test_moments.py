import math
from fractions import Fraction

import numpy as np
import pytest

from chaoskit.chaos import moment_via_expansion
from chaoskit.combinatorics import (
    classical_coeff_seq,
    count_C,
    enumerate_tuples,
    limit_value,
)
from chaoskit.config import MAX_AXES
from chaoskit.errors import BudgetExceededError, InvalidInputError, PreconditionError
from chaoskit.kernels import (
    as_float,
    constant_kernel,
    family_kernel,
    l2_norm_sq,
    new_kernel,
    normalize_variance,
    scaled_scalar,
)
from chaoskit.moments import (
    MomentReport,
    _ClassicalChain,
    _FreeChain,
    _gauss_polynomial,
    chain_values,
    classical_fourth_identity,
    classical_moment,
    compute_moment,
    contraction_profile,
    convergence_report,
    fourth_moment_gap,
    free_fourth_identity,
    free_moment,
    is_normalized,
    symmetrized_square_identity,
    wick_oracle_moment,
)

from conftest import (
    brute_chain,
    brute_gauss_polynomial,
    nonzero,
    random_kernel,
    random_mirror_kernel,
    random_symmetric_kernel,
)


# --- the factored chain evaluators against literal dense chains --------------


def test_free_chains_match_dense(rng):
    for p, m, k in ((2, 2, 5), (3, 2, 4), (2, 3, 4), (3, 2, 6)):
        f = random_mirror_kernel(rng, p, m)
        values = chain_values(f, k, "free", "B")
        assert set(values) == {t.r for t in enumerate_tuples(p, k, "B")}
        for ranks, v in values.items():
            dense = brute_chain(f, ranks, "free")
            assert dense.order == 0
            assert v == scaled_scalar(dense.coeffs[0], dense.scale_sq, 1, "exact")


def test_classical_chains_match_dense(rng):
    for p, m, k in ((2, 2, 5), (3, 2, 4), (2, 3, 4), (3, 2, 6)):
        f = random_symmetric_kernel(rng, p, m)
        values = chain_values(f, k, "classical", "B")
        assert set(values) == {t.r for t in enumerate_tuples(p, k, "B")}
        for ranks, v in values.items():
            dense = brute_chain(f, ranks, "classical")
            assert dense.order == 0
            assert v == scaled_scalar(dense.coeffs[0], dense.scale_sq, 1, "exact")


def test_chain_classes_split(rng):
    f = random_mirror_kernel(rng, 2, 2)
    b = chain_values(f, 6, "free", "B")
    c = chain_values(f, 6, "free", "C")
    e = chain_values(f, 6, "free", "E")
    assert set(b) == set(c) | set(e)
    assert not (set(c) & set(e))


# --- the merged level-by-level sums against the per-tuple walk ----------------


def _per_tuple_terms(f, k, model, classes="B"):
    """{rank tuple: weighted chain value} from the per-tuple walk."""
    values = chain_values(f, k, model, classes)
    if model == "free":
        return values
    return {t: classical_coeff_seq(f.order, t) * v for t, v in values.items()}


def _assert_same_sum(got, terms, mode, label):
    want = sum(terms.values(), Fraction(0) if mode == "exact" else 0.0)
    if mode == "exact":
        assert isinstance(got, Fraction) and got == want, label
    else:
        size = sum(abs(v) for v in terms.values())
        assert abs(got - want) <= 1e-12 * max(abs(want), size), label


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_merged_moments_match_per_tuple_sums(rng, p, mode):
    for m in (1, 2, 3):
        # exact Fraction contractions on 16- to 81-cell kernels take
        # seconds per k beyond these orders; float mode runs every k
        kmax = 8 if mode == "float" or m**p <= 9 else 6 if m**p <= 27 else 4
        for k in range(2, kmax + 1):
            f = random_symmetric_kernel(rng, p, m, mode)
            _assert_same_sum(classical_moment(f, k),
                             _per_tuple_terms(f, k, "classical"), mode,
                             ("classical", p, m, k))
            g = random_mirror_kernel(rng, p, m, mode)
            _assert_same_sum(free_moment(g, k), _per_tuple_terms(g, k, "free"),
                             mode, ("free", p, m, k))


@pytest.mark.parametrize("model", ["classical", "free"])
def test_merged_walk_steps_one_term_per_block_tuple(monkeypatch, pair_kernel, model):
    # C and E prefixes that reach the same blocks are one term, so the
    # classical walk steps fewer terms than one that kept them apart (379 and 214)
    chain, const_p, pins = {
        "classical": (_ClassicalChain, 4, [(11, 307), (8, 186)]),
        "free": (_FreeChain, 3, [(14, 2398), (10, 646)]),
    }[model]
    stepped = []
    step = chain.step

    def counting(self, *args):
        stepped.append(args)
        return step(self, *args)

    monkeypatch.setattr(chain, "step", counting)
    for f, (k, want) in zip([pair_kernel, constant_kernel(const_p, 1)], pins):
        stepped.clear()
        compute_moment(f, k, model)
        assert len(stepped) == want


@pytest.mark.parametrize("model", ["classical", "free"])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_convergence_report_split_matches_per_tuple(model, mode):
    for row in convergence_report("pair_clt", [1, 2, 3], 6, model, mode):
        n, k = row["n"], row["k"]
        f = family_kernel("pair_clt", n=n, model=model, mode=mode)
        _assert_same_sum(row["ek_sum"], _per_tuple_terms(f, k, model, "E"), mode,
                         (n, k))
        ck_mode = mode
        if model == "free":
            # the free C_k part is always summed in exact arithmetic
            f = family_kernel("pair_clt", n=n, model=model, mode="exact")
            ck_mode = "exact"
        _assert_same_sum(row["ck_sum"], _per_tuple_terms(f, k, model, "C"), ck_mode,
                         (n, k))


def test_high_order_pair_moments(pair_kernel):
    assert classical_moment(pair_kernel, 14) == 135135**2
    # 156033/64 for the free-normalized kernel (scale_sq 2), times 2**-7
    assert free_moment(pair_kernel, 14) == Fraction(156033, 8192)


# --- reference moment values --------------------------------------------------


def test_free_moment_constant_order2():
    ones2 = constant_kernel(2, 1)
    values = chain_values(ones2, 4, "free", "B")
    assert values == {(0, 2, 2): 1, (1, 1, 2): 1, (2, 0, 2): 1}
    assert free_moment(ones2, 4) == 3


def test_free_moment_semicircle():
    ones1 = constant_kernel(1, 1)
    assert free_moment(ones1, 6) == 5
    assert [free_moment(ones1, k) for k in (2, 4, 6)] == [1, 2, 5]


def test_free_moment_normalized_variance(pair_kernel):
    pv = normalize_variance(pair_kernel, "free")
    assert free_moment(pv, 2) == 1


def test_free_moment_requires_mirror():
    with pytest.raises(PreconditionError):
        free_moment(new_kernel(2, 2, [0, 1, 0, 0]), 4)


def test_classical_moment_values(pair_kernel):
    assert classical_moment(pair_kernel, 4) == 9
    assert classical_moment(constant_kernel(1, 1), 6) == 15
    assert classical_moment(constant_kernel(2, 1), 2) == 2


def test_formula_moment_first_order_is_zero(pair_kernel):
    assert type(classical_moment(pair_kernel, 1)) is Fraction
    assert classical_moment(pair_kernel, 1) == 0
    assert type(free_moment(pair_kernel, 1)) is Fraction
    assert free_moment(pair_kernel, 1) == 0
    pf = as_float(pair_kernel)
    assert type(classical_moment(pf, 1)) is float
    assert classical_moment(pf, 1) == 0
    assert type(free_moment(pf, 1)) is float
    assert free_moment(pf, 1) == 0
    with pytest.raises(PreconditionError):
        free_moment(new_kernel(2, 2, [0, 1, 0, 0]), 1)


def test_orders_near_numpy_axis_cap():
    # an m=1 kernel of order 32 or 33 fits one axis per slot; the chain's
    # tensor products of several blocks stay flat
    assert free_moment(constant_kernel(32, 1), 8) == 13057121
    # at k=1 nothing is reshaped, so even an order past the cap answers
    assert classical_moment(constant_kernel(70, 1), 1) == 0
    assert free_moment(constant_kernel(70, 1), 1) == 0
    if MAX_AXES < 64:
        pytest.skip("numpy < 2 caps arrays at 32 axes")
    p = 33
    # E[He_p^4] = sum_r (r! C(p,r)^2)^2 (2p-2r)!
    expect = sum(
        (math.factorial(r) * math.comb(p, r) ** 2) ** 2 * math.factorial(2 * p - 2 * r)
        for r in range(p + 1)
    )
    assert classical_moment(constant_kernel(p, 1), 4) == expect
    assert moment_via_expansion(constant_kernel(p, 1), 4, "classical") == expect


def test_chain_values_checks_the_order_before_the_rank_tree(monkeypatch):
    # the rank tree forms p!, which takes seconds at p = 10^6; the axis check
    # refuses such an order first
    from chaoskit import combinatorics

    def no_tree(*args):
        raise AssertionError("rank tree built before the order check")

    monkeypatch.setattr(combinatorics, "rank_tree", no_tree)
    f = new_kernel(10**6, 1, [1.0], mode="float")
    for model in ("classical", "free"):
        with pytest.raises(BudgetExceededError, match="axes"):
            chain_values(f, 2, model)


def test_classical_third_moment_second_chaos():
    # E[(xi^2 - 1)^3] = 8: B_3(p=2) is nonempty
    assert classical_moment(constant_kernel(2, 1), 3) == 8
    assert wick_oracle_moment(constant_kernel(2, 1), 3) == 8


# --- fourth-moment identities -------------------------------------------------


def test_free_fourth_identity_values(pair_kernel):
    pv = normalize_variance(pair_kernel, "free")
    assert free_fourth_identity(pv) == Fraction(5, 2)
    assert free_fourth_identity(constant_kernel(2, 1)) == 3
    f = nonzero(np.random.default_rng(5), random_mirror_kernel, 1, 3)
    assert free_fourth_identity(f) == 2 * l2_norm_sq(f) ** 2


def test_classical_fourth_identity_values(pair_kernel):
    assert classical_fourth_identity(pair_kernel) == 9
    onc = normalize_variance(constant_kernel(2, 1), "classical")
    assert classical_fourth_identity(onc) == 15
    p1 = normalize_variance(constant_kernel(1, 2), "classical")
    assert classical_fourth_identity(p1) == 3


def test_identity_requires_normalization():
    with pytest.raises(PreconditionError):
        classical_fourth_identity(constant_kernel(2, 1))


def test_normalization_check_forms_no_large_factorial(monkeypatch):
    # log2 p! against the bit lengths of ||sym f||^2 settles a large order
    # without p!, which takes seconds at p = 10^6
    factorial = math.factorial

    def small_only(n):
        assert n <= 10**4, f"{n}! formed"
        return factorial(n)

    monkeypatch.setattr(math, "factorial", small_only)
    for mode in ("exact", "float"):
        for coeff in (Fraction(1, 2), 0):
            f = new_kernel(10**6, 1, [coeff], mode=mode)
            assert not is_normalized(f, "classical")
    with pytest.raises(PreconditionError, match=r"1000000! \* 1/4"):
        classical_fourth_identity(new_kernel(10**6, 1, [Fraction(1, 2)]))
    # near cancellation p! is formed and the comparison stays exact
    for p, mode in ((200, "exact"), (100, "float")):
        f = normalize_variance(new_kernel(p, 1, [1], mode=mode), "classical")
        assert is_normalized(f, "classical")
        assert not is_normalized(new_kernel(p, 1, [1], mode=mode), "classical")


def test_fourth_identities_on_random_kernels(rng):
    for _ in range(10):
        f = nonzero(rng, random_symmetric_kernel, int(rng.integers(2, 4)), 2)
        fn = normalize_variance(f, "classical")
        assert classical_moment(fn, 4) == classical_fourth_identity(fn)
        lhs, rhs = symmetrized_square_identity(fn)
        assert lhs == rhs
    for _ in range(10):
        g = nonzero(rng, random_mirror_kernel, int(rng.integers(2, 4)), 2)
        assert free_moment(g, 4) == free_fourth_identity(g)


# --- Wick oracle ----------------------------------------------------------------


def test_wick_oracle_reference_values(pair_kernel):
    assert wick_oracle_moment(constant_kernel(2, 1), 4) == 60
    assert [wick_oracle_moment(constant_kernel(1, 1), k) for k in range(2, 9)] == [
        1, 0, 3, 0, 15, 0, 105,
    ]
    assert wick_oracle_moment(pair_kernel, 4) == 9
    assert wick_oracle_moment(new_kernel(0, 1, ["3/2"]), 3) == Fraction(27, 8)


def test_wick_oracle_variance_is_isometry(rng):
    for _ in range(5):
        f = random_symmetric_kernel(rng, int(rng.integers(1, 4)), 2)
        assert wick_oracle_moment(f, 2) == math.factorial(f.order) * l2_norm_sq(f)


def _fail(*args):
    raise AssertionError("stage ran past the work bound")


def test_wick_oracle_work_bound(monkeypatch, pair_kernel):
    from chaoskit import moments
    from chaoskit.combinatorics import double_factorial
    from chaoskit.config import budget

    # no variable or degree cap: what fits the entry budget answers
    assert wick_oracle_moment(constant_kernel(1, 13), 2) == 1
    assert wick_oracle_moment(constant_kernel(3, 2), 9) == 0
    assert wick_oracle_moment(pair_kernel, 100) == double_factorial(99) ** 2
    # pair at k = 8: 4 + 256 table entries, 6 * 2 * 2 exponents for F's
    # polynomial, then 6 * 2 per product from powers of at most
    # 1, 6, 15, 28, 45, 66, 91, 120 terms
    work = 260 + 24 + 12 * (1 + 6 + 15 + 28 + 45 + 66 + 91 + 120)
    with budget(work):
        assert wick_oracle_moment(pair_kernel, 8) == 105**2
    # the bound is checked before anything it covers is built
    for name in ("_hermite_coeffs", "_gauss_polynomial", "_poly_mul"):
        monkeypatch.setattr(moments, name, _fail)
    small = random_symmetric_kernel(np.random.default_rng(1), 2, 3)
    for cap, f in ((work - 1, pair_kernel), (100, pair_kernel), (300, small),
                   (400, small)):  # at k = 8: all, tables, F, products
        with budget(cap), pytest.raises(BudgetExceededError):
            wick_oracle_moment(f, 8)
    for f, k in (
        (random_symmetric_kernel(np.random.default_rng(4), 2, 12), 6),
        (pair_kernel, 10**5),  # the E[xi^e] table up to e = 2 * 10^5
        (new_kernel(100_000, 1, [1]), 1),  # the He_p table
        (constant_kernel(1, 2000), 2),  # the square: 2001000 keys of 2000 exponents
        (constant_kernel(1, 10**5, mode="float"), 1),  # F: 10^5 keys of 10^5
    ):
        with pytest.raises(BudgetExceededError):
            wick_oracle_moment(f, k)


def test_wick_oracle_needs_symmetry():
    with pytest.raises(PreconditionError):
        wick_oracle_moment(new_kernel(2, 2, [0, 1, 0, 0]), 2)


# --- cross-path agreement -------------------------------------------------------


@pytest.mark.parametrize("p,m,kmax", [(2, 2, 6), (2, 3, 6), (3, 2, 6), (3, 3, 6)])
def test_classical_three_paths_agree(rng, p, m, kmax):
    f = random_symmetric_kernel(rng, p, m)
    for k in range(2, kmax + 1):
        a = classical_moment(f, k)
        b = moment_via_expansion(f, k, "classical")
        c = wick_oracle_moment(f, k)
        assert a == b == c, (p, m, k)


@pytest.mark.parametrize("p,m,kmax", [(2, 2, 6), (2, 3, 6), (3, 2, 6), (3, 3, 6)])
def test_free_two_paths_agree(rng, p, m, kmax):
    f = random_mirror_kernel(rng, p, m)
    for k in range(2, kmax + 1):
        assert free_moment(f, k) == moment_via_expansion(f, k, "free"), (p, m, k)


@pytest.mark.parametrize("path", ["formula", "expansion", "oracle"])
def test_odd_moment_with_irrational_scale_is_float(path):
    f = normalize_variance(constant_kernel(2, 1), "classical")  # scale_sq = 1/2
    assert f.mode == "exact" and f.scale_sq == Fraction(1, 2)
    # E[(He_2 / sqrt 2)^3] = 8 / 2^(3/2) = 2 sqrt 2, past the rationals
    v = compute_moment(f, 3, "classical", path)
    assert type(v) is float and v == 2.8284271247461903


# coefficient 10^-200 under scale_sq 2 * 10^400: every coefficient is sqrt 2,
# though 10^-600 and sqrt(8 * 10^1200) each pass binary64
TINY_ROOT2 = dict(p=2, m=1, coeffs=[Fraction(1, 10**200)], scale_sq=2 * 10**400)


@pytest.mark.parametrize("path", ["formula", "expansion", "oracle"])
def test_odd_moment_rounds_x_root_q_once(path):
    f = new_kernel(**TINY_ROOT2)
    # E[(sqrt 2 He_2)^3] = 2^(3/2) * 8
    assert compute_moment(f, 3, "classical", path) == 22.627416997969522
    v = compute_moment(as_float(f), 3, "classical", path)
    assert math.isclose(v, 22.627416997969522, rel_tol=1e-12)


def test_as_float_rounds_x_root_q_once():
    assert as_float(new_kernel(**TINY_ROOT2)).coeffs.tolist() == [1.4142135623730951]


@pytest.mark.parametrize("sign", [1, -1])
def test_order_zero_moment_past_binary64_is_inf(sign):
    # 2 * 10^308 * sqrt 2 passes binary64; its sign comes from the rational
    f = new_kernel(0, 1, [sign * 2 * 10**308], scale_sq=2)
    for path in ("formula", "expansion", "oracle"):
        assert compute_moment(f, 1, "classical", path) == sign * math.inf


def test_compute_moment_dispatch(pair_kernel):
    assert compute_moment(pair_kernel, 4, "classical", "formula") == 9
    assert compute_moment(pair_kernel, 4, "classical", "expansion") == 9
    assert compute_moment(pair_kernel, 4, "classical", "oracle") == 9
    with pytest.raises(InvalidInputError):
        compute_moment(pair_kernel, 4, "free", "oracle")


# --- profiles, gaps, convergence -------------------------------------------------


def test_contraction_profile_pair_family():
    for n in range(1, 6):
        fc = family_kernel("pair_clt", n=n, model="classical")
        prof = contraction_profile(fc, "classical")
        assert prof.raw_sq == (Fraction(1, 8 * n),)
        assert prof.sym_sq == (Fraction(1, 8 * n),)
        fv = family_kernel("pair_clt", n=n, model="free")
        assert contraction_profile(fv, "free").raw_sq == (Fraction(1, 2 * n),)


def test_contraction_profile_constant():
    assert contraction_profile(constant_kernel(2, 1), "free").raw_sq == (1,)


def test_fourth_moment_gap_values(pair_kernel):
    assert fourth_moment_gap(pair_kernel, "classical") == 6
    for n in (1, 2, 4, 8):
        fc = family_kernel("pair_clt", n=n, model="classical")
        assert fourth_moment_gap(fc, "classical") == Fraction(6, n)
    onf = constant_kernel(2, 1)  # free-normalized already
    assert fourth_moment_gap(onf, "free") == 1
    p1 = normalize_variance(constant_kernel(1, 3), "classical")
    assert fourth_moment_gap(p1, "classical") == 0
    with pytest.raises(PreconditionError):
        fourth_moment_gap(constant_kernel(2, 1), "classical")


def test_gap_nonnegative_random(rng):
    for _ in range(5):
        f = nonzero(rng, random_symmetric_kernel, 2, 2)
        assert fourth_moment_gap(normalize_variance(f, "classical"), "classical") >= 0
        g = nonzero(rng, random_mirror_kernel, 2, 2)
        try:
            gn = normalize_variance(g, "free")
        except PreconditionError:
            continue
        assert fourth_moment_gap(gn, "free") >= 0


def test_pair_family_moment_closed_forms():
    # independent derivation: cumulants of a normalized i.i.d. sum of
    # products of two standard normals
    for n in (1, 2, 4):
        fc = family_kernel("pair_clt", n=n, model="classical")
        assert classical_moment(fc, 4) == 3 + Fraction(6, n)
        assert classical_moment(fc, 6) == 15 + Fraction(90, n) + Fraction(120, n**2)
        assert classical_moment(fc, 8) == 105 + Fraction(1260, n) + Fraction(
            4620, n**2
        ) + Fraction(5040, n**3)
        assert classical_moment(fc, 3) == 0
        assert classical_moment(fc, 5) == 0
        fv = family_kernel("pair_clt", n=n, model="free")
        assert free_moment(fv, 4) == 2 + Fraction(1, 2 * n)
        assert free_moment(fv, 3) == 0


def test_ek_chain_values_vanish_along_family():
    # iterated contractions over middle-rank tuples die off as the
    # self-contraction profile does
    prev = None
    for n in (1, 4, 16):
        f = family_kernel("pair_clt", n=n, model="free", mode="float")
        ek = chain_values(f, 4, "free", "E")
        biggest = max(abs(v) for v in ek.values())
        if prev is not None:
            assert biggest < prev
        prev = biggest
    assert prev < 0.05


def test_classical_ck_values_approach_limits():
    for k in (4, 6):
        tuples = enumerate_tuples(2, k, "C")
        limits = {t.r: float(limit_value(t)) for t in tuples}
        errs = {t.r: [] for t in tuples}
        for n in (1, 2, 4, 8):
            f = family_kernel("pair_clt", n=n, model="classical", mode="float")
            vals = chain_values(f, k, "classical", "C")
            for ranks, v in vals.items():
                errs[ranks].append(abs(v - limits[ranks]))
        for seq in errs.values():
            assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))


def test_convergence_report_columns():
    rows = convergence_report("pair_clt", [1, 2], 4, "free")
    assert {r["k"] for r in rows} == {2, 3, 4}
    for row in rows:
        assert row["gap"] == row["moment"] - row["target"]
        if row["k"] % 2 == 0:
            assert row["ck_sum"] == count_C(2, row["k"])  # exact Fractions
        assert isinstance(row["ck_sum"], Fraction)
    crows = convergence_report("pair_clt", [2], 4, "classical")
    for row in crows:
        assert row["profile_sym_sq"] is not None
        if row["k"] == 4:
            assert abs(row["moment"] - (3 + 6 / 2)) < 1e-9


def test_moment_report_stderr_contract():
    MomentReport(k=2, value=1.0, path="simulation", stderr=0.1)
    with pytest.raises(InvalidInputError):
        MomentReport(k=2, value=1.0, path="formula", stderr=0.1)
    with pytest.raises(InvalidInputError):
        MomentReport(k=2, value=1.0, path="simulation")


def test_budget_error_names_offending_order(rng):
    from chaoskit.config import budget

    f = random_mirror_kernel(rng, 3, 4)  # rank-1 steps make order-4 blocks
    with budget(200):
        with pytest.raises(BudgetExceededError) as exc:
            free_moment(f, 4)
    assert exc.value.order == 4 and exc.value.entries == 256


def test_moments_invariant_under_refinement(rng, pair_kernel):
    # refining the grid leaves the represented function (and so every
    # moment) unchanged; this exercises all measure factors end to end
    from chaoskit.kernels import refine

    for k in (2, 3, 4, 6):
        assert classical_moment(refine(pair_kernel, 3), k) == classical_moment(
            pair_kernel, k
        )
        assert free_moment(refine(pair_kernel, 2), k) == free_moment(pair_kernel, k)
    f = nonzero(rng, random_mirror_kernel, 2, 2)
    assert free_moment(refine(f, 2), 4) == free_moment(f, 4)
    g = nonzero(rng, random_symmetric_kernel, 2, 2)
    assert classical_moment(refine(g, 2), 4) == classical_moment(g, 4)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_gauss_polynomial_matches_cell_loop(rng, p, mode):
    # the oracle's polynomial, one Hermite product per orbit, against the
    # per-cell loop; the cell plan also serves non-symmetric kernels
    for m in (1, 2, 3):
        for f in (random_kernel(rng, p, m, mode), random_symmetric_kernel(rng, p, m, mode)):
            got, want = _gauss_polynomial(f), brute_gauss_polynomial(f)
            if mode == "exact":
                assert got == want, (p, m)
                continue
            # float: the orbit sums round differently from the cell-by-cell sums
            scale = max(map(abs, want.values()), default=0.0)
            for e in set(got) | set(want):
                assert abs(got.get(e, 0.0) - want.get(e, 0.0)) <= 8e-16 * scale, (p, m, e)
