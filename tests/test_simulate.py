from itertools import product

import numpy as np
import pytest

from chaoskit.cli import main
from chaoskit.config import budget, check_entries, entry_budget, set_thread_count
from chaoskit.errors import BudgetExceededError, InvalidInputError, PreconditionError
from chaoskit.kernels import (
    constant_kernel,
    kernel_to_json,
    new_kernel,
    normalize_variance,
    off_diagonal_part,
    refine,
    symmetrize,
)
from chaoskit.moments import free_moment
from chaoskit.simulate import (
    SampleConfig,
    _cell_plan,
    _int_power,
    _matrix_model,
    derive_rng,
    gue_increments,
    mc_classical_moment,
    mc_free_moment,
    sample_classical,
    sample_free_gue,
)

from conftest import random_kernel, random_mirror_kernel


def test_sample_config_validation():
    SampleConfig(seed=1, n_samples=10)
    with pytest.raises(InvalidInputError):
        SampleConfig(seed=-1, n_samples=10)
    with pytest.raises(InvalidInputError):
        SampleConfig(seed="abc", n_samples=10)
    with pytest.raises(InvalidInputError):
        SampleConfig(seed=1, n_samples=0)
    with pytest.raises(InvalidInputError):
        SampleConfig(seed=1, n_samples=10, matrix_dim=1)


def test_sample_classical_hermite_exact():
    # the order-2 constant kernel samples are exactly xi^2 - 1
    ones2 = constant_kernel(2, 1)
    val = sample_classical(ones2, derive_rng(7, 0))
    xi = derive_rng(7, 0).standard_normal((1, 1))[0, 0]
    assert val == pytest.approx(xi * xi - 1, abs=0)


def test_sample_classical_off_diagonal_is_plain_product(pair_kernel):
    # off-diagonal kernels reduce to products of increments (He_1(x) = x)
    val = sample_classical(pair_kernel, derive_rng(9, 0))
    xi = derive_rng(9, 0).standard_normal((1, 2))[0]
    assert val == pytest.approx(xi[0] * xi[1], abs=0)


def test_sample_classical_requires_symmetry():
    with pytest.raises(PreconditionError):
        sample_classical(new_kernel(2, 2, [0, 1, 0, 0]), derive_rng(1, 0))


def test_mc_classical_reproducible(pair_kernel):
    cfg = SampleConfig(seed=123, n_samples=70_000)
    a = mc_classical_moment(pair_kernel, 4, cfg)
    b = mc_classical_moment(pair_kernel, 4, cfg)
    assert a.value == b.value and a.stderr == b.stderr


def test_mc_classical_thread_invariant(pair_kernel):
    cfg = SampleConfig(seed=321, n_samples=150_000)
    base = mc_classical_moment(pair_kernel, 4, cfg)
    set_thread_count(4)
    try:
        threaded = mc_classical_moment(pair_kernel, 4, cfg)
    finally:
        set_thread_count(None)
    assert threaded.value == base.value


def test_mc_classical_hits_targets(pair_kernel):
    cfg = SampleConfig(seed=2026, n_samples=120_000)
    rep = mc_classical_moment(pair_kernel, 4, cfg)
    assert rep.target == 9
    assert abs(rep.value - 9) <= 4 * rep.stderr
    ones1 = constant_kernel(1, 1)
    rep2 = mc_classical_moment(ones1, 4, cfg)
    assert abs(rep2.value - 3) <= 4 * rep2.stderr
    ones2 = constant_kernel(2, 1)
    rep3 = mc_classical_moment(ones2, 4, cfg)
    assert abs(rep3.value - 60) <= 4 * rep3.stderr


def test_gue_increment_normalization():
    # mean normalized trace of G^2 concentrates at 1/m
    rng = derive_rng(5, 0)
    incr = gue_increments(2, 150, rng)
    vals = [float(np.trace(g @ g).real) / 150 for g in incr]
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_sample_free_gue_semicircle():
    ones1 = constant_kernel(1, 1)
    mom = sample_free_gue(ones1, 6, 400, derive_rng(11, 0))
    assert abs(mom[1] - 1) < 0.1
    assert abs(mom[3] - 2) < 0.3
    assert abs(mom[0]) < 0.1 and abs(mom[2]) < 0.2


def test_sample_free_gue_preconditions():
    with pytest.raises(PreconditionError):
        sample_free_gue(new_kernel(2, 2, [0, 1, 0, 0]), 2, 50, derive_rng(1, 0))
    with pytest.raises(PreconditionError):
        # constant order-2 kernel touches the diagonal; refine first
        sample_free_gue(constant_kernel(2, 1), 2, 50, derive_rng(1, 0))


def test_mc_free_reproducible(pair_kernel):
    pv = normalize_variance(pair_kernel, "free")
    cfg = SampleConfig(seed=77, n_samples=20, matrix_dim=50)
    a = mc_free_moment(pv, 4, cfg)
    b = mc_free_moment(pv, 4, cfg)
    assert a.value == b.value
    set_thread_count(3)
    try:
        c = mc_free_moment(pv, 4, cfg)
    finally:
        set_thread_count(None)
    assert c.value == a.value


def test_mc_free_requires_dim(pair_kernel):
    pv = normalize_variance(pair_kernel, "free")
    with pytest.raises(InvalidInputError):
        mc_free_moment(pv, 4, SampleConfig(seed=1, n_samples=5))


def test_mc_free_near_target(pair_kernel):
    pv = normalize_variance(pair_kernel, "free")
    rep = mc_free_moment(pv, 4, SampleConfig(seed=13, n_samples=60, matrix_dim=80))
    assert rep.target == pytest.approx(2.5, abs=1e-9)
    assert abs(rep.value - 2.5) < 0.1


def test_mc_free_refined_constant():
    g = off_diagonal_part(refine(constant_kernel(2, 1), 16))
    target = float(free_moment(g, 4))
    rep = mc_free_moment(g, 4, SampleConfig(seed=3, n_samples=25, matrix_dim=60))
    assert abs(rep.value - target) < 0.3
    # the discarded diagonal mass is O(1/m): the exact value climbs to 3
    targets = [
        float(free_moment(off_diagonal_part(refine(constant_kernel(2, 1), m)), 4))
        for m in (8, 16, 32)
    ]
    assert targets[0] < targets[1] < targets[2] < 3
    assert 3 - targets[2] < 0.25


def test_mc_free_bias_shrinks_with_dimension(pair_kernel):
    pv = normalize_variance(pair_kernel, "free")
    errs = []
    for dim, draws in ((40, 120), (80, 120)):
        rep = mc_free_moment(pv, 4, SampleConfig(seed=7, n_samples=draws,
                                                 matrix_dim=dim))
        errs.append(abs(rep.value - 2.5))
    assert errs[1] < errs[0]


def test_mc_classical_multi_seed_coverage(pair_kernel):
    # the 4-stderr bound holds across independent seed batches
    exact = 9.0
    hits = 0
    for seed in range(12):
        rep = mc_classical_moment(pair_kernel, 4,
                                  SampleConfig(seed=seed, n_samples=20_000),
                                  target=exact)
        if abs(rep.value - exact) <= 4 * rep.stderr:
            hits += 1
    assert hits >= 11


def test_mc_free_family_approaches_semicircle():
    from chaoskit.kernels import family_kernel

    f8 = family_kernel("pair_clt", n=8, model="free")
    target = float(free_moment(f8, 4))  # 2 + 1/16
    assert target == pytest.approx(2.0625)
    rep = mc_free_moment(f8, 4, SampleConfig(seed=4, n_samples=30, matrix_dim=100))
    assert abs(rep.value - target) < 0.15


def _reference_matrix_model(f, incr):
    """F_N summed cell by cell: a_I G_{i_1} ... G_{i_p}."""
    dim = incr.shape[1]
    out = np.zeros((dim, dim), dtype=complex)
    for flat, idx in enumerate(product(range(f.resolution), repeat=f.order)):
        prod = np.eye(dim, dtype=complex)
        for i in idx:
            prod = prod @ incr[i]
        out += f.coeffs[flat] * prod
    return out


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_matrix_model_matches_per_cell_sum(rng, p, m):
    f = random_kernel(rng, p, m, mode="float")
    incr = gue_increments(m, 12, derive_rng(31, 10 * p + m))
    ref = _reference_matrix_model(f, incr)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(_matrix_model(f, incr) - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("p, m", [(1, 1), (2, 2), (3, 2), (4, 3)])
def test_sample_free_gue_matches_traces_of_formed_powers(rng, p, m):
    f = off_diagonal_part(random_mirror_kernel(rng, p, m, mode="float"))
    dim, k = 24, 8
    mom = sample_free_gue(f, k, dim, derive_rng(41, p))
    fn = _reference_matrix_model(f, gue_increments(m, dim, derive_rng(41, p)))
    power = np.eye(dim, dtype=complex)
    ref = []
    for _ in range(k):
        power = power @ fn
        ref.append(np.trace(power).real / dim)
    np.testing.assert_allclose(mom, ref, rtol=1e-11, atol=1e-11)


def test_mc_free_thread_invariant_order3(rng):
    f = off_diagonal_part(random_mirror_kernel(rng, 3, 3, mode="float"))
    cfg = SampleConfig(seed=19, n_samples=8, matrix_dim=30)
    base = mc_free_moment(f, 6, cfg, target=0.0)
    set_thread_count(3)
    try:
        threaded = mc_free_moment(f, 6, cfg, target=0.0)
    finally:
        set_thread_count(None)
    assert threaded.value == base.value and threaded.stderr == base.stderr


def test_gue_budget_raises_before_allocating(pair_kernel):
    pv = normalize_variance(pair_kernel, "free")
    # m * N^2 = 2 * 50^2 = 5000 increment entries
    with budget(4999):
        with pytest.raises(BudgetExceededError) as exc:
            sample_free_gue(pv, 4, 50, derive_rng(1, 0))
        assert exc.value.entries == 5000
        with pytest.raises(BudgetExceededError):
            mc_free_moment(pv, 4, SampleConfig(seed=1, n_samples=2, matrix_dim=50))
    with budget(5000):
        assert sample_free_gue(pv, 4, 50, derive_rng(1, 0)).shape == (4,)
    # order 3 on m = 3: the stacked partial holds m^(p-1) N^2 = 9 * 100 entries
    f = off_diagonal_part(random_mirror_kernel(np.random.default_rng(3), 3, 3))
    with budget(899):
        with pytest.raises(BudgetExceededError) as exc:
            sample_free_gue(f, 2, 10, derive_rng(1, 0))
        assert exc.value.entries == 900
    with pytest.raises(BudgetExceededError):
        mc_free_moment(pv, 4, SampleConfig(seed=1, n_samples=1, matrix_dim=10**6))


def test_gue_budget_exits_3_from_cli(capsys, tmp_path, pair_kernel):
    path = tmp_path / "pair.json"
    path.write_text(kernel_to_json(pair_kernel, "free"))
    code = main(["simulate", str(path), "--model", "free", "--normalize",
                 "--k", "4", "--samples", "1", "--seed", "1", "--dim", "1000000"])
    err = capsys.readouterr().err
    assert code == 3
    assert "dimension 1000000" in err and "Traceback" not in err


def test_gue_budget_message_names_the_matrix_model(capsys, tmp_path, pair_kernel):
    path = tmp_path / "pair.json"
    path.write_text(kernel_to_json(pair_kernel, "free"))
    main(["simulate", str(path), "--model", "free", "--normalize", "--k", "4",
          "--samples", "1", "--seed", "1", "--dim", "1000000"])
    assert capsys.readouterr().err.strip().endswith(
        "GUE matrix model at dimension 1000000 needs 2000000000000 entries, "
        "exceeding the budget of 10000000")


def test_check_entries_stops_at_budget():
    # the old m**order for this order would never finish
    with pytest.raises(BudgetExceededError) as exc:
        check_entries(2, 10**12)
    assert entry_budget() < exc.value.entries <= 2 * entry_budget()
    assert "at least" in str(exc.value)
    assert check_entries(1, 10**12) == 1
    assert check_entries(3, 4, rows=5) == 5 * 81
    with pytest.raises(BudgetExceededError):
        check_entries(2, 1, rows=entry_budget())


def test_check_entries_huge_order_json_exits_3(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"p": 1000000000000, "m": 2, "mode": "float", "coeffs": [1]}')
    assert main(["moment", str(path), "--k", "2", "--model", "classical"]) == 3


def _reference_cell_plan(f):
    """The plan built by decoding each flat index digit by digit."""
    p, m = f.order, f.resolution
    plan = {}
    for i, a in enumerate(f.coeffs):
        if a == 0.0:
            continue
        counts = {}
        rem = i
        for j in range(p):
            d = (rem // m ** (p - 1 - j)) % m
            counts[d] = counts.get(d, 0) + 1
        key = tuple(sorted(counts.items()))
        plan[key] = plan.get(key, 0.0) + a
    return [([v for v, _ in key], [c for _, c in key], coeff)
            for key, coeff in plan.items()]


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_cell_plan_matches_digit_loop(rng, p):
    for m in (1, 2, 3):
        f = symmetrize(random_kernel(rng, p, m, mode="float"))
        got = [(v.tolist(), c.tolist(), w) for v, c, w in _cell_plan(f)]
        assert got == _reference_cell_plan(f)


def test_int_power_matches_pow():
    x = derive_rng(2, 0).standard_normal(1000)
    for k in range(1, 9):
        np.testing.assert_allclose(_int_power(x, k), x**k, rtol=8e-16 * k, atol=0)


def test_mc_classical_estimate_across_blocks_and_threads():
    # three blocks of a kernel with diagonal mass, so cells share Hermite
    # columns of degree 1 to 3
    f = constant_kernel(3, 3, mode="float")
    cfg = SampleConfig(seed=8, n_samples=150_000)
    base = mc_classical_moment(f, 2, cfg)
    set_thread_count(3)
    try:
        threaded = mc_classical_moment(f, 2, cfg)
    finally:
        set_thread_count(None)
    assert threaded.value == base.value and threaded.stderr == base.stderr
    assert abs(base.value - float(base.target)) <= 5 * base.stderr
