"""Machine-checkable invariant suite behind ``chaoskit verify``.

Each check either passes or fails with a named reason; the CLI exits
nonzero if any fail.  The suite is a fast curated subset of the full test
suite: exact identities on seeded random kernels, the combinatorial
lemmas, cross-path moment agreement, dual-mode consistency, and smoke-level
Monte Carlo checks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import combinatorics as comb
from .chaos import expectation, from_kernel, moment_via_expansion, multiply
from .config import budget
from .errors import BudgetExceededError, PreconditionError
from .kernels import (
    GridKernel,
    add,
    adjoint,
    constant_kernel,
    family_kernel,
    kernel_from_json,
    kernel_to_json,
    l2_inner,
    l2_norm_sq,
    new_kernel,
    normalize_variance,
    symmetrize,
)
from .contractions import contract_classical, contract_classical_sym, contract_free
from .moments import (
    classical_fourth_identity,
    classical_moment,
    free_fourth_identity,
    free_moment,
    symmetrized_square_identity,
    wick_oracle_moment,
)
from .simulate import SampleConfig, mc_classical_moment, mc_free_moment


def _rand_fraction(rng) -> Fraction:
    return Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))


# the test suite draws its random kernels from these generators too
def _random_kernel(rng, p: int, m: int, mode: str = "exact") -> GridKernel:
    return new_kernel(p, m, [_rand_fraction(rng) for _ in range(m**p)], mode=mode)


def _random_symmetric(rng, p: int, m: int, mode: str = "exact") -> GridKernel:
    return symmetrize(_random_kernel(rng, p, m, mode))


def _random_mirror(rng, p: int, m: int, mode: str = "exact") -> GridKernel:
    f = _random_kernel(rng, p, m, mode)
    return add(f, adjoint(f))


def _check_catalan():
    for p in range(1, 5):
        for k in range(3, 9):
            assert comb.count_C(p, k) == comb.semicircle_moment(k), (p, k)


def _check_limit_weights():
    for p in (2, 3):
        for k in (4, 6, 8):
            total = sum(
                comb.limit_weight(t) for t in comb.enumerate_tuples(p, k, "C")
            )
            assert total == comb.gaussian_moment(k), (p, k, total)


def _check_dyck():
    for k in range(2, 11):
        assert comb.dyck_path_count(k) == comb.count_C(2, k), k
    for t in comb.enumerate_tuples(2, 8, "C"):
        assert comb.dyck_check(t), t


def _check_class_partition():
    for p in (1, 2, 3):
        for k in (3, 4, 5, 6):
            a = {t.r for t in comb.enumerate_tuples(p, k, "A")}
            b = {t.r for t in comb.enumerate_tuples(p, k, "B")}
            c = {t.r for t in comb.enumerate_tuples(p, k, "C")}
            e = {t.r for t in comb.enumerate_tuples(p, k, "E")}
            assert b <= a and c | e == b and not (c & e), (p, k)
            for t in comb.enumerate_tuples(p, k, "A"):
                assert comb.classical_coeff(t) > 0


def _check_contraction_bounds():
    rng = np.random.default_rng(2024)
    for _ in range(6):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        f = _random_kernel(rng, p, 2)
        g = _random_kernel(rng, q, 2)
        bound = l2_norm_sq(f) * l2_norm_sq(g)
        for r in range(0, min(p, q) + 1):
            h = contract_classical(f, g, r)
            assert l2_norm_sq(h) <= bound, (p, q, r)
            assert l2_norm_sq(contract_classical_sym(f, g, r)) <= l2_norm_sq(h)
            assert l2_norm_sq(contract_free(f, g, r)) <= bound
        assert l2_norm_sq(contract_classical(f, g, 0)) == bound


def _check_classical_identity():
    rng = np.random.default_rng(7)
    done = 0
    while done < 5:
        f = _random_symmetric(rng, int(rng.integers(2, 4)), 2)
        if f.is_zero():
            continue
        fn = normalize_variance(f, "classical")
        assert classical_moment(fn, 4) == classical_fourth_identity(fn)
        lhs, rhs = symmetrized_square_identity(fn)
        assert lhs == rhs
        done += 1


def _check_free_identity():
    rng = np.random.default_rng(8)
    done = 0
    while done < 5:
        f = _random_mirror(rng, int(rng.integers(2, 4)), 2)
        if f.is_zero():
            continue
        assert free_moment(f, 4) == free_fourth_identity(f)
        done += 1


def _check_oracle_equivalence():
    pair = new_kernel(2, 2, [0, 1, 1, 0])
    for k in range(2, 6):
        a = classical_moment(pair, k)
        b = moment_via_expansion(pair, k, "classical")
        c = wick_oracle_moment(pair, k)
        assert a == b == c, (k, a, b, c)
    assert wick_oracle_moment(constant_kernel(2, 1), 4) == 60
    assert classical_moment(constant_kernel(1, 1), 8) == 105


def _check_free_cross_path():
    ones2 = constant_kernel(2, 1)
    for k in range(2, 6):
        assert free_moment(ones2, k) == moment_via_expansion(ones2, k, "free")
    pv = normalize_variance(new_kernel(2, 2, [0, 1, 1, 0]), "free")
    assert free_moment(pv, 4) == Fraction(5, 2)


def _check_covariance_formulas():
    rng = np.random.default_rng(9)
    f = _random_kernel(rng, 2, 2)
    g = _random_kernel(rng, 2, 2)
    h = _random_kernel(rng, 3, 2)
    ef = expectation(multiply(from_kernel(f, "classical"), from_kernel(g, "classical")))
    assert ef == 2 * l2_inner(symmetrize(f), symmetrize(g))
    assert expectation(
        multiply(from_kernel(f, "classical"), from_kernel(h, "classical"))
    ) == 0
    efree = expectation(multiply(from_kernel(f, "free"), from_kernel(g, "free")))
    assert efree == l2_inner(f, adjoint(g))


def _check_mode_agreement():
    pair_f = new_kernel(2, 2, [0, 1, 1, 0], mode="float")
    exact = classical_moment(new_kernel(2, 2, [0, 1, 1, 0]), 6)
    flt = classical_moment(pair_f, 6)
    assert abs(flt - float(exact)) <= 1e-9 * float(exact)
    fe = family_kernel("pair_clt", n=3, model="free")
    ff = family_kernel("pair_clt", n=3, model="free", mode="float")
    assert abs(free_moment(ff, 6) - float(free_moment(fe, 6))) <= 1e-9 * float(
        free_moment(fe, 6)
    )


def _check_mc_classical():
    rep = mc_classical_moment(
        constant_kernel(1, 1), 2, SampleConfig(seed=11, n_samples=20_000)
    )
    assert abs(rep.value - 1.0) <= 5 * rep.stderr, (rep.value, rep.stderr)


def _check_mc_free():
    pv = normalize_variance(new_kernel(2, 2, [0, 1, 1, 0]), "free")
    rep = mc_free_moment(pv, 4, SampleConfig(seed=12, n_samples=40, matrix_dim=60))
    assert abs(rep.value - 2.5) < 0.2, rep.value


def _check_guards():
    try:
        with budget(8):
            # the product formula materializes an order-4 component (16 entries)
            moment_via_expansion(new_kernel(2, 2, [0, 1, 1, 0]), 4, "classical")
    except BudgetExceededError:
        pass
    else:
        raise AssertionError("budget guard did not trip")
    try:
        free_moment(new_kernel(2, 2, [0, 1, 0, 0]), 2)
    except PreconditionError:
        pass
    else:
        raise AssertionError("mirror-symmetry guard did not trip")


def _check_json_roundtrip():
    f = normalize_variance(family_kernel("pair_clt", n=2, model="free"), "free")
    g, model = kernel_from_json(kernel_to_json(f, "free"))
    assert g == f and model == "free"


CHECKS = [
    ("catalan_counts_match_semicircle", _check_catalan),
    ("limit_weights_sum_to_gaussian", _check_limit_weights),
    ("dyck_path_bijection", _check_dyck),
    ("index_class_partition", _check_class_partition),
    ("contraction_norm_bounds", _check_contraction_bounds),
    ("classical_fourth_identity_exact", _check_classical_identity),
    ("free_fourth_identity_exact", _check_free_identity),
    ("classical_oracle_equivalence", _check_oracle_equivalence),
    ("free_cross_path", _check_free_cross_path),
    ("covariance_formulas", _check_covariance_formulas),
    ("exact_float_mode_agreement", _check_mode_agreement),
    ("mc_classical_smoke", _check_mc_classical),
    ("mc_free_gue_smoke", _check_mc_free),
    ("error_guards", _check_guards),
    ("kernel_json_roundtrip", _check_json_roundtrip),
]


def run_all() -> list[dict]:
    """Run every check in order; each result is a ``{"name", "passed",
    "detail"}`` dict, with the exception as the detail of a failure."""
    results = []
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            results.append({"name": name, "passed": False,
                            "detail": f"{type(exc).__name__}: {exc}"})
        else:
            results.append({"name": name, "passed": True, "detail": ""})
    return results
