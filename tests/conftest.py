"""Shared helpers: independent brute-force oracles and random kernels
(the random-kernel generators are the ones ``chaoskit verify`` uses).

The brute-force contractions below are deliberately naive (triple loops over
index tuples straight from the defining integrals) so they share no code
with the reshape/matmul implementations they check.
"""

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from chaoskit.kernels import GridKernel, new_kernel, symmetrize
from chaoskit.verify import _random_kernel as random_kernel
from chaoskit.verify import _random_mirror as random_mirror_kernel
from chaoskit.verify import _random_symmetric as random_symmetric_kernel


def brute_contract_classical(f: GridKernel, g: GridKernel, r: int) -> GridKernel:
    p, q, m = f.order, g.order, f.resolution
    fa, ga = f.array, g.array
    out = np.empty(m ** (p + q - 2 * r), dtype=object)
    pos = 0
    for t1 in product(range(m), repeat=p - r):
        for t2 in product(range(m), repeat=q - r):
            acc = Fraction(0)
            for s in product(range(m), repeat=r):
                acc += fa[t1 + s] * ga[t2 + s]
            out[pos] = acc / m**r
            pos += 1
    return GridKernel(p + q - 2 * r, m, "exact", out, f.scale_sq * g.scale_sq)


def brute_contract_free(f: GridKernel, g: GridKernel, r: int) -> GridKernel:
    p, q, m = f.order, g.order, f.resolution
    fa, ga = f.array, g.array
    out = np.empty(m ** (p + q - 2 * r), dtype=object)
    pos = 0
    for t1 in product(range(m), repeat=p - r):
        for t2 in product(range(m), repeat=q - r):
            acc = Fraction(0)
            for s in product(range(m), repeat=r):
                acc += fa[t1 + s] * ga[tuple(reversed(s)) + t2]
            out[pos] = acc / m**r
            pos += 1
    return GridKernel(p + q - 2 * r, m, "exact", out, f.scale_sq * g.scale_sq)


def brute_symmetrize(f: GridKernel) -> GridKernel:
    p, m = f.order, f.resolution
    fa = f.array
    out = np.empty(m**p, dtype=object)
    pos = 0
    for idx in product(range(m), repeat=p):
        acc = Fraction(0)
        for perm in permutations(range(p)):
            acc += fa[tuple(idx[j] for j in perm)]
        out[pos] = acc / math.factorial(p)
        pos += 1
    return GridKernel(p, m, "exact", out, f.scale_sq)


def brute_chain(f: GridKernel, ranks, model: str) -> GridKernel:
    """Literal dense left-to-right iterated contraction."""
    from chaoskit.contractions import contract_classical_sym, contract_free

    acc = symmetrize(f) if model == "classical" else f
    step = contract_classical_sym if model == "classical" else contract_free
    for r in ranks:
        acc = step(acc, f if model == "free" else symmetrize(f), r)
    return acc


def brute_gauss_polynomial(f: GridKernel) -> dict:
    """f's integral as a polynomial in m standard normals, WITHOUT the
    m^(-p/2) and scale factors, one ordered cell at a time: cell I with
    index multiplicities (k_1, ...) contributes a_I * prod_i He_{k_i}(xi_i)."""
    from chaoskit.moments import _hermite_coeffs

    m = f.resolution
    poly: dict = {}
    for a, digits in zip(f.coeffs, product(range(m), repeat=f.order)):
        if a == 0:
            continue
        counts: dict[int, int] = {}
        for d in digits:
            counts[d] = counts.get(d, 0) + 1
        cell_poly: dict = {(0,) * m: 1}
        for var, cnt in counts.items():
            nxt: dict = {}
            for exps, co in cell_poly.items():
                for e, c in enumerate(_hermite_coeffs(cnt)):
                    if c == 0:
                        continue
                    key = exps[:var] + (exps[var] + e,) + exps[var + 1 :]
                    nxt[key] = nxt.get(key, 0) + co * c
            cell_poly = nxt
        for exps, co in cell_poly.items():
            poly[exps] = poly.get(exps, 0) + a * co
    return {e: c for e, c in poly.items() if c != 0}


def nonzero(rng, maker, *args, **kwargs) -> GridKernel:
    while True:
        f = maker(rng, *args, **kwargs)
        if not f.is_zero():
            return f


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def pair_kernel():
    return new_kernel(2, 2, [0, 1, 1, 0])
