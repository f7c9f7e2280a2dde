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
