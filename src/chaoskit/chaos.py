"""Finite chaos expansions and the classical/free product formulas.

A :class:`ChaosExpansion` is a finite map order -> kernel standing for the
random variable sum_q I_q(g_q) (classical Brownian case) or its free
analogue.  Distinct orders are orthogonal, expectations kill every order
above zero, and products expand by

    classical: I_p(f) I_q(g) = sum_r r! C(p,r) C(q,r) I_{p+q-2r}(sym(f ox_r g))
    free:      I_p(f) I_q(g) = sum_r I_{p+q-2r}(f fr_r g)

Classical kernels are symmetrized once on insertion (the integral only sees
the symmetrization); free kernels are stored verbatim because the free
calculus is order-sensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contractions import contract_classical_sym, contract_free
from .errors import InvalidInputError, PreconditionError
from .kernels import (
    MODELS,
    GridKernel,
    Scalar,
    add as kernel_add,
    as_scalar,
    is_mirror_symmetric,
    scale as kernel_scale,
    scaled_scalar,
    symmetrize,
)


@dataclass(frozen=True, eq=False)
class ChaosExpansion:
    """Immutable finite chaos expansion; absent orders are zero."""

    model: str
    resolution: int
    mode: str
    components: dict[int, GridKernel]

    def orders(self) -> list[int]:
        return sorted(self.components)

    def __repr__(self) -> str:
        return (
            f"ChaosExpansion(model={self.model!r}, m={self.resolution}, "
            f"orders={self.orders()})"
        )


def from_kernel(f: GridKernel, model: str) -> ChaosExpansion:
    """Single-component expansion {p: f} (classical: f replaced by its
    symmetrization)."""
    if model not in MODELS:
        raise InvalidInputError(f"unknown model {model!r}")
    g = symmetrize(f) if (model == "classical" and f.order > 1) else f
    return ChaosExpansion(model, f.resolution, f.mode, {f.order: g})


def _accumulate(components: dict[int, GridKernel], order: int, kern: GridKernel) -> None:
    if order in components:
        components[order] = kernel_add(components[order], kern)
    else:
        components[order] = kern


def multiply(F: ChaosExpansion, G: ChaosExpansion,
             max_order: int | None = None) -> ChaosExpansion:
    """Product of two expansions via the model's product formula; orders
    above max_order, when given, are dropped."""
    if F.model != G.model:
        raise InvalidInputError(f"model mismatch: {F.model} != {G.model}")
    if F.resolution != G.resolution:
        raise InvalidInputError(
            f"resolution mismatch: {F.resolution} != {G.resolution}"
        )
    if F.mode != G.mode:
        raise InvalidInputError(f"mode mismatch: {F.mode} != {G.mode}")
    out: dict[int, GridKernel] = {}
    for p in F.orders():
        fk = F.components[p]
        for q in G.orders():
            gk = G.components[q]
            for r in range(0, min(p, q) + 1):
                order = p + q - 2 * r
                if max_order is not None and order > max_order:
                    continue
                if F.model == "classical":
                    term = contract_classical_sym(fk, gk, r)
                    coeff = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
                    if coeff != 1:
                        term = kernel_scale(term, coeff)
                else:
                    term = contract_free(fk, gk, r)
                _accumulate(out, order, term)
    out = {q: kern for q, kern in out.items() if not kern.is_zero()}
    return ChaosExpansion(F.model, F.resolution, F.mode, out)


def add(F: ChaosExpansion, G: ChaosExpansion) -> ChaosExpansion:
    if (F.model, F.resolution, F.mode) != (G.model, G.resolution, G.mode):
        raise InvalidInputError("can only add expansions of the same kind")
    out = dict(F.components)
    for q, kern in G.components.items():
        _accumulate(out, q, kern)
    out = {q: kern for q, kern in out.items() if not kern.is_zero()}
    return ChaosExpansion(F.model, F.resolution, F.mode, out)


def expectation(F: ChaosExpansion) -> Scalar:
    """The order-0 component's value; every positive order has mean zero."""
    comp = F.components.get(0)
    if comp is None:
        return as_scalar(0, F.mode)
    return scaled_scalar(comp.coeffs[0], comp.scale_sq, 1, comp.mode)


def moment_via_expansion(f: GridKernel, k: int, model: str) -> Scalar:
    """E[I_p(f)^k] by k-1 product-formula multiplications and expectation.

    Components whose order cannot contract back to zero within the
    remaining multiplications are dropped as they arise; they contribute
    nothing to the final expectation and would otherwise blow through the
    entry budget.
    """
    if k < 1:
        raise InvalidInputError("moment order k must be >= 1")
    if model == "free" and not is_mirror_symmetric(f):
        raise PreconditionError(
            "free moments are defined for mirror-symmetric kernels"
        )
    F0 = from_kernel(f, model)
    acc = F0
    for j in range(2, k + 1):
        acc = multiply(acc, F0, max_order=(k - j) * f.order)
    return expectation(acc)
