"""Monte Carlo verification of the exact moment formulas.

Classical side: integrals of symmetric step kernels are sampled exactly in
law by evaluating the Hermite form of `kernels._cell_plan` at the scaled
increments xi_i = sqrt(m) * (B(i/m) - B((i-1)/m)).  Each (variable,
degree) column is evaluated once per block and shared by every orbit.

Free side: there is no exact sampler, so increments of free Brownian motion
are approximated by independent N x N GUE matrices whose normalized trace
variance is exactly 1/m at finite N, and moments are read off normalized
traces of powers.  The bias vanishes as N grows.  The matrix model
F_N = sum_I a_I G_{i_1} ... G_{i_p} is built for every p >= 1 the same way:
the last kernel axis is contracted against the stacked increments, then
each remaining axis costs one batched gemm against the block row
[G_1 ... G_m], so a draw spends its time in the Philox normals and BLAS.
The k trace moments take ceil(k/2) - 1 matmuls: with F, ..., F^ceil(k/2)
formed, tr(F^j) = sum(F^a * (F^b).T) for a + b = j costs O(N^2).  Kernel
checks (mirror symmetry, off-diagonal support, the entry budget for the
m N^2 increments and m^(p-1) N^2 stacked partials) run once per
mc_free_moment call, not once per draw; the per-draw Hermitian and
imaginary-residue assertions stay.

Reproducibility contract: all randomness flows through Philox generators
keyed by SeedSequence(entropy=seed, spawn_key=(index,)).  GUE draws derive
one generator per draw; the classical sampler derives one per 65536-sample
block (per-sample derivation would dominate the runtime).  Identical
SampleConfig values therefore give bit-identical estimates, independent of
the worker count; per-block partials are reduced in index order and every
in-block reduction uses numpy's pairwise summation.
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import hermite_e

from .config import check_entries, thread_count
from .errors import InvalidInputError, PreconditionError
from .kernels import (
    GridKernel,
    Scalar,
    _cell_plan,
    as_float,
    is_mirror_symmetric,
    is_off_diagonal,
    is_symmetric,
)
from .moments import MomentReport, classical_moment, free_moment

RNG_ALGORITHM = "philox4x64 keyed by SeedSequence(entropy=seed, spawn_key=(index,))"

CLASSICAL_BLOCK = 1 << 16


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling protocol: same config, same estimates."""

    seed: int
    n_samples: int
    matrix_dim: Optional[int] = None

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InvalidInputError("seed must be an integer")
        if self.seed < 0 or self.seed >= 2**64:
            raise InvalidInputError("seed must fit in an unsigned 64-bit integer")
        if self.n_samples < 1:
            raise InvalidInputError("n_samples must be >= 1")
        if self.matrix_dim is not None and self.matrix_dim < 2:
            raise InvalidInputError("matrix_dim must be >= 2")


def derive_rng(seed: int, index: int) -> np.random.Generator:
    """The documented per-index stream derivation."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))


# --- classical sampling -----------------------------------------------------


def _hermite_column(x: np.ndarray, degree: int) -> np.ndarray:
    """He_degree(x); degree 1 is x itself (a view, no copy)."""
    if degree == 1:
        return x
    basis = np.zeros(degree + 1)
    basis[degree] = 1.0
    return hermite_e.hermeval(x, basis)


def _evaluate_plan(plan, norm: float, xi: np.ndarray) -> np.ndarray:
    """Evaluate a float kernel's cell plan, times norm = m^(-p/2), on a
    (batch, m) matrix of normals.  Each (variable, degree) column is
    computed once per call."""
    total = np.zeros(xi.shape[0])
    columns: dict[tuple[int, int], np.ndarray] = {}
    for variables, mults, coeff in plan:
        term = np.full(xi.shape[0], coeff * norm)
        for var, cnt in zip(variables.tolist(), mults.tolist()):
            col = columns.get((var, cnt))
            if col is None:
                col = columns[var, cnt] = _hermite_column(xi[:, var], cnt)
            term *= col
        total += term
    return total


def _int_power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k for an integer k >= 1 by repeated squaring (no C pow call)."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


def _map(fn, items) -> list:
    """[fn(x) for x in items], in input order, on thread_count() threads;
    each task runs in a copy of the caller's context, so a worker keeps its
    budget and numpy error state."""
    workers = thread_count()
    if workers > 1 and len(items) > 1:
        ctx = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda x: ctx.copy().run(fn, x), items))
    return [fn(x) for x in items]


def sample_classical(f: GridKernel, rng: np.random.Generator) -> float:
    """One exact-in-law draw of the integral of a symmetric step kernel."""
    if not is_symmetric(f):
        raise PreconditionError("classical sampling requires a symmetric kernel")
    plan = _cell_plan(as_float(f))
    xi = rng.standard_normal((1, f.resolution))
    return float(_evaluate_plan(plan, f.resolution ** (-f.order / 2.0), xi)[0])


def mc_classical_moment(f: GridKernel, k: int, cfg: SampleConfig,
                        target: Optional[Scalar] = None) -> MomentReport:
    """Empirical k-th moment with stderr = std(F^k samples) / sqrt(n)."""
    if k < 1:
        raise InvalidInputError("moment order k must be >= 1")
    if not is_symmetric(f):
        raise PreconditionError("classical sampling requires a symmetric kernel")
    plan = _cell_plan(as_float(f))
    m = f.resolution
    norm = m ** (-f.order / 2.0)
    n = cfg.n_samples
    # the largest block's normals, checked once before any draw
    check_entries(m, 1, rows=min(n, CLASSICAL_BLOCK), what="classical sample block")
    blocks = [
        (b, min(CLASSICAL_BLOCK, n - b * CLASSICAL_BLOCK))
        for b in range((n + CLASSICAL_BLOCK - 1) // CLASSICAL_BLOCK)
    ]

    def run_block(args):
        b, rows = args
        rng = derive_rng(cfg.seed, b)
        xi = rng.standard_normal((rows, m))
        powers = _int_power(_evaluate_plan(plan, norm, xi), k)
        return np.sum(powers), np.sum(powers * powers)

    partials = _map(run_block, blocks)
    s1 = float(np.sum([p[0] for p in partials]))
    s2 = float(np.sum([p[1] for p in partials]))
    est = s1 / n
    var = max(0.0, (s2 - n * est * est) / (n - 1)) if n > 1 else 0.0
    stderr = math.sqrt(var / n)
    if target is None and k >= 2:
        target = classical_moment(as_float(f), k)
    return MomentReport(k=k, value=est, path="simulation", stderr=stderr, target=target)


# --- free sampling via GUE approximation ------------------------------------


def gue_increments(m: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """m independent dim x dim GUE matrices scaled so that the expected
    normalized trace of G^2 is exactly 1/m at finite dim."""
    scale = 1.0 / math.sqrt(dim * m)
    shape = (m, dim, dim)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    re *= scale
    im *= scale
    # (A + A^*) / 2 for A = re + i im, built part by part
    out = np.empty(shape, dtype=complex)
    np.add(re, re.transpose(0, 2, 1), out=out.real)
    np.subtract(im, im.transpose(0, 2, 1), out=out.imag)
    out *= 0.5
    return out


def _matrix_model(f: GridKernel, incr: np.ndarray) -> np.ndarray:
    """F_N = sum over cells of a_I G_{i_1} ... G_{i_p}, one kernel axis at a
    time from the last: contract it against the stacked increments, then
    fold each remaining axis in with one batched gemm against the block
    row [G_1 ... G_m]."""
    p, m = f.order, f.resolution
    dim = incr.shape[1]
    if p == 0:
        return float(f.coeffs[0]) * np.eye(dim, dtype=complex)
    x = np.tensordot(f.coeffs.reshape(-1, m), incr, axes=([1], [0]))
    row = incr.transpose(1, 0, 2).reshape(dim, m * dim)
    for _ in range(p - 1):
        x = row @ x.reshape(-1, m * dim, dim)
    return x.reshape(dim, dim)


def _free_sampling_kernel(f: GridKernel, k: int, dim: int) -> GridKernel:
    """Check a GUE sampling request before anything is allocated and return
    the float kernel the draws use."""
    if k < 1:
        raise InvalidInputError("moment order k must be >= 1")
    if dim < 2:
        raise InvalidInputError("matrix dimension must be >= 2")
    if not is_mirror_symmetric(f):
        raise PreconditionError("GUE sampling requires a mirror-symmetric kernel")
    if not is_off_diagonal(f):
        raise PreconditionError(
            "GUE sampling requires an off-diagonal kernel; refine first"
        )
    # a draw holds m increments and the m^(p-1) stacked partials of
    # _matrix_model, each dim x dim
    p, m = f.order, f.resolution
    check_entries(m, max(1, p - 1), rows=dim * dim,
                  what=f"GUE matrix model at dimension {dim}")
    return as_float(f)


def _gue_moments(ff: GridKernel, k: int, dim: int,
                 rng: np.random.Generator) -> np.ndarray:
    """One draw of (1/N) tr(F_N^j), j = 1..k, for a checked float kernel.
    Only F, ..., F^ceil(k/2) are formed, two at a time: tr(F^j) =
    sum(F^a * (F^b).T) with a = j // 2 and b = j - a is the trace of the
    actual product, so no symmetry of F_N is assumed."""
    fn = _matrix_model(ff, gue_increments(ff.resolution, dim, rng))
    herm_residue = np.max(np.abs(fn - fn.conj().T))
    fn_scale = max(1.0, float(np.max(np.abs(fn))))
    if herm_residue > 1e-10 * fn_scale:
        raise AssertionError(
            f"matrix model lost Hermitianity: residue {herm_residue}"
        )
    traces = [np.trace(fn)]
    power = fn
    while len(traces) < k:
        traces.append(np.sum(power * power.T))
        if len(traces) < k:
            higher = power @ fn
            traces.append(np.sum(power * higher.T))
            power = higher
    out = np.empty(k)
    for j, tr in enumerate(traces, 1):
        tr = complex(tr) / dim
        if abs(tr.imag) > 1e-10 * max(1.0, abs(tr.real)):
            raise AssertionError(f"trace moment {j} has imaginary residue {tr.imag}")
        out[j - 1] = tr.real
    return out


def sample_free_gue(f: GridKernel, k: int, dim: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Normalized trace moments (1/N) tr(F_N^j), j = 1..k, of one draw of the
    matrix model.  Requires a mirror-symmetric, off-diagonal kernel so that
    F_N is Hermitian and no diagonal cell mass is silently approximated;
    refine diagonal-supported kernels first."""
    return _gue_moments(_free_sampling_kernel(f, k, dim), k, dim, rng)


def mc_free_moment(f: GridKernel, k: int, cfg: SampleConfig,
                   target: Optional[Scalar] = None) -> MomentReport:
    """Average of the k-th normalized trace moment over n_samples
    independent draws; the kernel is checked once, not once per draw."""
    if cfg.matrix_dim is None:
        raise InvalidInputError("free simulation requires matrix_dim in the config")
    dim = cfg.matrix_dim
    ff = _free_sampling_kernel(f, k, dim)

    def run_draw(i: int) -> float:
        return float(_gue_moments(ff, k, dim, derive_rng(cfg.seed, i))[k - 1])

    draws = np.array(_map(run_draw, range(cfg.n_samples)), dtype=float)
    est = float(np.mean(draws))
    stderr = (
        float(np.std(draws, ddof=1) / math.sqrt(cfg.n_samples))
        if cfg.n_samples > 1
        else 0.0
    )
    if target is None and k >= 2:
        target = free_moment(ff, k)
    return MomentReport(k=k, value=est, path="simulation", stderr=stderr, target=target)
