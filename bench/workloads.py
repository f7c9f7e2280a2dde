"""Workload generator: the job mixes, their kernel files and job order.

    python3 bench/workloads.py --workload wide_exact --seed 7 --out DIR

writes DIR/kernels/*.json and DIR/jobs.json.  The seed fixes the job order
and, where a mix has them, the random kernel coefficients and sampler
seeds; the same seed gives the same files.  The program under test receives
only these files and each job's argv.  This module does not import the
package.

A mix is one round of jobs; the benchmark repeats whole rounds and takes
the 50th and 90th percentiles over every job run of the timed rounds
together.  Each round holds a multiple of ten jobs, and ``min_rounds``
rounds put at least ten job runs beyond the 90th percentile.  Each mix
holds one copy of most jobs and a block of copies of one job at each
percentile, so that every percentile is the quantile of many runs of one
job rather than of the one or two runs that happen to sit at its rank.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from references import gue_tolerance

WORKLOADS = ("deep_chain", "wide_exact", "sampling")

CLASSICAL_SAMPLES = 1_000_000
GUE_DRAWS = {100: 10, 200: 3}
ORDERS = 64


def min_rounds(round_size: int) -> int:
    """Rounds needed for ten jobs beyond the nearest-rank 90th percentile."""
    return -(-100 // round_size)


def random_symmetric_coeffs(rng: np.random.Generator, p: int, m: int) -> list:
    """A symmetric kernel with one random nonzero rational per index
    multiset, copied to every arrangement of it.  Numerators are random;
    denominators cycle through 1..4 in orbit order, so the exact arithmetic
    costs about the same for every seed."""
    by_orbit: dict = {}
    coeffs = []
    for flat in range(m**p):
        digits = tuple(sorted((flat // m**j) % m for j in range(p)))
        if digits not in by_orbit:
            num = int(rng.integers(1, 5)) * int(rng.choice((-1, 1)))
            by_orbit[digits] = Fraction(num, 1 + len(by_orbit) % 4)
        coeffs.append(by_orbit[digits])
    return coeffs


def kernel_json(coeffs: list, p: int, m: int, model: str = "classical") -> str:
    return json.dumps({
        "model": model, "p": p, "m": m, "mode": "exact",
        "coeffs": [f"{c.numerator}/{c.denominator}" for c in map(Fraction, coeffs)],
    })


PAIR = [0, 1, 1, 0]


def _moment(ref: dict, exact: bool = True) -> dict:
    return {"kind": "moment", "ref": ref, "exact": exact}


def _deep_chain(rng, kernel):
    pair_c = kernel("pair_classical", PAIR, 2, 2, "classical")
    pair_f = kernel("pair_free", PAIR, 2, 2, "free")

    def classical(k):
        return (f"pair_classical_k{k}", ["moment", pair_c, "--k", str(k)],
                _moment({"form": "pair_classical", "k": k}))

    def free(k, exact=True):
        argv = ["moment", pair_f, "--k", str(k)] + ([] if exact else ["--mode", "float"])
        return (f"pair_free{'' if exact else '_float'}_k{k}", argv,
                _moment({"form": "pair_free", "k": k}, exact=exact))

    def hermite(model, p, k):
        return (f"constant_hermite_{model}_p{p}_k{k}",
                ["moment", "--family", "constant_hermite", "--p", str(p), "--model", model,
                 "--k", str(k)],
                _moment({"form": "constant_hermite", "model": model, "p": p, "k": k}))

    index_sets = ("index_sets_p2_k12", ["index-sets", "--p", "2", "--k", "12", "--class", "B"],
                  {"kind": "index_sets", "p": 2, "rows": 4213, "c_rows": 132})
    # cheapest to dearest at the seed commit; the pooled median falls among
    # the classical k=9 copies (0.09 s) and the 90th percentile among the
    # float k=14 copies (0.39 s)
    jobs = [
        free(10, exact=False), hermite("free", 3, 8), hermite("classical", 4, 6), free(10),
        classical(8), hermite("free", 4, 8), free(12, exact=False), hermite("classical", 3, 8),
        *[classical(9)] * 11,
        free(12), hermite("free", 3, 10), index_sets, hermite("classical", 4, 8), classical(10),
        *[free(14, exact=False)] * 4,
        free(14), classical(11),
    ]
    tiny = {"pair_classical_k8", "pair_free_k10", "pair_free_float_k10",
            "constant_hermite_free_p3_k8"}
    return jobs, "pair_classical_k8", tiny


def _pair_clt(model: str, n: int, k: int):
    return (f"pair_clt_{model}_n{n}_k{k}",
            ["moment", "--family", "pair_clt", "--n", str(n), "--model", model, "--k", str(k)],
            _moment({"form": "pair_clt", "model": model, "n": n, "k": k}))


def _wide_exact(rng, kernel):
    rand = {}
    for name, p, m in (("r3a", 3, 3), ("r3b", 3, 3), ("r2a", 2, 4)):
        path = kernel(name, random_symmetric_coeffs(rng, p, m), p, m, "classical")
        rand[name] = (path, os.path.join("kernels", f"{name}.json"), 6 if p == 3 else 8)

    def on_random(name, kind):
        path, rel, k = rand[name]
        if kind == "fourth":
            return (f"fourth_{name}", ["fourth-check", path, "--normalize"],
                    {"kind": "fourth", "model": "classical",
                     "ref": {"form": "wick_normalized_fourth", "kernel": rel}})
        return (f"{kind}_{name}_k{k}", ["moment", path, "--k", str(k), "--path", kind],
                _moment({"form": "wick", "kernel": rel, "k": k}))

    def fourth(model, n):
        return (f"fourth_pair_clt_{model}_n{n}",
                ["fourth-check", "--family", "pair_clt", "--n", str(n), "--model", model,
                 "--normalize"],
                {"kind": "fourth", "model": model,
                 "ref": {"form": "pair_clt", "model": model, "n": n, "k": 4}})

    verify = ("verify", ["verify", "--json"], {"kind": "verify", "checks": 15})
    # cheapest to dearest at the seed commit; the pooled median falls among
    # the free n=8, k=6 copies (0.07 s) and the 90th percentile among the
    # p=3 expansions (0.45 s)
    jobs = [
        _pair_clt("free", 4, 4), _pair_clt("classical", 4, 4), _pair_clt("free", 4, 6),
        _pair_clt("classical", 4, 6), _pair_clt("free", 8, 4), fourth("free", 4),
        on_random("r2a", "fourth"), on_random("r3a", "fourth"),
        *[_pair_clt("free", 8, 6)] * 9,
        fourth("classical", 4), on_random("r3b", "oracle"), _pair_clt("free", 12, 4), verify,
        _pair_clt("classical", 8, 6), on_random("r2a", "oracle"), _pair_clt("free", 16, 4),
        *[on_random("r3a", "expansion"), on_random("r3b", "expansion")] * 2,
        _pair_clt("classical", 16, 4), on_random("r2a", "expansion"),
    ]
    tiny = {"pair_clt_classical_n4_k4", "pair_clt_free_n4_k4", "fourth_pair_clt_free_n4",
            "fourth_r2a", "oracle_r3b_k6"}
    return jobs, "pair_clt_classical_n4_k4", tiny


def _sampling(rng, kernel):
    pair_f = kernel("pair_free", PAIR, 2, 2, "free")
    jobs = []
    # the pooled median falls among the dim-200 GUE jobs and the 90th
    # percentile among the classical sampler jobs
    for dim, count in ((100, 6), (200, 8)):
        draws = GUE_DRAWS[dim]
        for i in range(count):
            seed = int(rng.integers(0, 2**31))
            jobs.append((f"gue_dim{dim}_{i}",
                         ["simulate", pair_f, "--model", "free", "--normalize", "--k", "4",
                          "--samples", str(draws), "--seed", str(seed), "--dim", str(dim)],
                         {"kind": "simulate_gue", "dim": dim, "draws": draws,
                          "ref": {"form": "pair_clt", "model": "free", "n": 1, "k": 4},
                          "tol": gue_tolerance(dim, draws)}))
    for i in range(6):
        seed = int(rng.integers(0, 2**31))
        jobs.append((f"classical_sampler_{i}",
                     ["simulate", "--family", "pair_clt", "--n", "4", "--model", "classical",
                      "--k", "4", "--samples", str(CLASSICAL_SAMPLES), "--seed", str(seed)],
                     {"kind": "simulate_classical", "samples": CLASSICAL_SAMPLES,
                      "ref": {"form": "pair_clt", "model": "classical", "n": 4, "k": 4}}))
    tiny = {"gue_dim100_0"}
    return jobs, "gue_dim100_0", tiny


MIXES = {
    "deep_chain": _deep_chain,
    "wide_exact": _wide_exact,
    "sampling": _sampling,
}


def generate(workload: str, seed: int, workdir: str, tiny: bool = False) -> dict:
    """Write the kernel files and jobs.json for one workload; return the plan.

    The plan holds the warm-up job, one round of jobs, a seeded order of
    the round for each of ORDERS rounds (cycled after that), and the minimum
    number of rounds to run.  Each round runs in its own order, so a job's
    median over the rounds does not hinge on the job before it."""
    if workload not in MIXES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    kdir = os.path.join(workdir, "kernels")
    odir = os.path.join(workdir, "out")
    os.makedirs(kdir, exist_ok=True)
    os.makedirs(odir, exist_ok=True)

    def kernel(name, coeffs, p, m, model):
        path = os.path.join(kdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(kernel_json(coeffs, p, m, model))
        return path

    entries, warm_name, tiny_names = MIXES[workload](rng, kernel)
    if len(entries) % 10:
        raise AssertionError(f"{workload}: a round must hold a multiple of ten jobs")
    if tiny:
        entries = list({e[0]: e for e in entries if e[0] in tiny_names}.values())

    def job(name, argv, check, tag):
        out = os.path.join(odir, f"{tag}.out")
        return {"name": name, "argv": argv + ["--threads", "1", "--out", out],
                "out": out, "check": check}

    warm = next(e for e in entries if e[0] == warm_name)
    plan = {
        "workload": workload,
        "seed": seed,
        "warmup": job(*warm, tag="warmup"),
        "jobs": [job(*entry, tag=f"{i:02d}") for i, entry in enumerate(entries)],
        "orders": [rng.permutation(len(entries)).tolist() for _ in range(ORDERS)],
        "min_rounds": 1 if tiny else min_rounds(len(entries)),
    }
    with open(os.path.join(workdir, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    return plan


def main() -> int:
    parser = argparse.ArgumentParser(description="Write one workload's inputs.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    parser.add_argument("--tiny", action="store_true", help="a few cheap jobs only")
    args = parser.parse_args()
    plan = generate(args.workload, args.seed, args.out, args.tiny)
    print(f"{len(plan['jobs'])} jobs per round, at least {plan['min_rounds']} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
