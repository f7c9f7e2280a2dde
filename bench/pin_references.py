"""Pin the reference moments that have no closed form, and cross-check the
rest against the package.

Usage, from the repository root:

    python3 bench/pin_references.py           # check, then rewrite references.json
    python3 bench/pin_references.py --check   # check only

The moments of the free-normalized pair kernel F_1 (m = 2) are computed by
the closed-form contraction path and by the iterated product formula; they
are pinned only when the two agree exactly.  Every other reference in
``references.py`` is compared with the package's formula path (and, where
it applies, the Wick oracle), so a disagreement between the harness and
the package shows here rather than as benchmark failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from chaoskit import (  # noqa: E402
    family_kernel,
    free_moment,
    classical_moment,
    moment_via_expansion,
    new_kernel,
    normalize_variance,
    symmetrize,
    wick_oracle_moment,
)

import references as refs  # noqa: E402
from workloads import random_symmetric_coeffs, kernel_json  # noqa: E402

K_MAX = 14


def pin_pair_free() -> dict:
    f1 = normalize_variance(new_kernel(2, 2, [0, 1, 1, 0]), "free")
    moments = {}
    for k in range(2, K_MAX + 1):
        a = free_moment(f1, k)
        b = moment_via_expansion(f1, k, "free")
        if a != b:
            raise SystemExit(f"free pair k={k}: formula {a} != expansion {b}")
        moments[str(k)] = f"{a.numerator}/{a.denominator}"
    return moments


def cross_check() -> list[str]:
    done = []

    def same(label, ours, theirs):
        if Fraction(ours) != Fraction(theirs):
            raise SystemExit(f"{label}: reference {ours} != package {theirs}")
        done.append(label)

    pair = new_kernel(2, 2, [0, 1, 1, 0])
    for k in range(2, 12):
        same(f"pair classical k={k}", refs.pair_classical(k), classical_moment(pair, k))
    for k in range(2, K_MAX + 1):
        same(f"pair free k={k}", refs.pair_free(k), free_moment(pair, k))
    for n in (1, 2, 3):
        for k in range(2, 9):
            f = family_kernel("pair_clt", n=n, model="classical")
            same(f"pair_clt classical n={n} k={k}", refs.pair_clt_classical(n, k),
                 classical_moment(symmetrize(f), k))
    for n in (2, 3, 4):
        for k in range(2, 9):
            f = family_kernel("pair_clt", n=n, model="free")
            same(f"pair_clt free n={n} k={k}", refs.pair_clt_free(n, k), free_moment(f, k))
    for p in (3, 4):
        for k in (6, 8, 10):
            f = family_kernel("constant_hermite", p=p)
            if p * k <= 24:
                same(f"constant_hermite classical p={p} k={k} (oracle)",
                     refs.constant_hermite("classical", p, k), wick_oracle_moment(f, k))
            if k <= 8:
                same(f"constant_hermite classical p={p} k={k}",
                     refs.constant_hermite("classical", p, k), classical_moment(f, k))
            same(f"constant_hermite free p={p} k={k}",
                 refs.constant_hermite("free", p, k), free_moment(f, k))
    rng = np.random.default_rng(20240)
    with tempfile.TemporaryDirectory() as tmp:
        for p, m, k in ((3, 3, 6), (2, 4, 8), (2, 3, 6)):
            coeffs = random_symmetric_coeffs(rng, p, m)
            path = os.path.join(tmp, "k.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(kernel_json(coeffs, p, m))
            f = new_kernel(p, m, coeffs)
            same(f"random p={p} m={m} k={k} (oracle)", refs.wick_moment(path, k),
                 wick_oracle_moment(f, k))
            same(f"random p={p} m={m} k={k}", refs.wick_moment(path, k),
                 classical_moment(f, k))
            fn = normalize_variance(f, "classical")
            same(f"random p={p} m={m} normalized k=4", refs.wick_normalized_fourth(path),
                 classical_moment(fn, 4))
    return done


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify only; do not rewrite references.json")
    args = parser.parse_args()
    moments = pin_pair_free()
    path = os.path.join(HERE, "references.json")
    if args.check:
        with open(path, encoding="utf-8") as fh:
            pinned = json.load(fh)["pair_clt_free_n1"]["moments"]
        if pinned != moments:
            raise SystemExit("references.json disagrees with the package")
    else:
        doc = {
            "pair_clt_free_n1": {
                "kernel": "pair kernel [0,1,1,0] at m=2, free-normalized (scale_sq 2)",
                "provenance": "chaoskit free_moment (closed-form contraction sums) "
                              "== moment_via_expansion (iterated free product "
                              "formula), exact, for every k listed",
                "moments": moments,
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        refs._pinned.cache_clear()
    checks = cross_check()
    print(f"{len(moments)} pinned moments; {len(checks)} cross-checks agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
