"""One workload in one fresh process: set up, run the closed loop, check.

Started by ``run.py``; prints one JSON object as its last stdout line.

Set-up is timed from the moment ``run.py`` started this process (passed as
``--spawned-at``, wall clock) to the end of one cold warm-up job: it covers
interpreter start, importing the package from ``src/``, writing the
workload's kernel files and job order, and that job.

The timed run is a closed loop with one client: each job is a call of
``chaoskit.cli.main(argv)`` that starts when the previous one has returned
and been checked.  Whole rounds of the mix run until the jobs' summed wall
time reaches ``--seconds``, and at least the mix's minimum number of rounds.
Checking sits between jobs and is not timed.

With ``--trace 1`` the loop runs untraced for half the time, then with the
span recorder installed for the other half, and reports per-layer metrics
per round of the mix plus the traced / untraced throughput ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import ctypes
import ctypes.util
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

import references as refs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "CHAOSKIT_THREADS")


def import_package():
    """Import chaoskit's CLI module from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    from chaoskit import cli

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"chaoskit imported from {where}, not from {SRC}")
    return cli


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # noqa: BLE001 - older numpy: record why it is missing
        blas = {"error": repr(exc)}
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "chaoskit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {**{k: os.environ.get(k) for k in THREAD_ENV}, "cli": "--threads 1"},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of this checkout if it is a git work tree, read from .git only."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


# --- running and checking one job ---------------------------------------------


def run_job(cli, job) -> tuple[int, float, str]:
    """(exit code, wall seconds, error text); exit -1 means an exception.
    The job's previous output is removed first, so none is read twice."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(job["out"])
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(list(job["argv"]))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - a traceback is a failed job
        rc, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    return rc, time.perf_counter() - start, err.getvalue()


def _compare(value, ref: Fraction, exact: bool):
    if exact:
        if not isinstance(value, str) or Fraction(value) != ref:
            return f"value {value!r} != exact reference {ref}"
        return None
    v, r = float(value), float(ref)
    tol = refs.FLOAT_RTOL * abs(r) if r else refs.FLOAT_ATOL
    if not math.isfinite(v) or abs(v - r) > tol:
        return f"value {v!r} misses reference {r!r} (tolerance {tol:.3g})"
    return None


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(line for line in text.splitlines()
                               if not line.startswith("#")))


def _check_index_sets(rows: list[dict], spec: dict):
    """Every row a distinct closed rank tuple with its classical weight
    prod_j r_j! C(p, r_j) C(o_{j-1}, r_j); the row count is |B_k| and the
    all-{0, p} rows number Cat(k/2)."""
    p, seen, full_steps = spec["p"], set(), 0
    for row in rows:
        r = tuple(int(x) for x in row["r"].split("|"))
        order, weight = p, 1
        for rj in r:
            if not 0 <= rj <= min(p, order):
                return f"rank tuple {r} is not in A_k"
            weight *= math.factorial(rj) * math.comb(p, rj) * math.comb(order, rj)
            order += p - 2 * rj
        if order != 0 or r in seen or int(row["classical_coeff"]) != weight:
            return f"row {row} is not a distinct B_k tuple with its weight"
        seen.add(r)
        full_steps += all(rj in (0, p) for rj in r)
    got = (len(rows), full_steps)
    want = (spec["rows"], spec["c_rows"])
    return None if got == want else f"(rows, class-C rows) {got} != {want}"


class Checker:
    """Compares each job's output with its reference; references are
    resolved once, before the timed loop."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._refs: dict = {}

    def ref(self, spec: dict) -> Fraction:
        key = json.dumps(spec, sort_keys=True)
        if key not in self._refs:
            self._refs[key] = refs.resolve(spec, self.workdir)
        return self._refs[key]

    def prepare(self, jobs: list) -> None:
        for job in jobs:
            if "ref" in job["check"]:
                self.ref(job["check"]["ref"])

    def __call__(self, job: dict, rc: int, err: str):
        """None when the job's answer is right, else the reason it is not."""
        if rc != 0:
            return f"exit code {rc}: {err.strip()[-300:]}"
        try:
            with open(job["out"], encoding="utf-8") as fh:
                text = fh.read()
            return self._check(job["check"], text)
        except Exception as exc:  # noqa: BLE001 - unreadable output is a failure
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check(self, spec: dict, text: str):
        kind = spec["kind"]
        if kind == "index_sets":
            return _check_index_sets(_csv_rows(text), spec)
        report = json.loads(text)["report"]
        if kind == "moment":
            return _compare(report["value"], self.ref(spec["ref"]), spec["exact"])
        if kind == "fourth":
            ref = self.ref(spec["ref"])
            limit = 3 if spec["model"] == "classical" else 2
            for field, want in (("moment", ref), ("identity", ref), ("residue", 0),
                                ("gap", ref - limit)):
                bad = _compare(report[field], Fraction(want), exact=True)
                if bad:
                    return f"{field}: {bad}"
            if spec["model"] == "classical" and \
                    report["square_identity_lhs"] != report["square_identity_rhs"]:
                return "square identity sides differ"
            return None
        if kind == "verify":
            checks = report["checks"]
            if report["passed"] is not True or len(checks) != spec["checks"] or \
                    not all(c["passed"] for c in checks):
                return "verify reported a failing check"
            return None
        target = self.ref(spec["ref"])
        bad = _compare(report["target"], target, exact=False)
        if bad:
            return f"target: {bad}"
        if kind == "simulate_classical":
            if report["n_samples"] != spec["samples"]:
                return f"n_samples {report['n_samples']} != {spec['samples']}"
            z = report["z_score"]
            if z is None or not abs(z) <= refs.Z_CLASSICAL:
                return f"z-score {z} beyond {refs.Z_CLASSICAL}"
            return None
        if kind == "simulate_gue":
            miss = abs(report["estimate"] - float(target))
            if not miss <= spec["tol"]:
                return f"GUE estimate misses {float(target)} by {miss:.4f} > {spec['tol']:.4f}"
            return None
        raise ValueError(f"unknown check kind {kind!r}")


# --- the closed loop --------------------------------------------------------------


class Loop:
    def __init__(self, cli, plan: dict, checker: Checker):
        self.cli = cli
        self.plan = plan
        self.checker = checker
        self.attempted = 0
        self.rounds_run = 0
        self.failures: list[str] = []

    def record(self, job, rc, err):
        self.attempted += 1
        bad = self.checker(job, rc, err)
        if bad:
            self.failures.append(f"{job['name']}: {bad}")

    def rounds(self, seconds: float, min_rounds: int, tracer=None):
        """Run whole rounds until their job time reaches ``seconds``; return
        the job times of each round (one list per round; entry i is job i)."""
        jobs, orders = self.plan["jobs"], self.plan["orders"]
        rounds: list[list[float]] = []
        measured = 0.0
        while len(rounds) < min_rounds or measured < seconds:
            times = [0.0] * len(jobs)
            for i in orders[self.rounds_run % len(orders)]:
                job = jobs[i]
                if tracer is not None:
                    tracer.job = f"{self.rounds_run}:{i}"
                rc, dt, err = run_job(self.cli, job)
                times[i] = dt
                self.record(job, rc, err)
                settle()
            rounds.append(times)
            measured += sum(times)
            self.rounds_run += 1
        return rounds


def settle() -> None:
    """Between jobs, untimed: collect garbage and hand freed heap back to the
    OS, so the peak resident set does not depend on the job order."""
    gc.collect()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def jobs_per_s(rounds: list[list[float]]) -> float:
    """Jobs per second of job time in a round with each job at its median
    time over the rounds, so that a burst of load on the host that slows a
    few runs does not move it."""
    return len(rounds[0]) / sum(map(statistics.median, zip(*rounds)))


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one workload (see run.py).")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    cli = import_package()
    plan = workloads.generate(args.workload, args.seed, args.workdir, args.tiny)
    warm = plan["warmup"]
    rc, _, err = run_job(cli, warm)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "warmup_rc": rc}))
        return 0

    checker = Checker(args.workdir)
    checker.prepare([warm] + plan["jobs"])
    loop = Loop(cli, plan, checker)
    loop.record(warm, rc, err)
    result = {"setup_s": setup_s, "round_size": len(plan["jobs"]), "env": environment()}
    if args.trace:
        base = loop.rounds(args.seconds / 2, 1)
        modules = {layer: importlib.import_module(f"chaoskit.{layer}") for layer in spans.LAYERS}
        tracer = spans.Tracer()
        tracer.install(modules)
        try:
            traced = loop.rounds(args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        metrics = spans.summarize(tracer.spans, len(traced))
        metrics["bench.trace_overhead"] = jobs_per_s(traced) / jobs_per_s(base)
        tracer.dump(os.path.join(args.workdir, "spans.json"))
        result.update(rounds=len(base) + len(traced), traced_rounds=len(traced),
                      spans=len(tracer.spans))
    else:
        rounds = loop.rounds(args.seconds, plan["min_rounds"])
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pooled = [t for times in rounds for t in times]
        metrics = {
            "job_p50_s": nearest_rank(pooled, 0.5),
            "job_p90_s": nearest_rank(pooled, 0.9),
            "jobs_per_s": jobs_per_s(rounds),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        result.update(rounds=len(rounds), samples=len(pooled),
                      beyond_p90=sum(t > metrics["job_p90_s"] for t in pooled),
                      round_s=[sum(times) for times in rounds])
    result.update(metrics=metrics, attempted=loop.attempted, failed=len(loop.failures),
                  failures=loop.failures[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
