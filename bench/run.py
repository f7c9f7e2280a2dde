"""chaoskit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh worker processes
(``worker.py``) that import the package from ``src/``, write the workload's
inputs from the seed (``workloads.py``), and drive ``chaoskit.cli.main``
in-process as one closed-loop client, checking every answer against its
reference (``references.py``).  Every worker runs with one BLAS/OpenMP
thread, ``CHAOSKIT_THREADS=1`` and ``--threads 1``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
set-up time (median of SETUPS fresh processes), the 50th and 90th
percentile job time (nearest rank over every job run of the timed rounds),
jobs per second (of a round at each job's median time), the share of jobs answered
correctly, and the worker's peak resident set.  With ``--trace 1`` it
reports the per-layer metrics of a traced run (see ``spans.py``).  The
lines before it carry the environment block and run details.

Exits non-zero without a result when a worker fails, e.g. when ``src/``
is missing.  Scratch files go to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

from workloads import WORKLOADS  # noqa: E402

# Set-up is measured in this many fresh processes; the median is reported.
SETUPS = 9
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "moments.chain_self_s": "s",
    "moments.chain_tuples": "count",
    "contractions.self_s": "s",
    "contractions.calls": "count",
    "contractions.madds": "count",
    "contractions.madds_per_s": "1/s",
    "kernels.symmetrize_s": "s",
    "kernels.self_s": "s",
    "kernels.calls": "count",
    "config.peak_entries": "count",
    "config.budget_checks": "count",
    "chaos.self_s": "s",
    "chaos.calls": "count",
    "moments.oracle_s": "s",
    "moments.identity_s": "s",
    "moments.self_s": "s",
    "combinatorics.self_s": "s",
    "simulate.gue_draw_s": "s",
    "simulate.gue_draws": "count",
    "simulate.classical_samples_per_s": "1/s",
    "simulate.target_s": "s",
    "simulate.self_s": "s",
    "cli.self_s": "s",
    "verify.self_s": "s",
    "bench.trace_overhead": "ratio",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               CHAOSKIT_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(args: argparse.Namespace, workdir: str, timeout: float, *extra: str) -> dict:
    """Start one worker, wait for it, and return its JSON report."""
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--spawned-at", repr(time.time()), *extra]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    """(result object, details) for one run."""
    start = time.monotonic()
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    def remaining():
        return DEADLINE_S - (time.monotonic() - start)

    setups = []
    if not args.trace:
        for i in range(SETUPS - 1):
            rep = spawn(args, os.path.join(work, f"setup{i}"), min(60.0, remaining()),
                        "--setup-only")
            setups.append(rep["setup_s"])
    rep = spawn(args, os.path.join(work, "run"), remaining())
    setups.append(rep["setup_s"])
    attempted, failed = rep["attempted"], rep["failed"]
    if args.trace:
        units = PER_LAYER_UNITS
        values = rep["metrics"]
    else:
        units = END_TO_END_UNITS
        values = dict(rep["metrics"], setup_s=statistics.median(setups),
                      pass_ratio=(attempted - failed) / attempted)
    missing = set(units) - set(values)
    if missing:
        raise WorkerError(f"worker did not report {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {k: v for k, v in rep.items() if k not in ("metrics", "env", "setup_s")}
    details["setup_runs_s"] = setups
    return result, {"env": rep["env"], "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chaoskit benchmark (see module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured job time per run (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one round of a few cheap jobs, for the harness self-tests")
    args = parser.parse_args(argv)
    try:
        result, info = measure(args)
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("# env " + json.dumps(info["env"]))
    print("# details " + json.dumps(info["details"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
