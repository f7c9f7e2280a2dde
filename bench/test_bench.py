"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They run tiny mixes (a few cheap jobs, one round) through the real
command, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import references  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
with open(os.path.join(HERE, "plan.json"), encoding="utf-8") as _fh:
    PLAN = json.load(_fh)

EXACT_COUNTS = [m["metric"] for m in PLAN["metric_map"] if m["exact"]]


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_mix_emits_every_metric(workload, trace):
    result = bench(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(PLAN["workloads"]) == set(workloads.WORKLOADS)
    assert {m["metric"] for m in PLAN["metric_map"]} == {m["name"] for m in BENCHMARK["per_layer"]}


def test_exact_counts_repeat_across_traced_runs():
    # wide_exact draws random kernels from the seed, so use two seeds
    first, second = bench("wide_exact", 5, 1), bench("wide_exact", 6, 1)
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_wrong_reference_counts_as_failure(tmp_path, monkeypatch):
    import worker

    cli = worker.import_package()
    plan = workloads.generate("deep_chain", 3, str(tmp_path), tiny=True)
    right = references.pair_classical
    monkeypatch.setattr(references, "pair_classical", lambda k: right(k) + 1)
    loop = worker.Loop(cli, plan, worker.Checker(str(tmp_path)))
    loop.rounds(0.0, 1)
    wrong = [job for job in plan["jobs"] if job["check"]["ref"]["form"] == "pair_classical"]
    assert wrong and loop.attempted == len(plan["jobs"])
    assert len(loop.failures) == len(wrong)
    assert all(f.startswith("pair_classical") for f in loop.failures)


def test_generator_is_deterministic(tmp_path):
    a = workloads.generate("wide_exact", 9, str(tmp_path / "a"))
    b = workloads.generate("wide_exact", 9, str(tmp_path / "b"))
    names = [j["name"] for j in a["jobs"]]
    assert names == [j["name"] for j in b["jobs"]] and len(names) % 10 == 0
    for name in ("r3a", "r2a"):
        assert (tmp_path / "a" / "kernels" / f"{name}.json").read_text() == \
            (tmp_path / "b" / "kernels" / f"{name}.json").read_text()


def test_references_against_known_values():
    for n in (1, 4, 32):
        assert references.pair_clt_free(n, 4) == 2 + Fraction(1, 2 * n)
        assert references.pair_clt_classical(n, 4) == 3 + Fraction(6, n)
    assert references.pair_classical(8) == 105**2
    assert references.pair_free(4) == Fraction(5, 8)
    assert references.constant_hermite("classical", 2, 2) == 2
    assert references.constant_hermite("free", 2, 4) == 3  # U_2^2 = U_0 + U_2 + U_4
