"""Span recorder for the traced run, installed from outside the package.

``Tracer.install`` replaces, in every layer module, each public function
the module defines and each function it imports from another layer module
(those imports are the layer boundaries) with a wrapper that records a
span: layer, function, start, end, parent span, job, and a count derived
from the call where one is defined.  Spans nest by call stack and stay in
memory; ``uninstall`` puts the originals back.  A layer's self time is its
spans' durations minus their children's.

The recorder keeps one stack, so it assumes one thread calls into the
package; the benchmark runs every job with ``--threads 1``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
import types

LAYERS = ("cli", "kernels", "contractions", "config", "chaos", "combinatorics",
          "moments", "simulate", "verify")

LAYER, FUNC, START, END, PARENT, JOB, COUNT = range(7)

SYMMETRIZE = {"symmetrize", "_sym_array"}
IDENTITIES = {"classical_fourth_identity", "free_fourth_identity",
              "symmetrized_square_identity"}


def _tensordot_madds(m: int, order_a: int, order_b: int, r: int) -> int:
    """Multiply-adds of contracting r slots of an order_a and an order_b
    tensor on an m-grid: m^(order_a - r) * m^(order_b - r) * m^r."""
    return m ** (order_a + order_b - r)


def _madds_pairwise(a: dict, result) -> int:
    return _tensordot_madds(a["m"], a["p"], a["q"], a["r"])


def _madds_tensor_product(a: dict, result) -> int:
    total, orders = 0, list(a["orders"])
    for j in range(1, len(orders)):
        total += a["m"] ** sum(orders[: j + 1])
    return total


def _madds_multi(a: dict, result) -> int:
    total, cur = 0, a["p"]
    for _, order, r in a["parts"]:
        total += _tensordot_madds(a["m"], order, cur, r)
        cur = order + cur - 2 * r
    return total


# Counts taken from a call's arguments or result, by (layer, function).
COUNTERS = {
    ("contractions", "contract_arrays_classical"): _madds_pairwise,
    ("contractions", "contract_arrays_free"): _madds_pairwise,
    ("contractions", "tensor_product_arrays"): _madds_tensor_product,
    ("contractions", "multi_contract"): _madds_multi,
    ("config", "check_entries"): lambda a, result: result,
    ("moments", "chain_values"): lambda a, result: len(result),
    ("simulate", "mc_classical_moment"): lambda a, result: a["cfg"].n_samples,
}
MADDS = {func for layer, func in COUNTERS if layer == "contractions"}


PACKAGE = "chaoskit"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, layer: str):
        spans, stack = self.spans, self._stack
        name = fn.__name__
        counter = COUNTERS.get((layer, name))
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[COUNT] = counter(bound.arguments, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """modules: layer name -> imported module of the package."""
        wrappers: dict = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__ or ""
                if not owner.startswith(PACKAGE + "."):
                    continue
                owner_layer = owner.split(".")[1]
                if owner_layer not in LAYERS:
                    continue
                if owner_layer == layer and name.startswith("_"):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, owner_layer)
                self._patched.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "func", "start", "end", "parent", "job", "count"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def summarize(spans: list[list], rounds: int) -> dict:
    """Per-layer metrics of the traced rounds.  Times and counts are per
    round of the mix; peaks, rates and medians are not divided."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def outermost(i: int, names: set) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][FUNC] in names:
                return False
            p = spans[p][PARENT]
        return True

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    chain_self = madd_time = sym_s = oracle_s = identity_s = target_s = sample_time = 0.0
    chain_tuples = madds = samples = peak_entries = budget_checks = 0
    gue = []
    for i, s in enumerate(spans):
        layer, func = s[LAYER], s[FUNC]
        own = dur[i] - child[i]
        counted = s[COUNT] or 0  # a call that raised has no count
        self_s[layer] += own
        calls[layer] += 1
        parent_layer = spans[s[PARENT]][LAYER] if s[PARENT] >= 0 else None
        if layer == "moments":
            if func == "chain_values":
                chain_self += own
                chain_tuples += counted
            elif func == "wick_oracle_moment":
                oracle_s += dur[i]
            elif func in IDENTITIES and outermost(i, IDENTITIES):
                identity_s += dur[i]
            if parent_layer == "simulate":
                target_s += dur[i]
        elif layer == "contractions" and func in MADDS:
            madds += counted
            madd_time += dur[i]
        elif layer == "kernels" and func in SYMMETRIZE and outermost(i, SYMMETRIZE):
            sym_s += dur[i]
        elif layer == "config" and func == "check_entries":
            budget_checks += 1
            peak_entries = max(peak_entries, counted)
        elif layer == "simulate":
            if func == "sample_free_gue":
                gue.append(dur[i])
            elif func == "mc_classical_moment":
                samples += counted
                sample_time += dur[i]
    # the classical sampler's own time excludes its float target
    for i, s in enumerate(spans):
        if s[LAYER] == "moments" and s[PARENT] >= 0 and \
                spans[s[PARENT]][FUNC] == "mc_classical_moment":
            sample_time -= dur[i]

    def per_round(x):
        return x / rounds

    def count(x):
        return x // rounds if x % rounds == 0 else x / rounds

    return {
        "moments.chain_self_s": per_round(chain_self),
        "moments.chain_tuples": count(chain_tuples),
        "contractions.self_s": per_round(self_s["contractions"]),
        "contractions.calls": count(calls["contractions"]),
        "contractions.madds": count(madds),
        "contractions.madds_per_s": madds / madd_time if madd_time else 0.0,
        "kernels.symmetrize_s": per_round(sym_s),
        "kernels.self_s": per_round(self_s["kernels"]),
        "kernels.calls": count(calls["kernels"]),
        "config.peak_entries": peak_entries,
        "config.budget_checks": count(budget_checks),
        "chaos.self_s": per_round(self_s["chaos"]),
        "chaos.calls": count(calls["chaos"]),
        "moments.oracle_s": per_round(oracle_s),
        "moments.identity_s": per_round(identity_s),
        "moments.self_s": per_round(self_s["moments"]),
        "combinatorics.self_s": per_round(self_s["combinatorics"]),
        "simulate.gue_draw_s": statistics.median(gue) if gue else 0.0,
        "simulate.gue_draws": count(len(gue)),
        "simulate.classical_samples_per_s": samples / sample_time if sample_time else 0.0,
        "simulate.target_s": per_round(target_s),
        "simulate.self_s": per_round(self_s["simulate"]),
        "cli.self_s": per_round(self_s["cli"]),
        "verify.self_s": per_round(self_s["verify"]),
    }
