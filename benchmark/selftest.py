"""Self-test of the benchmark harness on toy-sized workloads; takes seconds.

    python3 benchmark/selftest.py

Checks that BENCHMARK.json names exactly the metrics the harness emits, that
every workload emits every named metric with and without tracing, and that
the correctness gate catches tampered results and counts them as failed.
Exits 0 when every check passes.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import run

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# d <= 64 and a few requests; budgets leave room for two alg2 batches (k = 10)
TINY = {
    "natural-d2000": dict(dim=48, kernels=2),
    "wide-d8000": dict(dim=64, feature_dim=16, budget=24),
    "requests-d500": dict(dim=40, feature_dim=16, budget=20, kernels=4),
}


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def check_names(harness):
    spec = json.loads(BENCHMARK_JSON.read_text())
    check([w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS),
          "BENCHMARK.json workloads differ from the harness's")
    for key, names in (("end_to_end", harness.end_to_end_names()),
                       ("per_layer", harness.per_layer_names())):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        check(sorted(listed) == sorted(names), f"BENCHMARK.json {key} names differ")
        for name, unit in listed.items():
            check(unit == harness.unit_of(name), f"unit of {name} is not {unit}")


def check_emits_all(harness, tiny):
    for w in tiny.values():
        for trace in (False, True):
            result, _ = harness.run_workload(w, seed=3, seconds=0, trace=trace)
            expected = harness.per_layer_names() if trace else harness.end_to_end_names()
            check(result["correct"] and result["failed"] == 0,
                  f"{w.name} trace={trace}: {result['failed']} of {result['attempted']} failed")
            check(list(result["metrics"]) == expected,
                  f"{w.name} trace={trace}: metrics differ from the named list")
            for name, m in result["metrics"].items():
                check(math.isfinite(m["value"]), f"{w.name}: {name} is not finite")
        print(f"ok   {w.name}: every named metric emitted, traced and untraced")


def check_gate_catches(harness, tiny, how, expect):
    def tampered(L, budget, seed):
        res = harness.SOLVERS["alg1"](L, budget, seed)
        if how == "duplicate":
            res.selected.append(res.selected[0])
        else:
            res.log_det += 1e-3
        return res

    messages = []
    w = tiny["requests-d500"]
    result, run_ = harness.run_workload(w, seed=5, seconds=0, trace=False,
                                        solvers={**harness.SOLVERS, "alg1": tampered},
                                        log=messages.append)
    alg1_calls = w.kernels  # one round: every kernel once
    check(result["failed"] == alg1_calls,
          f"{how}: {result['failed']} calls counted failed, expected {alg1_calls}")
    check(not result["correct"], f"{how}: run still reported correct")
    ok = result["metrics"]["ok_ops"]["value"]
    check(ok == 1.0 - alg1_calls / result["attempted"], f"{how}: ok_ops is {ok}")
    failures = [m for m in messages if m.startswith("FAILED")]
    check(len(failures) == alg1_calls and all(" alg1: " in m and expect in m for m in failures),
          f"{how}: gate messages were {failures}")
    print(f"ok   gate catches {how}: {result['failed']} of {result['attempted']} calls failed")


def main():
    run.pin_blas_threads()
    run.import_package()
    import harness

    check_names(harness)
    print("ok   BENCHMARK.json matches the harness")
    tiny = {name: replace(harness.WORKLOADS[name], **kw) for name, kw in TINY.items()}
    check_emits_all(harness, tiny)
    check_gate_catches(harness, tiny, "duplicate", "selected twice")
    check_gate_catches(harness, tiny, "log_det+1e-3", "do not telescope")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
