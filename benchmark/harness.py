"""Workloads, the correctness gate and the metrics of the dppmap benchmark.

``run_workload`` generates a workload's kernels from the workload seed, warms
each solver up, then calls the four greedy solvers through their public API
in rounds until the time is spent.  Every result passes ``check_result``
outside the clock; a call that raises or fails a check counts as failed and
the run goes on.  With ``trace`` each call is made twice, untraced and then
under a ``Tracer``, which gives the per-layer metrics and the tracing overhead.
"""

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import dppmap.kernel
from dppmap.greedy import batch_greedy, exact_greedy, lazy_greedy, partitioned_greedy
from dppmap.linalg import cholesky_logdet

from tracing import END, NAME, START, Tracer

SETUP_REPEATS = 3
WARMUP_BUDGET = 20  # two alg2 batches: every code path and BLAS routine runs once
TELESCOPE_TOL = 1e-8
CHOLESKY_RTOL = 1e-6  # the rule ``dppmap verify`` applies


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    feature_dim: object  # None: as many features as items
    monotone_shift: float
    budget: object  # None: run to the natural stop
    kernels: int

    def kernel_seed(self, seed, j):
        return seed * self.kernels + j

    def make_kernels(self, seed):
        return [
            dppmap.kernel.generate_synthetic_kernel(dppmap.kernel.SyntheticConfig(
                dim=self.dim, seed=self.kernel_seed(seed, j),
                monotone_shift=self.monotone_shift, feature_dim=self.feature_dim))
            for j in range(self.kernels)
        ]


WORKLOADS = {
    w.name: w for w in [
        Workload("natural-d2000",
                 "dense kernel run to its natural stop: large factor, CG and Chebyshev dominate",
                 dim=2000, feature_dim=None, monotone_shift=0.0, budget=None, kernels=2),
        Workload("wide-d8000",
                 "wide candidate set, small factor: per-candidate gathers and heap work dominate",
                 dim=8000, feature_dim=128, monotone_shift=1.01, budget=200, kernels=1),
        Workload("requests-d500",
                 "closed loop of small independent requests: fixed per-call costs dominate",
                 dim=500, feature_dim=64, monotone_shift=1.01, budget=30, kernels=128),
    ]
}

# Each solver gets the kernel, the budget and a seed; everything else is the
# package default.  alg2 gets no ``bounds``, so spectral_bounds runs in its call.
SOLVERS = {
    "exact": lambda L, budget, seed: exact_greedy(L, budget),
    "lazy": lambda L, budget, seed: lazy_greedy(L, budget),
    "alg1": lambda L, budget, seed: partitioned_greedy(L, budget, seed=seed),
    "alg2": lambda L, budget, seed: batch_greedy(L, budget, seed=seed),
}
RATIO_SOLVERS = ("alg1", "alg2")

_FACTOR = ["linalg.CholeskyFactor.gain_many.columns", "linalg.CholeskyFactor.gain_many.ms",
           "linalg.CholeskyFactor.extend.ms"]
_FIRST_ORDER = [
    "linalg.cg_solve.calls", "linalg.cg_solve.columns", "linalg.cg_solve.iterations",
    "linalg.cg_solve.unconverged_columns", "linalg.cg_solve.ms", "linalg.border_average.ms",
    "greedy.first_order_gains.calls", "greedy.first_order_gains.candidates",
    "greedy.first_order_gains.ms", "greedy.top_l_refine.ms", "greedy.balanced_partition.ms",
    "greedy.cg_converged_ratio",
]
_COMMON = ["greedy.self.ms", "greedy.exact_evals_per_item", "trace.solve.ms",
           "trace.overhead_pct"]
# The per-layer metrics each solver emits: only the layers it calls.
LAYER_METRICS = {
    "exact": _FACTOR + _COMMON,
    "lazy": ["linalg.CholeskyFactor.gain.calls", "linalg.CholeskyFactor.gain.ms",
             "linalg.CholeskyFactor.extend.ms"] + _COMMON,
    "alg1": _FACTOR + _FIRST_ORDER + _COMMON,
    # On requests-d500 alg2's refinement only ever scores batches, so its
    # single-item gain_many never runs and is not listed.
    "alg2": _FACTOR[2:] + _FIRST_ORDER + [
        "linalg.CholeskyFactor.gain_block_many.blocks",
        "linalg.CholeskyFactor.gain_block_many.ms", "linalg.bordered_inverse_columns.ms",
        "kernel.spectral_bounds.calls", "kernel.spectral_bounds.ms",
        "greedy.sample_batches.ms", "greedy.batch_step_ratio",
        "logdet.rademacher_probes.ms", "logdet.chebyshev_coefficients.ms",
    ] + _COMMON,
}
SETUP_LAYER = "kernel.generate_synthetic_kernel.ms"


def end_to_end_names():
    names = ["setup_s"]
    names += [f"{s}.solve_s" for s in SOLVERS] + [f"{s}.p90_s" for s in SOLVERS]
    names += [f"{s}.logdet_ratio" for s in RATIO_SOLVERS] + ["ok_ops"]
    return names


def per_layer_names():
    return [SETUP_LAYER] + [f"{s}.{m}" for s, ms in LAYER_METRICS.items() for m in ms]


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("ratio", "per_item", "ok_ops")):
        return "ratio"
    return "count"


def p90_over_kernels(samples):
    """90th percentile over kernels of each kernel's median call time.

    Taking each kernel's median across rounds first keeps the tail about slow
    inputs rather than about a burst of machine noise during one round.
    """
    per_kernel = {}
    for j, t in samples:
        per_kernel.setdefault(j, []).append(t)
    return float(np.percentile([statistics.median(ts) for ts in per_kernel.values()], 90))


def check_result(res, L, budget):
    """Problems with one solver result; an empty list means it passed."""
    sel = list(res.selected)
    d = L.shape[0]
    if not sel:
        return ["empty selection"]
    if any(not 0 <= i < d for i in sel):
        return ["item out of range"]
    problems = []
    if len(set(sel)) != len(sel):
        problems.append("an item is selected twice")
    if budget is not None and len(sel) > budget:
        problems.append(f"{len(sel)} items exceed the budget {budget}")
    if not math.isfinite(res.log_det):
        return problems + ["log det is not finite"]
    if abs(sum(res.gains) - res.log_det) > TELESCOPE_TOL:
        problems.append("gains do not telescope to log_det")
    try:
        fresh, _ = cholesky_logdet(L[np.ix_(sel, sel)])
    except np.linalg.LinAlgError:
        return problems + ["L[X, X] is not positive definite"]
    if abs(fresh - res.log_det) > CHOLESKY_RTOL * max(1.0, abs(res.log_det)):
        problems.append(f"log_det {res.log_det!r} differs from a fresh Cholesky {fresh!r}")
    return problems


class Run:
    """Counts, timing samples and reference selections of one workload run."""

    def __init__(self, workload, seed, solvers, log):
        self.workload = workload
        self.seed = seed
        self.solvers = solvers
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.samples = {name: [] for name in solvers}  # (kernel, seconds) per call
        self.traced = {name: [] for name in solvers}
        self.reference = {}  # (kernel, solver) -> first result
        self.layers = {name: {} for name in solvers}
        self.tracer = Tracer()

    def fail(self, j, name, why):
        self.failed += 1
        self.log(f"FAILED {self.workload.name} kernel {j} {name}: {why}")

    def untimed(self, name, L):
        """A budget-capped call on the first kernel; None if it raised."""
        self.attempted += 1
        try:
            return self.solvers[name](L, WARMUP_BUDGET, self.workload.kernel_seed(self.seed, 0))
        except Exception:
            self.fail(0, name, traceback.format_exc(limit=3).strip())
            return None

    def call(self, j, L, name, traced=False):
        """One timed solver call, checked outside the clock."""
        w = self.workload
        solve = self.solvers[name]
        seed = w.kernel_seed(self.seed, j)
        self.attempted += 1
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.installed():
                    res, root = self.tracer.call(f"greedy.{name}", solve, L, w.budget, seed)
            else:
                res = solve(L, w.budget, seed)
        except Exception:
            self.fail(j, name, traceback.format_exc(limit=3).strip())
            return
        elapsed = time.perf_counter() - start
        problems = check_result(res, L, w.budget)
        ref = self.reference.get((j, name))
        if ref is not None and ref.selected != res.selected:
            problems.append("a repeated call with the same seed selected differently")
        exact = self.reference.get((j, "exact"))
        if name == "lazy" and exact is not None and exact.selected != res.selected:
            problems.append("lazy and exact greedy selected different sequences")
        if traced:
            try:
                totals = self.tracer.layer_totals(root)
            except ValueError as exc:
                totals = None
                problems.append(str(exc))
            else:
                wall = sum(t["self_s"] for t in totals.values())
                root_span = self.tracer.spans[root]
                if not math.isclose(wall, root_span[END] - root_span[START], rel_tol=1e-9):
                    problems.append("layer self times do not add up to the solver wall")
        if problems:
            self.fail(j, name, "; ".join(problems))
            return
        self.reference.setdefault((j, name), res)
        if traced:
            self.traced[name].append(elapsed)
            self._add_layers(name, totals, res)
        else:
            self.samples[name].append((j, elapsed))

    def _add_layers(self, name, totals, res):
        acc = self.layers[name]
        for span, entry in totals.items():
            key = "greedy.self" if span == f"greedy.{name}" else span
            for field, value in entry.items():
                metric = f"{key}.ms" if field == "self_s" else f"{key}.{field}"
                acc[metric] = acc.get(metric, 0.0) + (1e3 * value if field == "self_s" else value)
        acc["trace.solve.ms"] = acc.get("trace.solve.ms", 0.0) + 1e3 * sum(
            t["self_s"] for t in totals.values())
        ratios = {"greedy.exact_evals_per_item": res.exact_evals / res.size}
        if res.cg_solves:
            ratios["greedy.cg_converged_ratio"] = res.cg_converged / res.cg_solves
        steps = res.metrics.get("batch_steps", 0) + res.metrics.get("single_steps", 0)
        if steps:
            ratios["greedy.batch_step_ratio"] = res.metrics["batch_steps"] / steps
        for metric, value in ratios.items():
            acc[metric] = acc.get(metric, 0.0) + value

    def run(self, seconds, trace, setup_import_s):
        """Set up, warm up, measure; returns the metrics."""
        w, seed = self.workload, self.seed
        setup = []
        kernels = None
        for rep in range(SETUP_REPEATS):
            kernels = None  # free the previous copy before generating the next
            start = time.perf_counter()
            if trace and rep == SETUP_REPEATS - 1:
                with self.tracer.installed():
                    kernels = w.make_kernels(seed)
            else:
                kernels = w.make_kernels(seed)
            setup.append(time.perf_counter() - start)

        # Untimed warm-up, repeated after the measurement as a determinism check.
        warm = {name: self.untimed(name, kernels[0]) for name in self.solvers}

        start = time.perf_counter()
        while True:
            for j, L in enumerate(kernels):
                for name in self.solvers:
                    self.call(j, L, name)
                    if trace:
                        self.call(j, L, name, traced=True)
            if time.perf_counter() - start >= seconds:
                break

        for name in self.solvers:
            again = self.untimed(name, kernels[0])
            if warm[name] is not None and again is not None \
                    and again.selected != warm[name].selected:
                self.fail(0, name, "repeated warm-up call with the same seed selected differently")

        if trace:
            return self._layer_metrics()
        return self._end_to_end(setup_import_s + statistics.median(setup), len(kernels))

    def _end_to_end(self, setup_s, nkernels):
        metrics = {"setup_s": setup_s}
        for name, samples in self.samples.items():
            if samples:
                metrics[f"{name}.solve_s"] = statistics.median(t for _, t in samples)
                metrics[f"{name}.p90_s"] = p90_over_kernels(samples)
        for name in RATIO_SOLVERS:
            ratios = [self.reference[(j, name)].log_det / self.reference[(j, "exact")].log_det
                      for j in range(nkernels)
                      if (j, name) in self.reference and (j, "exact") in self.reference]
            if ratios:
                metrics[f"{name}.logdet_ratio"] = statistics.median(ratios)
        metrics["ok_ops"] = 1.0 - self.failed / self.attempted
        return metrics

    def _layer_metrics(self):
        metrics = {}
        generated = [s[END] - s[START] for s in self.tracer.spans
                     if s[NAME] == "kernel.generate_synthetic_kernel"]
        if generated:
            metrics[SETUP_LAYER] = 1e3 * statistics.mean(generated)
        for name, names in LAYER_METRICS.items():
            if not self.traced[name]:
                continue
            n = len(self.traced[name])
            acc = self.layers[name]
            for metric in names:
                metrics[f"{name}.{metric}"] = acc.get(metric, 0.0) / n
            if not self.samples[name]:
                continue
            untraced = statistics.median(t for _, t in self.samples[name])
            metrics[f"{name}.trace.overhead_pct"] = 100.0 * (
                statistics.median(self.traced[name]) / untraced - 1.0)
        return metrics


def run_workload(workload, seed, seconds, trace, setup_import_s=0.0, solvers=SOLVERS,
                 log=None):
    """Run one workload; returns (result dict for the JSON line, Run)."""
    log = log or (lambda msg: print(msg, file=sys.stderr))
    run = Run(workload, seed, solvers, log)
    metrics = run.run(seconds, trace, setup_import_s)
    expected = per_layer_names() if trace else end_to_end_names()
    missing = [m for m in expected if m not in metrics]
    if missing:
        log(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": run.failed == 0 and not missing,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": metrics[m], "unit": unit_of(m)} for m in expected
                    if m in metrics},
    }
    return result, run
