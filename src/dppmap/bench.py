"""Benchmark harness: accuracy/speed comparisons, variance study, sweeps.

``run_comparison`` times each requested solver against the lazy-greedy
baseline on shared synthetic kernels and reports log-det ratios and
speedups.  ``variance_study`` measures the variance reduction from sharing
probe vectors between two log-determinant estimates against the analytic
bound.  ``parameter_sweep`` varies one solver parameter with paired seeds.

Timings cover the solver call only; kernel generation is outside the clock.
The lazy baseline is warmed up on each kernel before it is timed.
"""

import csv
import inspect
import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._rng import substream
from .greedy import (
    batch_greedy,
    brute_force_map,
    exact_greedy,
    lazy_greedy,
    partitioned_greedy,
)
from .kernel import SyntheticConfig, generate_synthetic_kernel
from .logdet import (
    RescaledOperator,
    chebyshev_coefficients,
    estimate_logdet,
    probe_variance_bound,
    rademacher_probes,
    shared_probe_difference,
)

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "VarianceReport",
    "SOLVERS",
    "SWEEPS",
    "solve_with",
    "run_comparison",
    "parameter_sweep",
    "variance_study",
    "write_rows_csv",
    "write_rows_json",
    "write_variance_csv",
]

# Each solver and the ExperimentConfig fields it takes, in ``params`` label
# order.  The solvers that take fields are the randomized ones, run with a seed.
SOLVERS = {
    "exact": (exact_greedy, ()),
    "lazy": (lazy_greedy, ()),
    "alg1": (partitioned_greedy, ("p", "ell")),
    "alg2": (batch_greedy, ("k", "s")),
    "brute": (brute_force_map, ()),
}
# The field ``parameter_sweep`` can vary, and the solver it then runs.
SWEEPS = {"p": "alg1", "k": "alg2"}
# Every solver field's default is the one in its solver's signature.
_DEFAULTS = {name: inspect.signature(solver).parameters[name].default
             for solver, names in SOLVERS.values() for name in names}

CSV_COLUMNS = (
    "algo", "seed", "d", "params", "set_size", "logdet",
    "ratio", "ms", "speedup", "exact_evals",
)

_BASELINE_WARMUP_S = 0.25


@dataclass
class ExperimentConfig:
    """Everything a comparison run needs; solver fields default as the solvers do.

    ``budget`` (when set) and the solver fields must be positive.

    Kernel fields default as ``SyntheticConfig``'s, except that benchmark
    kernels default to no diagonal shift so runs exercise the natural
    stopping rule instead of sweeping to the budget.
    """

    dims: tuple = (1000,)
    seeds: tuple = (0,)
    algorithms: tuple = ("lazy", "alg1", "alg2")
    budget: int = None
    p: int = _DEFAULTS["p"]
    k: int = _DEFAULTS["k"]
    s: int = _DEFAULTS["s"]
    ell: int = _DEFAULTS["ell"]
    quality_slope: float = SyntheticConfig.quality_slope
    quality_offset: float = SyntheticConfig.quality_offset
    monotone_shift: float = 0.0
    repetitions: int = 1

    def __post_init__(self):
        if not self.dims:
            raise ValueError("need at least one dimension")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        for algo in self.algorithms:
            _check_algorithm(algo)
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        counts = {name: getattr(self, name) for name in _DEFAULTS}
        if self.budget is not None:
            counts["budget"] = self.budget
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")

    def kernel_config(self, dim, seed):
        """The ``SyntheticConfig`` of one kernel: ``dim``, ``seed`` and the
        fields this config shares with it by name."""
        shared = {f.name: getattr(self, f.name) for f in fields(SyntheticConfig)
                  if hasattr(self, f.name)}
        return SyntheticConfig(dim=dim, seed=seed, **shared)


@dataclass
class RunReport:
    """One solver-on-kernel cell of a comparison table."""

    algo: str
    seed: int
    d: int
    params: str
    set_size: int = 0
    logdet: float = float("nan")
    ratio: float = float("nan")
    ms: float = float("nan")
    speedup: float = float("nan")
    exact_evals: int = 0
    error: str = ""
    selected: list = field(default_factory=list)


@dataclass
class VarianceReport:
    """One matrix pair of the shared-vs-independent probe variance study."""

    trial: int
    frobenius_diff: float
    var_shared: float
    var_indep: float
    bound: float


def _check_algorithm(algo):
    if algo not in SOLVERS:
        raise ValueError(f"unknown algorithm {algo!r}; choose from {tuple(SOLVERS)}")


def solve_with(algo, L, config, seed=0):
    """Run solver ``algo`` on ``L`` with the config's budget and its own fields."""
    _check_algorithm(algo)
    solver, names = SOLVERS[algo]
    params = {name: getattr(config, name) for name in names}
    if names:
        params["seed"] = seed
    return solver(L, config.budget, **params)


def _param_string(algo, config):
    parts = [f"{name}={getattr(config, name)}" for name in SOLVERS[algo][1]]
    if config.budget is not None:
        parts.append(f"budget={config.budget}")
    return ";".join(parts)


def _timed_solve(algo, L, config, seed):
    """Median wall time over repetitions; the result is deterministic per seed."""
    times = []
    result = None
    for _ in range(config.repetitions):
        start = time.perf_counter()
        result = solve_with(algo, L, config, seed=seed)
        times.append((time.perf_counter() - start) * 1000.0)
    return result, float(np.median(times))


def _warm_up_baseline(L, config, seed):
    """Untimed lazy calls for ``_BASELINE_WARMUP_S`` seconds (at least one).

    The lazy baseline takes tens of milliseconds at d=1000, and its first
    calls on a freshly built kernel ran up to twice as slow (two BLAS threads
    on a 2-core host), which would inflate every speedup measured against it.
    """
    start = time.perf_counter()
    solve_with("lazy", L, config, seed=seed)
    while time.perf_counter() - start < _BASELINE_WARMUP_S:
        solve_with("lazy", L, config, seed=seed)


def _report(algo, seed, d, params, res, ms, base=None, base_ms=None):
    """A filled table row; without a baseline the row anchors itself."""
    ratio = speedup = 1.0
    if base is not None:
        ratio = res.log_det / base.log_det if base.log_det > 0 else float("nan")
        speedup = base_ms / ms if ms > 0 else float("nan")
    return RunReport(
        algo=algo, seed=seed, d=d, params=params, set_size=res.size,
        logdet=res.log_det, ratio=ratio, ms=ms, speedup=speedup,
        exact_evals=res.exact_evals, selected=res.selected,
    )


def _paired_rows(config, cells, base_params, progress):
    """The lazy baseline row, then one row per (algo, config) cell, per kernel.

    Every (dim, seed) kernel is generated once and shared by its cells; a
    failing cell records its error and the run continues.
    """
    rows = []

    def emit(row):
        rows.append(row)
        if progress:
            progress(row)

    for d in config.dims:
        for seed in config.seeds:
            L = generate_synthetic_kernel(config.kernel_config(d, seed))
            _warm_up_baseline(L, config, seed)
            base, base_ms = _timed_solve("lazy", L, config, seed)
            emit(_report("lazy", seed, d, base_params, base, base_ms))
            for algo, cfg in cells:
                params = _param_string(algo, cfg)
                try:
                    res, ms = _timed_solve(algo, L, cfg, seed)
                except Exception as exc:  # keep the table going
                    emit(RunReport(algo=algo, seed=seed, d=d, params=params,
                                   error=f"{type(exc).__name__}: {exc}"))
                    continue
                emit(_report(algo, seed, d, params, res, ms, base, base_ms))
    return rows


def run_comparison(config, progress=None):
    """Run every (dim, seed, algorithm) cell; returns a list of RunReport.

    The lazy baseline runs first on every kernel and anchors ratio and
    speedup (its own row reports 1.0 for both).  A failing cell records its
    error and the run continues.
    """
    cells = [(algo, config) for algo in config.algorithms if algo != "lazy"]
    return _paired_rows(config, cells, _param_string("lazy", config), progress)


def parameter_sweep(config, parameter, values, progress=None):
    """Vary one solver parameter over ``values`` with paired seeds.

    ``parameter`` names a key of ``SWEEPS``, which gives the solver run:
    sweeping ``p`` runs the partitioned solver, ``k`` the batch solver.  Every
    value reuses the same kernels and the same per-seed lazy baseline, so
    rows are directly comparable across values.  Needs at least one value.
    """
    if parameter not in SWEEPS:
        raise ValueError(f"can only sweep {' or '.join(map(repr, SWEEPS))}, got {parameter!r}")
    if len(values) == 0:
        raise ValueError("need at least one value to sweep")
    cells = [(SWEEPS[parameter], ExperimentConfig(**{**asdict(config), parameter: value}))
             for value in values]
    return _paired_rows(config, cells, "", progress)


def _banded_pair(dim, delta, closeness, rng):
    """Two nearby symmetric matrices with spectra strictly inside [delta, 1-delta].

    The second is a small symmetric perturbation of the first; its spectrum
    stays in the band because the eigenvalue shift is at most the Frobenius
    norm of the perturbation, which ``closeness`` keeps below the margin.
    """
    margin = (1.0 - 2.0 * delta) * 0.2
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(delta + margin, 1.0 - delta - margin, size=dim)
    a = (q * eigs) @ q.T
    a = (a + a.T) / 2.0
    e = rng.standard_normal((dim, dim))
    e = (e + e.T) / 2.0
    e *= closeness * margin / np.linalg.norm(e)
    b = a + e
    return a, b


def variance_study(trials=100, dim=40, draws=200, probe_count=20, degree=15,
                   delta=0.05, closeness=0.5, seed=0):
    """Shared vs independent probes on pairs of nearby matrices.

    For each pair, ``draws`` repetitions estimate log det A - log det B
    twice: once with one probe set used for both matrices, once with two
    independent sets (A's estimate is reused from the shared pair).  Reports
    the empirical variances next to the analytic shared-probe bound.  Needs
    ``trials`` >= 1, ``draws`` >= 2, since a variance takes two draws, and
    ``dim`` >= 2, since a 1-dimensional Rademacher probe squares to 1 and
    leaves every estimate deterministic.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if dim < 2:
        raise ValueError(f"dim must be at least 2 for a random probe, got {dim}")
    if draws < 2:
        raise ValueError(f"draws must be at least 2 for a variance, got {draws}")
    expansion = chebyshev_coefficients(degree, delta)
    rng_pair = substream(seed, "variance-pairs")
    rng_probe = substream(seed, "probes")
    reports = []
    for trial in range(trials):
        a, b = _banded_pair(dim, delta, closeness, rng_pair)
        op_a = RescaledOperator(matrix=a, scale=1.0, delta=delta)
        op_b = RescaledOperator(matrix=b, scale=1.0, delta=delta)
        shared = np.empty(draws)
        indep = np.empty(draws)
        for r in range(draws):
            probes = rademacher_probes(dim, probe_count, rng_probe)
            est_a, _, shared[r] = shared_probe_difference(op_a, op_b, expansion, probes)
            other = rademacher_probes(dim, probe_count, rng_probe)
            indep[r] = est_a - estimate_logdet(op_b, expansion, other)
        fro = float(np.linalg.norm(a - b))
        reports.append(VarianceReport(
            trial=trial,
            frobenius_diff=fro,
            var_shared=float(shared.var(ddof=1)),
            var_indep=float(indep.var(ddof=1)),
            bound=probe_variance_bound(delta, probe_count, fro),
        ))
    return reports


def write_rows_csv(rows, path):
    """Write comparison/sweep rows with the fixed column schema."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                row.algo, row.seed, row.d, row.params, row.set_size,
                f"{row.logdet:.6f}", f"{row.ratio:.6f}", f"{row.ms:.3f}",
                f"{row.speedup:.3f}", row.exact_evals,
            ])


def write_rows_json(rows, config, path):
    """JSON mirror of the CSV, plus the resolved config and selected sets."""
    payload = {
        "config": asdict(config),
        "rows": [asdict(row) for row in rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_variance_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "frobenius_diff", "var_shared", "var_indep", "bound"])
        for rep in reports:
            writer.writerow([
                rep.trial, f"{rep.frobenius_diff:.9f}", f"{rep.var_shared:.9e}",
                f"{rep.var_indep:.9e}", f"{rep.bound:.9e}",
            ])
