"""Benchmark harness: comparison tables, sweeps, variance study, writers."""

import csv
import json
from collections import Counter

import numpy as np
import pytest

import dppmap.bench
from dppmap.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    parameter_sweep,
    run_comparison,
    solve_with,
    variance_study,
    write_rows_csv,
    write_rows_json,
    write_variance_csv,
)
from dppmap.kernel import generate_synthetic_kernel
from dppmap.linalg import cholesky_logdet


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dims=())
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(algorithms=())
    with pytest.raises(ValueError):
        ExperimentConfig(algorithms=("lazy", "newton"))
    for name in ("budget", "p", "k", "s", "ell"):
        for value in (0, -3):
            with pytest.raises(ValueError, match=f"{name} must be positive, got {value}"):
                ExperimentConfig(**{name: value})
    assert ExperimentConfig(budget=None).budget is None


def test_lazy_baseline_anchors_itself():
    rows = run_comparison(ExperimentConfig(dims=(40,), seeds=(0, 1),
                                           algorithms=("lazy",)))
    assert len(rows) == 2
    for row in rows:
        assert row.algo == "lazy"
        assert row.ratio == 1.0
        assert row.speedup == 1.0
        assert row.error == ""


@pytest.mark.usefixtures("no_timing_floor")
def test_comparison_is_deterministic_apart_from_timing():
    config = ExperimentConfig(dims=(50,), seeds=(2,), algorithms=("lazy", "alg1"))
    first = run_comparison(config)
    second = run_comparison(config)
    for a, b in zip(first, second):
        assert a.algo == b.algo
        assert a.selected == b.selected
        assert a.logdet == b.logdet
        assert a.ratio == b.ratio
        assert a.set_size == b.set_size


def test_every_cell_is_warmed_and_timed_alike(monkeypatch):
    # with no floor, each cell makes one untimed call and one timed call,
    # the lazy baseline the same as every other solver
    calls = Counter()
    solve = dppmap.bench.solve_with

    def recording(algo, L, config, seed=0):
        calls[algo, L.shape[0], seed, config.k] += 1
        return solve(algo, L, config, seed=seed)

    monkeypatch.setattr(dppmap.bench, "_TIMING_FLOOR_S", 0.0)
    monkeypatch.setattr(dppmap.bench, "solve_with", recording)
    config = ExperimentConfig(dims=(30, 40), seeds=(0, 1),
                              algorithms=("exact", "lazy", "alg1", "alg2"))
    run_comparison(config)
    assert calls == {(algo, d, seed, config.k): 2 for algo in config.algorithms
                     for d in config.dims for seed in config.seeds}
    calls.clear()
    parameter_sweep(config, "k", (1, 3))
    assert calls == {(algo, d, seed, k): 2 for algo, k in
                     (("lazy", config.k), ("alg2", 1), ("alg2", 3))
                     for d in config.dims for seed in config.seeds}


@pytest.mark.usefixtures("no_timing_floor")
def test_reported_logdet_matches_reported_selection():
    config = ExperimentConfig(dims=(60,), seeds=(0, 3),
                              algorithms=("lazy", "alg1", "alg2"))
    for row in run_comparison(config):
        L = generate_synthetic_kernel(config.kernel_config(row.d, row.seed))
        sub = L[np.ix_(row.selected, row.selected)]
        assert abs(row.logdet - cholesky_logdet(sub)[0]) <= 1e-8
        assert row.set_size == len(row.selected)


@pytest.mark.usefixtures("no_timing_floor")
def test_failing_cell_is_recorded_and_run_continues():
    config = ExperimentConfig(dims=(30,), seeds=(0, 1), algorithms=("brute",))
    rows = run_comparison(config)  # 2^30 subsets: refused, but not fatal
    failed = [row for row in rows if row.algo == "brute"]
    assert len(failed) == 2
    for row in failed:
        assert "enumeration" in row.error
        assert np.isnan(row.logdet)
    assert [row.seed for row in rows if row.algo == "lazy"] == [0, 1]


def test_solve_with_dispatch():
    config = ExperimentConfig(dims=(20,), budget=5)
    L = generate_synthetic_kernel(config.kernel_config(20, 0))
    for algo in ("exact", "lazy", "brute", "alg1"):
        res = solve_with(algo, L, config)
        assert res.size <= 5
    with pytest.raises(ValueError):
        solve_with("newton", L, config)


@pytest.mark.usefixtures("no_timing_floor")
def test_parameter_sweep_shapes_and_labels():
    config = ExperimentConfig(dims=(30,), seeds=(0, 1), algorithms=("lazy",))
    rows = parameter_sweep(config, "p", (1, 2))
    lazy = [row for row in rows if row.algo == "lazy"]
    swept = [row for row in rows if row.algo == "alg1"]
    assert len(lazy) == 2 and len(swept) == 4
    assert all(row.params == "" for row in lazy)
    assert sorted(row.params for row in swept) == ["p=1;ell=20"] * 2 + ["p=2;ell=20"] * 2
    with pytest.raises(ValueError):
        parameter_sweep(config, "m", (5, 10))
    with pytest.raises(ValueError, match="need at least one value"):
        parameter_sweep(config, "p", [])


@pytest.mark.usefixtures("no_timing_floor")
def test_writers_round_trip(tmp_path):
    config = ExperimentConfig(dims=(30,), seeds=(0,), algorithms=("lazy", "alg1"))
    rows = run_comparison(config)

    csv_path = tmp_path / "rows.csv"
    write_rows_csv(rows, csv_path)
    with open(csv_path, newline="") as fh:
        records = list(csv.reader(fh))
    assert tuple(records[0]) == CSV_COLUMNS
    assert not any(column.startswith("cg_") for column in CSV_COLUMNS)
    assert len(records) == len(rows) + 1
    assert records[1][0] == "lazy"
    assert int(records[1][4]) == rows[0].set_size

    json_path = tmp_path / "rows.json"
    write_rows_json(rows, config, json_path)
    with open(json_path) as fh:
        payload = json.load(fh)
    assert payload["config"]["dims"] == [30]
    assert len(payload["rows"]) == len(rows)
    assert payload["rows"][0]["selected"] == rows[0].selected
    assert set(CSV_COLUMNS) <= set(payload["rows"][0])


def test_variance_study_shared_probes_beat_independent():
    reports = variance_study(trials=30, dim=20, draws=100, probe_count=20,
                             degree=15, seed=5)
    assert len(reports) == 30
    within = sum(rep.var_shared <= rep.bound for rep in reports)
    smaller = sum(rep.var_shared < rep.var_indep for rep in reports)
    assert within == 30
    assert smaller >= 27


@pytest.mark.parametrize("trials, draws, dim", [
    (1, 1, 8), (1, 0, 8), (0, 10, 8), (-1, 10, 8), (1, 10, 1),
], ids=["1-1", "1-0", "0-10", "-1-10", "dim-1"])
def test_variance_study_rejects_too_few_trials_or_draws(trials, draws, dim):
    with pytest.raises(ValueError, match="trials must be positive|draws must be at least 2"
                                         "|dim must be at least 2"):
        variance_study(trials=trials, dim=dim, draws=draws)


@pytest.mark.parametrize("closeness", [-0.1, 1.01, 2.0, 5.0])
def test_variance_study_rejects_closeness_outside_the_unit_interval(closeness):
    # above 1 a pair's spectra can leave [delta, 1 - delta], the bound's premise
    with pytest.raises(ValueError, match=r"closeness must be in \[0, 1\]"):
        variance_study(trials=1, dim=4, draws=2, closeness=closeness)


def test_banded_pairs_stay_in_the_band_up_to_closeness_one():
    rng = np.random.default_rng(0)
    delta = 0.05
    for _ in range(200):
        for matrix in dppmap.bench._banded_pair(2, delta, 1.0, rng):
            eigs = np.linalg.eigvalsh(matrix)
            assert delta <= eigs[0] and eigs[-1] <= 1.0 - delta


def test_variance_study_identical_pair_has_zero_shared_variance(tmp_path):
    reports = variance_study(trials=3, dim=12, draws=40, probe_count=10,
                             degree=12, closeness=0.0, seed=1)
    for rep in reports:
        assert rep.var_shared == 0.0
        assert rep.frobenius_diff == 0.0
        assert rep.var_indep > 0.0

    path = tmp_path / "variance.csv"
    write_variance_csv(reports, path)
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    assert records[0] == ["trial", "frobenius_diff", "var_shared", "var_indep", "bound"]
    assert len(records) == 4
