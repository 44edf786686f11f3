"""Command-line interface: subcommands, exit codes, file round trips."""

import argparse
import csv
import inspect
import json
import math
import os
import subprocess
import sys

import pytest

from dppmap.bench import CSV_COLUMNS, SOLVERS, SWEEPS, ExperimentConfig
from dppmap.cli import build_parser, main
from dppmap.greedy import batch_greedy, partitioned_greedy


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dppmap.cli", *args],
        capture_output=True, text=True, env=dict(os.environ),
    )


# Records the BLAS thread variable at the moment numpy is first imported by
# ``main`` run on the probe's command-line arguments.
_THREADS_PROBE = """
import os, sys
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.pop(var, None)

class NumpyImportSpy:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            NumpyImportSpy.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, NumpyImportSpy())
import dppmap.cli
print("numpy loaded by import:", "numpy" in sys.modules)
code = dppmap.cli.main(sys.argv[1:])
print("exit", code, "threads at numpy import", NumpyImportSpy.seen[:1])
"""


def test_threads_flag_is_applied_before_numpy_loads():
    # before or after the subcommand; given twice, the last value applies
    for argv in (["--threads", "1", "solve", "--dim", "8", "--budget", "2"],
                 ["solve", "--dim", "8", "--budget", "2", "--threads=1"],
                 ["--threads", "2", "solve", "--dim", "8", "--threads", "1"]):
        proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE, *argv],
                              capture_output=True, text=True, env=dict(os.environ))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "numpy loaded by import: False"
        assert lines[-1] == "exit 0 threads at numpy import ['1']", argv


def test_gen_solve_verify_chain(tmp_path):
    kernel = tmp_path / "kernel.dppk"
    result = tmp_path / "result.json"
    assert main(["gen-kernel", "--dim", "25", "--seed", "4", "--out", str(kernel)]) == 0
    assert kernel.stat().st_size == 16 + 25 * 25 * 8
    assert main(["solve", "--kernel", str(kernel), "--algo", "lazy",
                 "--budget", "6", "--json", str(result)]) == 0
    assert main(["verify", str(result)]) == 0
    assert main(["verify", str(result), "--kernel", str(kernel)]) == 0


def test_verify_detects_tampering(tmp_path):
    result = tmp_path / "result.json"
    assert main(["solve", "--dim", "20", "--algo", "exact", "--budget", "5",
                 "--json", str(result)]) == 0
    payload = json.loads(result.read_text())
    payload["log_det"] += 0.5
    result.write_text(json.dumps(payload))
    assert main(["verify", str(result)]) == 2


@pytest.mark.parametrize("selected, message", [
    ([-1, 0, 1], "selected id -1 is out of range for a kernel of 25 items"),
    ([0, 25], "selected id 25 is out of range for a kernel of 25 items"),
    ([0, 2.0], "selected id 2.0 is not an integer"),
    ([0, "3"], "selected id '3' is not an integer"),
    ([0, 1, 0], "selected id 0 appears more than once"),
], ids=["negative", "out-of-range", "float", "string", "duplicate"])
def test_verify_rejects_bad_selected_ids(tmp_path, capsys, selected, message):
    from dppmap.kernel import load_kernel
    from dppmap.linalg import cholesky_logdet

    kernel = tmp_path / "kernel.dppk"
    assert main(["gen-kernel", "--dim", "25", "--out", str(kernel)]) == 0
    L = load_kernel(str(kernel))
    # the log det of the ids read modulo 25: a wrapped-around -1 would verify
    wrapped = [24, 0, 1]
    payload = {"selected": selected, "kernel": {"kernel_file": str(kernel)},
               "log_det": cholesky_logdet(L[[[i] for i in wrapped], wrapped])[0]}
    result = tmp_path / "result.json"
    result.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(result)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("log_det", [float("nan"), float("inf"), float("-inf"), "1.5", True],
                         ids=["nan", "inf", "minus-inf", "string", "bool"])
def test_verify_rejects_a_log_det_that_is_not_a_finite_number(tmp_path, capsys, log_det):
    result = tmp_path / "result.json"
    assert main(["solve", "--dim", "30", "--budget", "5", "--json", str(result)]) == 0
    payload = json.loads(result.read_text())
    payload["log_det"] = log_det
    result.write_text(json.dumps(payload))  # NaN and Infinity as JSON extensions
    capsys.readouterr()
    assert main(["verify", str(result)]) == 1
    assert f"dppmap: error: log_det {log_det!r} is not a finite number" in capsys.readouterr().err


def test_verify_rejects_a_result_that_is_not_an_object(tmp_path, capsys):
    result = tmp_path / "result.json"
    result.write_text("[1, 2]")
    assert main(["verify", str(result)]) == 1
    assert "dppmap: error: result file is not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", [5, "kernel_file", ["synthetic"]],
                         ids=["int", "string", "list"])
def test_verify_rejects_a_kernel_record_that_is_not_an_object(tmp_path, capsys, kernel):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"selected": [0], "log_det": 0.0, "kernel": kernel}))
    assert main(["verify", str(result)]) == 1
    assert "dppmap: error: kernel record is not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["selected", "log_det"])
def test_verify_rejects_a_result_without_selected_or_log_det(tmp_path, capsys, missing):
    payload = {"selected": [0], "log_det": 0.0}
    del payload[missing]
    result = tmp_path / "result.json"
    result.write_text(json.dumps(payload))
    assert main(["verify", str(result)]) == 1
    assert ("dppmap: error: result file lacks 'selected'/'log_det'"
            in capsys.readouterr().err)


def test_verify_without_a_kernel_is_a_usage_error(tmp_path, capsys):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"selected": [0], "log_det": 0.0}))
    assert main(["verify", str(result)]) == 1
    assert ("dppmap: error: no kernel recorded in result; pass --kernel"
            in capsys.readouterr().err)


def test_verify_rejects_an_incomplete_synthetic_record(tmp_path, capsys):
    result = tmp_path / "result.json"
    assert main(["solve", "--dim", "20", "--budget", "3", "--json", str(result)]) == 0
    payload = json.loads(result.read_text())
    del payload["kernel"]["synthetic"]["seed"]
    result.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(result)]) == 1
    assert "dppmap: error: kernel.synthetic record lacks seed" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("dim", "20", "dim '20' is not an integer"),
    ("dim", 20.0, "dim 20.0 is not an integer"),
    ("seed", True, "seed True is not an integer"),
    ("feature_dim", "4", "feature_dim '4' is not an integer"),
    ("beta1", "0.01", "beta1 '0.01' is not a real number"),
    ("beta2", False, "beta2 False is not a real number"),
    ("shift", None, "shift None is not a real number"),
], ids=["dim-string", "dim-float", "seed-bool", "feature-dim-string", "beta1-string",
        "beta2-bool", "shift-null"])
def test_verify_rejects_a_mistyped_synthetic_record(tmp_path, capsys, key, value, message):
    result = tmp_path / "result.json"
    assert main(["solve", "--dim", "20", "--budget", "3", "--json", str(result)]) == 0
    payload = json.loads(result.read_text())
    payload["kernel"]["synthetic"][key] = value
    result.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(result)]) == 1
    assert f"dppmap: error: kernel.synthetic {message}" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    ("2.0,nan,0.0\n0.0,3.0,0.0\n0.0,0.0,1.5\n", "kernel contains non-finite entries"),
    ("2.0,0.0,5.0\n0.0,3.0,0.0\n0.0,0.0,1.5\n", "kernel is not symmetric at (0, 2)"),
], ids=["nan-above-diagonal", "not-symmetric"])
def test_verify_rejects_a_kernel_that_solve_rejects(tmp_path, capsys, rows, message):
    # item 1 alone reads only L[1, 1] = 3, so without the kernel check the
    # stored log det would verify
    kernel = tmp_path / "kernel.csv"
    kernel.write_text(rows)
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"selected": [1], "log_det": math.log(3.0),
                                  "kernel": {"kernel_file": str(kernel)}}))
    for argv in (["verify", str(result)], ["verify", str(result), "--kernel", str(kernel)],
                 ["solve", "--kernel", str(kernel)]):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert f"dppmap: error: {message}" in capsys.readouterr().err


def test_feature_dim_round_trips_through_gen_kernel_solve_and_verify(tmp_path):
    from dppmap.kernel import SyntheticConfig, generate_synthetic_kernel, load_kernel

    kernel = tmp_path / "kernel.dppk"
    assert main(["gen-kernel", "--dim", "30", "--feature-dim", "4", "--seed", "2",
                 "--out", str(kernel)]) == 0
    expected = generate_synthetic_kernel(SyntheticConfig(dim=30, seed=2, feature_dim=4))
    assert (load_kernel(str(kernel)) == expected).all()
    assert (load_kernel(str(kernel)) != generate_synthetic_kernel(
        SyntheticConfig(dim=30, seed=2))).any()
    result = tmp_path / "result.json"
    assert main(["solve", "--dim", "30", "--feature-dim", "4", "--seed", "2",
                 "--budget", "8", "--json", str(result)]) == 0
    payload = json.loads(result.read_text())
    assert payload["kernel"]["synthetic"]["feature_dim"] == 4
    assert main(["verify", str(result)]) == 0
    # a record without it (older files) means as many features as items,
    # which is another kernel, so the stored log det no longer verifies
    del payload["kernel"]["synthetic"]["feature_dim"]
    result.write_text(json.dumps(payload))
    assert main(["verify", str(result)]) == 2


def _resolved_configs(tmp_path, flags):
    """The solver fields that solve, bench and sweep resolve from ``flags``
    (a dict of flag values), read from their --json output.  The sweep
    sweeps p, so it is given no --p and reports only k, s and ell."""
    out = tmp_path / "out.json"
    resolved = {}
    for command in (["solve"], ["bench", "--algo", "lazy"], ["sweep", "p", "2"]):
        names = [name for name in ("p", "k", "s", "ell") if name not in command]
        given = [part for name, value in flags.items() if name in names
                 for part in (f"--{name}", str(value))]
        argv = command + ["--dim", "12", "--budget", "3", *given, "--json", str(out)]
        assert main(argv) == 0, argv
        payload = json.loads(out.read_text())
        record = payload["params"] if command == ["solve"] else payload["config"]
        resolved[command[0]] = {name: record[name] for name in names}
    return resolved


def test_solver_default_copies_match_the_solvers(tmp_path):
    # unset solver flags resolve, through ExperimentConfig, to the solvers' defaults
    alg1 = inspect.signature(partitioned_greedy).parameters
    alg2 = inspect.signature(batch_greedy).parameters
    defaults = {**{name: alg1[name].default for name in ("p", "ell")},
                **{name: alg2[name].default for name in ("k", "s")}}
    assert {name: getattr(ExperimentConfig(), name) for name in defaults} == defaults
    for command, resolved in _resolved_configs(tmp_path, {}).items():
        assert resolved == {name: defaults[name] for name in resolved}, command
    given = {"p": 3, "k": 4, "s": 9, "ell": 7}
    for command, resolved in _resolved_configs(tmp_path, given).items():
        assert resolved == {name: given[name] for name in resolved}, command


@pytest.mark.parametrize("argv, message", [
    (["bench", "--algo", "lazy", "--dim", "20", "--p", "-3"], "p must be positive, got -3"),
    (["bench", "--algo", "alg2", "--dim", "20", "--s", "0"], "s must be positive, got 0"),
    (["solve", "--dim", "20", "--budget", "0"], "budget must be positive, got 0"),
    (["sweep", "k", "2,0", "--dim", "20"], "k must be positive, got 0"),
    (["sweep", "p", "1", "--dim", "20", "--p", "3"], "--p is the swept parameter"),
    (["sweep", "k", "1", "--dim", "20", "--k", "3"], "--k is the swept parameter"),
], ids=["bench-p", "bench-s", "solve-budget", "sweep-value", "sweep-p", "sweep-k"])
def test_bad_solver_fields_are_usage_errors(capsys, argv, message):
    # caught by ExperimentConfig, or for a swept parameter's flag by sweep,
    # before any solver runs
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"dppmap: error: {message}" in captured.err
    assert "logdet=" not in captured.out


def test_variance_defaults_are_variance_study_s(monkeypatch, capsys):
    import functools

    import dppmap.bench

    study = dppmap.bench.variance_study
    calls = []

    @functools.wraps(study)
    def record(**kwargs):
        calls.append(kwargs)
        return []

    monkeypatch.setattr(dppmap.bench, "variance_study", record)
    assert main(["variance", "--seed", "3"]) == 0
    echo = dict(pair.split("=") for pair in capsys.readouterr().out.splitlines()[0].split()[2:])
    defaults = {name: p.default for name, p in inspect.signature(study).parameters.items()}
    echoed = {"trials": "trials", "dim": "dim", "probes": "probe_count",
              "degree": "degree", "draws": "draws"}
    assert {key: int(echo[key]) for key in echoed} == {
        key: defaults[name] for key, name in echoed.items()}
    assert calls == [{name: defaults[name] for name in echoed.values()} | {"seed": 3}]


def _choices(parser, command, dest):
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(next(a for a in commands.choices[command]._actions if a.dest == dest).choices)


def test_cli_choices_are_the_solver_table():
    # the CLI restates them so that it parses before numpy is imported
    parser = build_parser()
    assert _choices(parser, "solve", "algo") == list(SOLVERS)
    assert _choices(parser, "sweep", "parameter") == list(SWEEPS)


@pytest.mark.parametrize("count", ["0", "-1"])
def test_nonpositive_thread_count_is_a_usage_error(count, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", count, "solve", "--dim", "8", "--budget", "2"])
    assert exc.value.code == 1
    assert "thread count must be positive" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--dim", "8", f"--threads={count}"])
    assert exc.value.code == 1


@pytest.mark.parametrize("k, s", [("40", "0"), ("0", "50")])
def test_solve_rejects_a_bad_alg2_pool(k, s):
    proc = run_cli("solve", "--dim", "40", "--algo", "alg2", "--budget", "30",
                   "--k", k, "--s", s)
    assert proc.returncode == 1
    assert "dppmap: error:" in proc.stderr
    assert "selected" not in proc.stdout


def test_exact_and_lazy_agree_via_cli(tmp_path):
    picks = {}
    for algo in ("exact", "lazy"):
        out = tmp_path / f"{algo}.json"
        assert main(["solve", "--dim", "30", "--shift", "0",
                     "--algo", algo, "--json", str(out)]) == 0
        picks[algo] = json.loads(out.read_text())["selected"]
    assert picks["exact"] == picks["lazy"]


def test_every_algorithm_solves(tmp_path):
    for algo in ("exact", "lazy", "alg1", "alg2", "brute"):
        out = tmp_path / f"{algo}.json"
        assert main(["solve", "--dim", "12", "--budget", "4",
                     "--algo", algo, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "solve"
        assert payload["kernel"]["synthetic"]["dim"] == 12
        assert 1 <= len(payload["selected"]) <= 4
        assert len(payload["gains"]) == len(payload["selected"])
        assert payload["stop_reason"]
        for key in ("log_det", "exact_evals", "ms"):
            assert key in payload
        assert not any(key.startswith("cg_") for key in payload)


@pytest.mark.parametrize("diagonal, selected", [
    ("-2.0,-2.0,0.5", []), ("-2.0,-2.0,3.0", [2]),
], ids=["nothing-gains", "one-item-gains"])
def test_brute_on_an_indefinite_kernel_selects_what_verifies(tmp_path, diagonal, selected):
    # L[{0, 1}] has determinant 4 but is not positive definite
    values = diagonal.split(",")
    kernel = tmp_path / "kernel.csv"
    kernel.write_text("".join(",".join(v if i == j else "0.0" for j in range(3)) + "\n"
                              for i, v in enumerate(values)))
    result = tmp_path / "result.json"
    assert main(["solve", "--kernel", str(kernel), "--algo", "brute",
                 "--json", str(result)]) == 0
    payload = json.loads(result.read_text())
    assert payload["selected"] == selected
    assert len(payload["gains"]) == len(selected)
    assert main(["verify", str(result)]) == 0


def test_solve_reads_csv_kernels(tmp_path):
    kernel = tmp_path / "kernel.csv"
    kernel.write_text("2.0,0.0\n0.0,3.0\n")
    result = tmp_path / "result.json"
    assert main(["solve", "--kernel", str(kernel), "--algo", "exact",
                 "--json", str(result)]) == 0
    payload = json.loads(result.read_text())
    assert payload["selected"] == [1, 0]


def test_solve_json_is_deterministic_apart_from_timing(tmp_path):
    payloads = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["solve", "--dim", "20", "--algo", "alg1", "--seed", "9",
                     "--json", str(out)]) == 0
        payloads.append(json.loads(out.read_text()))
    for payload in payloads:
        payload.pop("ms")
    assert payloads[0] == payloads[1]


def test_garbage_kernel_file_is_a_format_error(tmp_path):
    bad = tmp_path / "bad.dppk"
    bad.write_text("this is not a kernel\nat all\n")
    assert main(["solve", "--kernel", str(bad), "--algo", "lazy"]) == 1


def test_truncated_kernel_file_is_a_format_error(tmp_path):
    kernel = tmp_path / "kernel.dppk"
    assert main(["gen-kernel", "--dim", "10", "--out", str(kernel)]) == 0
    blob = kernel.read_bytes()
    kernel.write_bytes(blob[: len(blob) - 17])
    assert main(["solve", "--kernel", str(kernel), "--algo", "lazy"]) == 1


def test_env_seed_fallback(tmp_path, monkeypatch):
    from_env = tmp_path / "env.dppk"
    explicit = tmp_path / "flag.dppk"
    monkeypatch.setenv("DPPMAP_SEED", "77")
    assert main(["gen-kernel", "--dim", "12", "--out", str(from_env)]) == 0
    monkeypatch.delenv("DPPMAP_SEED")
    assert main(["gen-kernel", "--dim", "12", "--seed", "77",
                 "--out", str(explicit)]) == 0
    assert from_env.read_bytes() == explicit.read_bytes()

    monkeypatch.setenv("DPPMAP_SEED", "not-a-number")
    with pytest.raises(SystemExit):
        main(["gen-kernel", "--dim", "12", "--out", str(from_env)])


def test_missing_kernel_and_dim_is_a_usage_error(tmp_path):
    proc = run_cli("solve", "--algo", "lazy")
    assert proc.returncode == 1
    assert "provide --kernel or --dim" in proc.stderr


def test_unknown_flag_exits_one():
    proc = run_cli("solve", "--dim", "10", "--frobnicate")
    assert proc.returncode == 1
    assert "error" in proc.stderr
    # the CG and Chebyshev knobs of the solvers are gone
    for command in (["solve", "--dim", "10"], ["bench"], ["sweep", "k", "1"]):
        for flag in ("--m", "--n", "--tol", "--max-cg-iter"):
            with pytest.raises(SystemExit) as exc:
                main(command + [flag, "1"])
            assert exc.value.code == 1


def test_bench_subcommand_writes_outputs(tmp_path):
    out_csv = tmp_path / "bench.csv"
    out_json = tmp_path / "bench.json"
    assert main(["bench", "--dim", "40", "--seed", "0", "--algo", "lazy,alg1",
                 "--out", str(out_csv), "--json", str(out_json)]) == 0
    with open(out_csv, newline="") as fh:
        records = list(csv.reader(fh))
    assert tuple(records[0]) == CSV_COLUMNS
    assert len(records) == 3  # header + lazy + alg1
    payload = json.loads(out_json.read_text())
    assert payload["config"]["dims"] == [40]
    assert len(payload["rows"]) == 2


def test_sweep_rejects_an_empty_value_list(capsys):
    assert main(["sweep", "p", "", "--dim", "20"]) == 1
    captured = capsys.readouterr()
    assert "dppmap: error: need at least one value to sweep" in captured.err
    assert "lazy" not in captured.out


def test_sweep_subcommand(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "p", "1,2", "--dim", "30", "--seed", "0",
                 "--out", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        records = list(csv.reader(fh))
    assert len(records) == 4  # header + lazy baseline + two sweep values
    assert [r[0] for r in records[1:]] == ["lazy", "alg1", "alg1"]


def test_variance_subcommand(tmp_path):
    out_csv = tmp_path / "variance.csv"
    assert main(["variance", "3", "--dim", "12", "--repeats", "30", "--m", "10",
                 "--n", "12", "--seed", "1", "--out", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        records = list(csv.reader(fh))
    assert len(records) == 4


@pytest.mark.parametrize("argv, message", [
    (["variance", "2", "--dim", "8", "--repeats", "1"], "draws must be at least 2"),
    (["variance", "0", "--dim", "8"], "trials must be positive"),
    (["variance", "2", "--dim", "1"], "dim must be at least 2"),
], ids=["one-repeat", "no-trials", "dim-1"])
def test_variance_subcommand_rejects_too_few_trials_or_repeats(capsys, argv, message):
    assert main(argv) == 1
    assert f"dppmap: error: {message}" in capsys.readouterr().err


def test_numerical_failure_names_the_solver(monkeypatch, capsys):
    import numpy as np

    import dppmap.bench

    def fail(algo, L, config, seed=0):
        raise np.linalg.LinAlgError("item 3 at step 2: Schur complement 0 is not positive")

    monkeypatch.setattr(dppmap.bench, "solve_with", fail)
    assert main(["solve", "--dim", "12", "--algo", "alg2", "--budget", "3"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "alg2: item 3 at step 2" in err
