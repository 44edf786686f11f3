"""Command-line interface: subcommands, exit codes, file round trips."""

import csv
import json
import os
import subprocess
import sys

import pytest

from dppmap.bench import CSV_COLUMNS
from dppmap.cli import main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dppmap.cli", *args],
        capture_output=True, text=True, env=dict(os.environ),
    )


# Records the BLAS thread variable at the moment numpy is first imported.
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
code = dppmap.cli.main(["--threads", "1", "solve", "--dim", "8", "--budget", "2"])
print("exit", code, "threads at numpy import", NumpyImportSpy.seen[:1])
"""


def test_threads_flag_is_applied_before_numpy_loads():
    proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE],
                          capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "numpy loaded by import: False"
    assert lines[-1] == "exit 0 threads at numpy import ['1']"


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
        assert len(payload["selected"]) <= 4
        if algo != "brute":  # enumeration reports no per-step gains
            assert len(payload["gains"]) >= 1
        assert payload["stop_reason"]
        for key in ("log_det", "exact_evals", "cg_iters", "cg_solves",
                    "cg_converged", "ms"):
            assert key in payload


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
