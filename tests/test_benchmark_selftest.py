"""The benchmark harness's own self-test, run as part of the test suite.

``benchmark/tracing.py`` looks the names it wraps up in the package's module
namespaces, so renaming or deleting one of them breaks every traced benchmark
run; the self-test runs each workload traced at toy size and fails on that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "benchmark/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest passed"
