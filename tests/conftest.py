"""Test-session set-up shared by every test module."""

import os

import pytest

# One BLAS thread, as the benchmark runs, unless the caller set a count.  The
# timing comparisons in test_acceptance.py read tens of milliseconds, which a
# second BLAS thread contending for the cores makes noisy.  pytest imports
# this file before any test module, so numpy has not loaded yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def no_timing_floor(monkeypatch):
    """Each bench cell makes one timed call instead of timing for 0.25 s, for
    tests that never read ``ms`` or ``speedup``."""
    import dppmap.bench

    monkeypatch.setattr(dppmap.bench, "_TIMING_FLOOR_S", 0.0)
