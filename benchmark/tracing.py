"""Spans around the calls into dppmap's layers, recorded from outside the package.

The solvers look their collaborators up by name at call time: ``dppmap.greedy``
imported ``cg_solve``, ``spectral_bounds``, ``border_average`` and the rest into
its own namespace, and ``bordered_inverse_columns`` calls the ``cg_solve`` bound
in ``dppmap.linalg``.  So a wrapper has to replace the name in the namespace
that does the lookup; patching only the defining module would miss every call.
``CholeskyFactor`` methods are wrapped on the class.

Each span is ``[name, start, end, parent, root, counts]``.  Spans stay in
memory until ``write_jsonl`` is called at the end of a run.
"""

import contextlib
import functools
import gzip
import json
import time

import numpy as np

import dppmap.greedy
import dppmap.kernel
import dppmap.linalg

NAME, START, END, PARENT, ROOT, COUNTS = range(6)


def _cg_counts(args, kwargs, report):
    cols = report.col_iterations
    return {
        "columns": int(cols.size),
        "iterations": int(cols.sum()),
        "unconverged_columns": int(cols.size - report.col_converged.sum()),
    }


def _gain_many_counts(args, kwargs, out):
    return {"columns": int(np.size(out))}


def _gain_block_many_counts(args, kwargs, out):
    return {"blocks": int(np.size(out))}


def _first_order_counts(args, kwargs, estimates):
    return {"candidates": len(estimates)}


# (object holding the name, attribute, span name, counter of the call's work)
_FUNCTIONS = [
    (dppmap.greedy, "cg_solve", "linalg.cg_solve", _cg_counts),
    (dppmap.linalg, "cg_solve", "linalg.cg_solve", _cg_counts),
    (dppmap.greedy, "bordered_inverse_columns", "linalg.bordered_inverse_columns", None),
    (dppmap.greedy, "border_average", "linalg.border_average", None),
    (dppmap.greedy, "spectral_bounds", "kernel.spectral_bounds", None),
    (dppmap.greedy, "chebyshev_coefficients", "logdet.chebyshev_coefficients", None),
    (dppmap.greedy, "rademacher_probes", "logdet.rademacher_probes", None),
    (dppmap.greedy, "first_order_gains", "greedy.first_order_gains", _first_order_counts),
    (dppmap.greedy, "top_l_refine", "greedy.top_l_refine", None),
    (dppmap.greedy, "sample_batches", "greedy.sample_batches", None),
    (dppmap.greedy, "balanced_partition", "greedy.balanced_partition", None),
    (dppmap.kernel, "generate_synthetic_kernel", "kernel.generate_synthetic_kernel", None),
    (dppmap.linalg.CholeskyFactor, "gain", "linalg.CholeskyFactor.gain", None),
    (dppmap.linalg.CholeskyFactor, "gain_many", "linalg.CholeskyFactor.gain_many",
     _gain_many_counts),
    (dppmap.linalg.CholeskyFactor, "gain_block_many", "linalg.CholeskyFactor.gain_block_many",
     _gain_block_many_counts),
    # extend_block is the k-column form of extend; both are factor extension
    (dppmap.linalg.CholeskyFactor, "extend", "linalg.CholeskyFactor.extend", None),
    (dppmap.linalg.CholeskyFactor, "extend_block", "linalg.CholeskyFactor.extend", None),
]


class Tracer:
    """Records nested spans of wrapped calls while ``installed()`` is active."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        stack = self._stack
        sid = len(self.spans)
        parent = stack[-1] if stack else -1
        root = stack[0] if stack else sid
        span = [name, 0.0, 0.0, parent, root, None]
        self.spans.append(span)
        stack.append(sid)
        return span

    def _wrap(self, fn, name, counter):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                self._stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, out)
            return out

        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns (result, span id)."""
        sid = len(self.spans)
        return self._wrap(fn, name, None)(*args, **kwargs), sid

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced names with wrappers; restore them on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _FUNCTIONS]
        try:
            for owner, attr, name, counter in _FUNCTIONS:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name, counter))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def tree(self, root):
        """Spans of the call tree under ``root``, as (span id, span) pairs."""
        return [(sid, s) for sid, s in enumerate(self.spans[root:], root) if s[ROOT] == root]

    def layer_totals(self, root):
        """Per span name: calls, self seconds and summed counts under ``root``.

        Self time is a span's duration minus its direct children's durations,
        so the self times of a call tree add up to the root's duration.
        Raises ValueError when a child span is not inside its parent's.
        """
        spans = self.tree(root)
        child_time = {}
        for sid, s in spans:
            if s[PARENT] >= 0:
                parent = self.spans[s[PARENT]]
                if s[START] < parent[START] or s[END] > parent[END]:
                    raise ValueError(f"span {sid} ({s[NAME]}) escapes its parent")
                child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
        totals = {}
        for sid, s in spans:
            entry = totals.setdefault(s[NAME], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += s[END] - s[START] - child_time.get(sid, 0.0)
            for key, value in (s[COUNTS] or {}).items():
                entry[key] = entry.get(key, 0) + value
        return totals

    def write_jsonl(self, path):
        """Write one JSON object per span, in recording order, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "root": s[ROOT], "counts": s[COUNTS],
                }, separators=(",", ":")) + "\n")
