"""Run the dppmap benchmark: four greedy solvers timed end to end.

    python3 benchmark/run.py --workload natural-d2000 --seed 0 --seconds 20 --trace 0
    python3 benchmark/run.py --seed 0          # every workload, one process each

Run it from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it give
the environment record and every metric by name, unit and sample count.
Spans of a traced run and each run's record go to ``.bench_out/``.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path(".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One benchmark process runs one BLAS thread; more load than that at start
# means something else competes for the cores.
LOAD_LIMIT = 1.5


def pin_blas_threads():
    """Pin BLAS to one thread; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was set")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import dppmap from ``src/``; returns the seconds the import took."""
    if not (SRC / "dppmap" / "__init__.py").is_file():
        raise ImportError(f"no dppmap package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import dppmap  # numpy and scipy load here
    elapsed = time.perf_counter() - start
    if Path(dppmap.__file__).resolve().parent != SRC / "dppmap":
        raise ImportError(f"dppmap was imported from {dppmap.__file__}, not {SRC}")
    return elapsed


def loadavg():
    with open("/proc/loadavg") as fh:
        return fh.read().split()[:4]


def environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def describe(result, run, workload, setups):
    """Human-readable metric lines: name, value, unit and sample count."""
    lines = []
    for name, m in result["metrics"].items():
        solver = name.split(".")[0]
        if name == "setup_s":
            n = f"median of {setups} set-ups, plus the import"
        elif name.endswith("solve_s"):
            n = f"median of n={len(run.samples[solver])} calls"
        elif name.endswith("p90_s"):
            n = f"over {workload.kernels} kernel(s), n={len(run.samples[solver])} calls"
        elif name.endswith("logdet_ratio"):
            n = f"median over {workload.kernels} kernel(s)"
        elif solver in run.traced and run.traced[solver]:
            n = f"mean over {len(run.traced[solver])} traced call(s)"
        else:
            n = ""
        lines.append(f"{name:<58} {m['value']:>14.6g} {m['unit']:<6} {n}")
    if "ok_ops" in result["metrics"]:
        share = result["failed"] / result["attempted"]
        lines.append(f"{'failed_ops':<58} {share:>14.6g} {'ratio':<6} "
                     f"{result['failed']} of {result['attempted']} calls")
    return lines


def run_one(args, workload, import_s, load_start):
    import harness

    env = environment()
    env["loadavg_start"] = load_start
    env["load_flag"] = float(load_start[0]) > LOAD_LIMIT
    if env["load_flag"]:
        print(f"WARNING: load average {load_start[0]} at start exceeds {LOAD_LIMIT}; "
              "timings may be inflated", file=sys.stderr)
    result, run = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                       setup_import_s=import_s)
    env["loadavg_end"] = loadavg()

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run.tracer.write_jsonl(OUT / f"spans-{stem}.jsonl.gz")
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                   "env": env, "result": result, "samples": run.samples}, fh)

    print("env " + json.dumps(env))
    print(f"workload {workload.name}: {workload.why}")
    for line in describe(result, run, workload, harness.SETUP_REPEATS):
        print(line)
    print(json.dumps(result))
    return 0


def run_all(args, names):
    """Each workload in its own process, so no kernel or warm state carries over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    pin_blas_threads()
    load_start = loadavg()
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"cannot import dppmap from {SRC}: {exc}", file=sys.stderr)
        return 2
    import harness

    if args.workload == "all":
        return run_all(args, list(harness.WORKLOADS))
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)} or all")
    return run_one(args, harness.WORKLOADS[args.workload], import_s, load_start)


if __name__ == "__main__":
    sys.exit(main())
