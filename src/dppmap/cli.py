"""Command-line interface.

Subcommands: gen-kernel, solve, bench, sweep, variance, verify.  Exit codes:
0 on success, 1 for usage or file-format problems, 2 for numerical failures
(non-positive-definite input, failed verification); a failing ``solve``
names its solver in the message.

``--threads``, before or after the subcommand (the last one given wins), is
applied to the BLAS thread-count environment variables before numpy is
imported: nothing imports numpy until the arguments are parsed, and the heavy
imports happen inside the handlers.
"""

import argparse
import json
import os
import sys
import time

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this package reserves 2 for numerics."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _env_seed():
    raw = os.environ.get("DPPMAP_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"dppmap: error: DPPMAP_SEED must be an integer, got {raw!r}")


def _int_list(text):
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _thread_count(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"thread count must be positive, got {value}")
    return value


# Solver flags, in echo order.  Unset, each takes ExperimentConfig's default,
# which for p, k, s and ell is the solver's own.
_SOLVER_FLAGS = {
    "budget": "maximum selection size",
    "p": "alg1: number of partition groups",
    "k": "alg2: batch size",
    "s": "alg2: batches sampled per iteration",
    "ell": "alg1: estimates re-scored exactly",
}

# Kernel flags, which are also the keys of a result file's synthetic record,
# and the SyntheticConfig (and ExperimentConfig) fields they set.
_KERNEL_FIELDS = {"beta1": "quality_slope", "beta2": "quality_offset", "shift": "monotone_shift"}


# variance's count arguments, in echo order: the ``variance_study`` parameter
# each sets, and its help.  Unset, each takes the function's own default.
_VARIANCE_FLAGS = {
    "trials": ("trials", "matrix pairs"),
    "dim": ("dim", "matrix dimension per pair"),
    "m": ("probe_count", "probe vectors per estimate"),
    "n": ("degree", "polynomial degree"),
    "repeats": ("draws", "draws per matrix pair"),
}


def _add_solver_flags(sub):
    for name, text in _SOLVER_FLAGS.items():
        sub.add_argument(f"--{name}", type=int, help=text)


def _add_kernel_flags(sub, seed, grid_dim=None):
    """The synthetic-kernel flags; unset, --beta1/--beta2/--shift take the config's default.

    With ``grid_dim`` (bench, sweep), --dim and --seed take comma-separated
    lists and --dim defaults to ``grid_dim``; without it they name one kernel,
    which --feature-dim completes.
    """
    if grid_dim is None:
        sub.add_argument("--dim", type=int, help="synthetic kernel dimension")
        sub.add_argument("--seed", type=int, default=seed,
                         help="RNG seed (env DPPMAP_SEED overrides the default)")
        sub.add_argument("--feature-dim", type=int,
                         help="synthetic feature dimension (default: the kernel dimension)")
    else:
        sub.add_argument("--dim", type=_int_list, default=(grid_dim,),
                         help="comma-separated kernel dimensions")
        sub.add_argument("--seed", type=_int_list, default=(seed,), help="comma-separated seeds")
    sub.add_argument("--beta1", type=float, help="quality log-slope")
    sub.add_argument("--beta2", type=float, help="quality log-offset")
    sub.add_argument("--shift", type=float, help="diagonal shift (default: monotone for "
                     "gen-kernel/solve, none for bench/sweep)")


def _add_table_flags(sub, dim, seed):
    """The flags ``bench`` and ``sweep`` share: kernel grid, solver, output."""
    _add_kernel_flags(sub, seed, dim)
    _add_solver_flags(sub)
    sub.add_argument("--out", default=None, help="CSV output path")
    sub.add_argument("--json", default=None, help="JSON output path")


def build_parser():
    seed = _env_seed()
    parser = _Parser(prog="dppmap",
                     description="Greedy MAP inference for determinantal point processes.")
    parser.add_argument("--threads", type=_thread_count, default=None,
                        help="BLAS thread count (applied before numpy loads)")
    # also accepted after the subcommand; unset there, it keeps the top-level value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=_thread_count, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return commands.add_parser(name, parents=[common], help=summary)

    gen = command("gen-kernel", "write a synthetic kernel file")
    _add_kernel_flags(gen, seed)
    gen.add_argument("--out", required=True, help="output kernel path")

    solve = command("solve", "run one solver on a kernel")
    _add_kernel_flags(solve, seed)
    solve.add_argument("--kernel", default=None, help="kernel file (binary or CSV)")
    solve.add_argument("--algo", default="lazy",
                       choices=["exact", "lazy", "alg1", "alg2", "brute"])
    _add_solver_flags(solve)
    solve.add_argument("--json", default=None, help="write the full result as JSON")

    bench = command("bench", "timed comparison against the lazy baseline")
    bench.add_argument("--algo", default="lazy,alg1,alg2", help="comma-separated algorithms")
    _add_table_flags(bench, 1000, seed)

    sweep = command("sweep", "vary one solver parameter with paired seeds")
    sweep.add_argument("parameter", choices=["p", "k"])
    sweep.add_argument("values", type=_int_list, help="comma-separated values")
    _add_table_flags(sweep, 500, seed)

    var = command("variance", "shared vs independent probe variance study")
    var.add_argument("trials", type=int, nargs="?", help=_VARIANCE_FLAGS["trials"][1])
    var.add_argument("--seed", type=int, default=seed)
    for name, (_, text) in _VARIANCE_FLAGS.items():
        if name != "trials":
            var.add_argument(f"--{name}", type=int, help=text)
    var.add_argument("--out", default=None, help="CSV output path")

    verify = command("verify", "recheck a saved solve result")
    verify.add_argument("result", help="JSON file produced by solve --json")
    verify.add_argument("--kernel", default=None,
                        help="kernel file (default: what the result records)")

    return parser


def _load_any_kernel(path):
    from .kernel import load_kernel, load_kernel_text

    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == b"DPPK":
        return load_kernel(path)
    return load_kernel_text(path)


def _kernel_fields(values):
    """The config fields of the kernel flags (or record keys) set in ``values``."""
    return {field: values[key] for key, field in _KERNEL_FIELDS.items()
            if values.get(key) is not None}


def _synthetic_config(values):
    """The ``SyntheticConfig`` of gen-kernel/solve's flags, given as ``vars(args)``,
    or of a result file's ``synthetic`` record, which has the same keys."""
    from .kernel import SyntheticConfig

    return SyntheticConfig(dim=values["dim"], seed=values["seed"],
                           feature_dim=values.get("feature_dim"), **_kernel_fields(values))


def _synthetic_record(cfg):
    """A ``SyntheticConfig`` as the ``synthetic`` record of a result file."""
    return {"dim": cfg.dim, "seed": cfg.seed,
            **{key: getattr(cfg, field) for key, field in _KERNEL_FIELDS.items()},
            "feature_dim": cfg.feature_dim}


def _experiment_config(args, **fields):
    """The ``ExperimentConfig`` of ``fields`` and the solver flags set in ``args``."""
    from .bench import ExperimentConfig

    given = {name: getattr(args, name) for name in _SOLVER_FLAGS
             if getattr(args, name) is not None}
    return ExperimentConfig(**given, **fields)


def _solver_params(config):
    """The resolved solver flags of ``config``, in echo order."""
    return {name: getattr(config, name) for name in _SOLVER_FLAGS}


def _resolve_kernel(args):
    """Kernel matrix plus a provenance dict for result files."""
    from .kernel import generate_synthetic_kernel

    kernel_path = getattr(args, "kernel", None)
    if kernel_path:
        return _load_any_kernel(kernel_path), {"kernel_file": kernel_path}
    if args.dim is None:
        raise SystemExit("dppmap: error: provide --kernel or --dim")
    cfg = _synthetic_config(vars(args))
    return generate_synthetic_kernel(cfg), {"synthetic": _synthetic_record(cfg)}


def _echo(label, mapping):
    pairs = " ".join(f"{k}={v}" for k, v in mapping.items())
    print(f"# {label}: {pairs}")


def _cmd_gen_kernel(args):
    from .kernel import generate_synthetic_kernel, save_kernel

    if args.dim is None:
        raise SystemExit("dppmap: error: gen-kernel requires --dim")
    cfg = _synthetic_config(vars(args))
    _echo("gen-kernel", {**_synthetic_record(cfg), "out": args.out})
    save_kernel(args.out, generate_synthetic_kernel(cfg))
    print(f"wrote {args.out} (dim={cfg.dim})")
    return 0


def _cmd_solve(args):
    import numpy as np

    from .bench import solve_with
    from .kernel import validate_kernel

    L, provenance = _resolve_kernel(args)
    validate_kernel(L)
    config = _experiment_config(args)  # only its budget and solver fields are read
    params = {"seed": args.seed, **_solver_params(config)}
    _echo("solve", {"algo": args.algo, "d": L.shape[0], **params, **_flat(provenance)})
    start = time.perf_counter()
    try:
        result = solve_with(args.algo, L, config, seed=args.seed)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{args.algo}: {exc}") from exc
    ms = (time.perf_counter() - start) * 1000.0
    print(f"selected {result.size} items, log det {result.log_det:.6f}, "
          f"stop={result.stop_reason}, {ms:.1f} ms, "
          f"exact_evals={result.exact_evals}")
    if args.json:
        payload = {
            "command": "solve",
            "algorithm": result.algorithm,
            "kernel": provenance,
            "params": params,
            "selected": result.selected,
            "gains": result.gains,
            "log_det": result.log_det,
            "stop_reason": result.stop_reason,
            "exact_evals": result.exact_evals,
            "ms": ms,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def _flat(provenance):
    if "kernel_file" in provenance:
        return {"kernel": provenance["kernel_file"]}
    return provenance.get("synthetic", {})


def _progress_printer(row):
    if row.error:
        print(f"{row.algo:>5} d={row.d} seed={row.seed} FAILED: {row.error}")
        return
    print(f"{row.algo:>5} d={row.d} seed={row.seed} |X|={row.set_size} "
          f"logdet={row.logdet:.4f} ratio={row.ratio:.4f} "
          f"ms={row.ms:.1f} speedup={row.speedup:.2f}")


def _bench_config(args, algorithms):
    return _experiment_config(args, dims=tuple(args.dim), seeds=tuple(args.seed),
                              algorithms=algorithms, **_kernel_fields(vars(args)))


def _write_tables(rows, config, args):
    """Write ``rows`` to the ``--out`` CSV and ``--json`` files asked for;
    the exit code is 1 if any row failed."""
    from .bench import write_rows_csv, write_rows_json

    if args.out:
        write_rows_csv(rows, args.out)
        print(f"wrote {args.out}")
    if args.json:
        write_rows_json(rows, config, args.json)
        print(f"wrote {args.json}")
    return 1 if any(row.error for row in rows) else 0


def _cmd_bench(args):
    from .bench import run_comparison

    algorithms = tuple(a for a in args.algo.split(",") if a)
    config = _bench_config(args, algorithms)
    _echo("bench", {"dims": list(config.dims), "seeds": list(config.seeds),
                    "algos": list(algorithms), **_solver_params(config),
                    "shift": config.monotone_shift})
    return _write_tables(run_comparison(config, progress=_progress_printer), config, args)


def _cmd_sweep(args):
    from .bench import SWEEPS, parameter_sweep

    if getattr(args, args.parameter) is not None:
        raise ValueError(f"--{args.parameter} is the swept parameter; "
                         "give its values as the sweep's value list")
    config = _bench_config(args, (SWEEPS[args.parameter],))
    _echo("sweep", {"parameter": args.parameter, "values": list(args.values),
                    "dims": list(config.dims), "seeds": list(config.seeds),
                    "shift": config.monotone_shift})
    rows = parameter_sweep(config, args.parameter, list(args.values),
                           progress=_progress_printer)
    return _write_tables(rows, config, args)


def _cmd_variance(args):
    import inspect

    from .bench import variance_study, write_variance_csv

    defaults = inspect.signature(variance_study).parameters
    kwargs = {param: defaults[param].default if getattr(args, flag) is None
              else getattr(args, flag) for flag, (param, _) in _VARIANCE_FLAGS.items()}
    _echo("variance", {"trials": kwargs["trials"], "dim": kwargs["dim"], "seed": args.seed,
                       "probes": kwargs["probe_count"], "degree": kwargs["degree"],
                       "draws": kwargs["draws"]})
    reports = variance_study(**kwargs, seed=args.seed)
    within = sum(r.var_shared <= r.bound for r in reports)
    smaller = sum(r.var_shared < r.var_indep for r in reports)
    print(f"{within}/{len(reports)} trials within the analytic bound; "
          f"shared variance smaller in {smaller}/{len(reports)}")
    if args.out:
        write_variance_csv(reports, args.out)
        print(f"wrote {args.out}")
    return 0


def _check_selection(selected, d):
    """Raise ValueError unless ``selected`` is a list of distinct item ids below d."""
    if not isinstance(selected, list):
        raise ValueError("'selected' is not a list of item ids")
    seen = set()
    for i in selected:
        if isinstance(i, bool) or not isinstance(i, int):
            raise ValueError(f"selected id {i!r} is not an integer")
        if not 0 <= i < d:
            raise ValueError(f"selected id {i} is out of range for a kernel of {d} items")
        if i in seen:
            raise ValueError(f"selected id {i} appears more than once")
        seen.add(i)


_SYNTHETIC_KEYS = ("dim", "seed", *_KERNEL_FIELDS)


def _record_config(syn):
    """The ``SyntheticConfig`` of a result file's ``kernel.synthetic`` record.

    Raises ValueError when the record is not an object, lacks a key, or holds
    a value of the wrong type: ``dim``, ``seed`` and ``feature_dim`` (when
    present and not null) must be integers, the rest real numbers; a JSON
    true/false is neither.
    """
    if not isinstance(syn, dict):
        raise ValueError("kernel.synthetic record is not a JSON object")
    missing = [key for key in _SYNTHETIC_KEYS if key not in syn]
    if missing:
        raise ValueError(f"kernel.synthetic record lacks {', '.join(missing)}")
    for key in _SYNTHETIC_KEYS + ("feature_dim",):
        value = syn.get(key)
        if key == "feature_dim" and value is None:
            continue
        integer = key not in _KERNEL_FIELDS
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            kind = "an integer" if integer else "a real number"
            raise ValueError(f"kernel.synthetic {key} {value!r} is not {kind}")
    return _synthetic_config(syn)


def _cmd_verify(args):
    import numpy as np

    from .kernel import generate_synthetic_kernel, validate_kernel
    from .linalg import cholesky_logdet

    with open(args.result) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("result file is not a JSON object")
    selected = payload.get("selected")
    stored = payload.get("log_det")
    if selected is None or stored is None:
        raise ValueError("result file lacks 'selected'/'log_det'")
    # NaN and infinities parse from JSON; a NaN difference passes any tolerance
    if (isinstance(stored, bool) or not isinstance(stored, (int, float))
            or not abs(stored) <= sys.float_info.max):
        raise ValueError(f"log_det {stored!r} is not a finite number")
    if args.kernel:
        L = _load_any_kernel(args.kernel)
    else:
        info = payload.get("kernel", {})
        if not isinstance(info, dict):
            raise ValueError("kernel record is not a JSON object")
        if "kernel_file" in info:
            L = _load_any_kernel(info["kernel_file"])
        elif "synthetic" in info:
            L = generate_synthetic_kernel(_record_config(info["synthetic"]))
        else:
            raise ValueError("no kernel recorded in result; pass --kernel")
    validate_kernel(L)
    _check_selection(selected, L.shape[0])
    idx = np.asarray(selected, dtype=int)
    recomputed, _ = cholesky_logdet(L[np.ix_(idx, idx)])
    diff = abs(recomputed - stored)
    tol = 1e-6 * max(1.0, abs(stored))
    if diff > tol:
        print(f"MISMATCH: stored log det {stored:.9f}, recomputed {recomputed:.9f} "
              f"(|diff| {diff:.3e} > {tol:.3e})", file=sys.stderr)
        return 2
    print(f"verified: {len(selected)} items, log det {recomputed:.6f} "
          f"(|diff| {diff:.3e})")
    return 0


_HANDLERS = {
    "gen-kernel": _cmd_gen_kernel,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
    "variance": _cmd_variance,
    "verify": _cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    try:
        return _HANDLERS[args.command](args)
    except SystemExit:
        raise
    except OSError as exc:
        print(f"dppmap: error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"dppmap: error: invalid JSON in input file: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # includes KernelFormatError and numpy's LinAlgError
        import numpy as np

        if isinstance(exc, np.linalg.LinAlgError):
            print(f"dppmap: numerical failure: {exc}", file=sys.stderr)
            return 2
        print(f"dppmap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
