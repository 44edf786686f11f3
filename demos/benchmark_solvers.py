"""Small end-to-end benchmark: compare solvers, then sweep a knob.

Every row reports selected-set size, objective value, ratio against the lazy
baseline on the same kernel, wall time, and the exact gain evaluations.  The
sweep at the end shows the quality/speed trade as the number of partition
groups grows.
"""

from dppmap.bench import ExperimentConfig, parameter_sweep, run_comparison


def show(rows):
    print(f"{'algo':<6} {'d':>5} {'seed':>4} {'size':>5} {'logdet':>10} "
          f"{'ratio':>7} {'ms':>8} {'speedup':>8} {'exact':>6}")
    for r in rows:
        if r.error:
            print(f"{r.algo:<6} {r.d:>5} {r.seed:>4}  failed: {r.error}")
            continue
        print(f"{r.algo:<6} {r.d:>5} {r.seed:>4} {r.set_size:>5} {r.logdet:>10.3f} "
              f"{r.ratio:>7.4f} {r.ms:>8.1f} {r.speedup:>8.2f} {r.exact_evals:>6}")


def main():
    config = ExperimentConfig(dims=(400,), seeds=(0, 1),
                              algorithms=("lazy", "alg1", "alg2"))
    rows = run_comparison(config)
    show(rows)

    print("\npartition-count sweep (first-order solver, d=400):")
    sweep = parameter_sweep(ExperimentConfig(dims=(400,), seeds=(0,)), "p",
                            (1, 5, 10))
    show(sweep)


if __name__ == "__main__":
    main()
