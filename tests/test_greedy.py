"""All greedy maximizers: brute force, exact, lazy, partitioned, and batch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppmap._rng import substream
from dppmap.greedy import (
    GainEstimate,
    GreedyState,
    Partition,
    balanced_partition,
    batch_greedy,
    brute_force_map,
    exact_greedy,
    first_order_gains,
    lazy_greedy,
    partitioned_greedy,
    sample_batches,
    top_l_refine,
)
from dppmap.kernel import SyntheticConfig, generate_synthetic_kernel
from dppmap.linalg import cholesky_logdet, schur_marginal_gain


def kernel(dim, seed, shift=1.01):
    return generate_synthetic_kernel(
        SyntheticConfig(dim=dim, seed=seed, monotone_shift=shift))


def test_brute_force_diagonal():
    res = brute_force_map(np.diag([2.0, 3.0, 0.5]), budget=3)
    assert res.selected == [0, 1]
    assert abs(res.log_det - np.log(6.0)) <= 1e-12


def test_brute_force_identity_keeps_empty_set():
    res = brute_force_map(np.eye(4), budget=4)
    assert res.selected == []
    assert res.log_det == 0.0


def test_brute_force_matches_bitmask_enumeration():
    L = kernel(10, 3, shift=0.0)
    res = brute_force_map(L, budget=10)
    best_ld, best_set = 0.0, ()
    for mask in range(1, 2**10):
        idx = [i for i in range(10) if mask >> i & 1]
        sign, ld = np.linalg.slogdet(L[np.ix_(idx, idx)])
        if sign > 0 and ld > best_ld:
            best_ld, best_set = ld, tuple(idx)
    assert tuple(res.selected) == best_set
    assert abs(res.log_det - best_ld) <= 1e-10


def test_brute_force_refuses_huge_enumeration():
    with pytest.raises(ValueError, match="enumeration"):
        brute_force_map(np.eye(60), budget=10)


GREEDY = [pytest.param(exact_greedy, id="exact"), pytest.param(lazy_greedy, id="lazy")]


@pytest.mark.parametrize("solve", GREEDY)
def test_greedy_diagonal_orders_and_stops(solve):
    res = solve(np.diag([2.0, 3.0, 0.5]))
    assert res.selected == [1, 0]
    assert abs(res.log_det - np.log(6.0)) <= 1e-12
    assert res.stop_reason == "nonpositive-gain"


@pytest.mark.parametrize("solve", GREEDY)
def test_greedy_monotone_kernel_runs_to_budget(solve):
    L = kernel(30, 0)  # smallest eigenvalue > 1, every gain positive
    res = solve(L, budget=12)
    assert res.size == 12
    assert res.stop_reason == "budget"
    full = solve(L)
    assert full.size == 30
    assert full.stop_reason == "exhausted"


def test_exact_greedy_scale_invariance():
    L = kernel(25, 6, shift=0.0)
    a = exact_greedy(L, budget=8)
    b = exact_greedy(3.7 * L, budget=8)
    assert a.selected == b.selected


@pytest.mark.parametrize("solve", GREEDY)
def test_greedy_breaks_ties_toward_smallest_index(solve):
    res = solve(np.diag([2.0, 2.0, 2.0]))
    assert res.selected == [0, 1, 2]


def _adversarial_kernels():
    """(L, budget) pairs at the edges of exact-gain bookkeeping."""
    low_rank = generate_synthetic_kernel(
        SyntheticConfig(dim=40, seed=1, feature_dim=8, monotone_shift=0.0))
    duplicated = np.r_[np.arange(30), 7]  # item 30 repeats item 7
    zeroed = kernel(30, 3)
    zeroed[5, :] = zeroed[:, 5] = 0.0
    return [
        (low_rank, None),
        (50.0 * low_rank, None),  # gains stay positive until the rank runs out
        (kernel(30, 2)[np.ix_(duplicated, duplicated)], None),
        (zeroed, None),
        (np.array([[2.0]]), None),
        (np.array([[0.5]]), None),
        (kernel(30, 4), 1),
        (kernel(30, 5, shift=0.0), 1),
    ]


def test_lazy_matches_exact_on_many_kernels():
    natural = [(kernel(60, seed, shift=0.0), None) for seed in range(20)]
    for L, budget in natural + _adversarial_kernels():
        exact = exact_greedy(L, budget)
        lazy = lazy_greedy(L, budget)
        assert lazy.selected == exact.selected
        assert lazy.stop_reason == exact.stop_reason
        assert np.abs(np.subtract(lazy.gains, exact.gains)).max(initial=0.0) <= 1e-10
        assert abs(sum(lazy.gains) - lazy.log_det) <= 1e-8


def test_greedy_state_invariants():
    L = kernel(15, 1)
    state = GreedyState(L)
    for i in (3, 8, 0):
        state.add(i)
    assert state.selected == [3, 8, 0]
    assert not state.remaining[[3, 8, 0]].any()
    assert state.remaining.sum() == 12
    sub = L[np.ix_(state.selected, state.selected)]
    assert np.array_equal(state.base(), sub)
    assert abs(state.log_det - cholesky_logdet(sub)[0]) <= 1e-8

    other = GreedyState(L)
    other.add(3)
    other.add_batch([8, 0])
    assert other.selected == [3, 8, 0]
    assert abs(other.log_det - state.log_det) <= 1e-10


def test_budget_validation():
    with pytest.raises(ValueError):
        exact_greedy(np.eye(3), budget=0)
    res = exact_greedy(kernel(5, 0), budget=50)  # capped at d
    assert res.size == 5


def test_balanced_partition_properties():
    rng = substream(0, "partitions")
    items = np.arange(23)
    part = balanced_partition(items, 5, rng)
    sizes = [g.size for g in part.groups]
    assert len(part.groups) == 5
    assert max(sizes) - min(sizes) <= 1
    merged = np.sort(np.concatenate(part.groups))
    assert np.array_equal(merged, items)
    for g in part.groups:
        assert np.array_equal(g, np.sort(g))

    singletons = balanced_partition(np.arange(3), 10, rng)
    assert len(singletons.groups) == 3
    whole = balanced_partition(items, 1, rng)
    assert len(whole.groups) == 1

    with pytest.raises(ValueError):
        balanced_partition(np.array([]), 3, rng)
    with pytest.raises(ValueError):
        balanced_partition(items, 0, rng)


def test_first_order_exact_for_singleton_partitions():
    L = kernel(18, 4)
    state = GreedyState(L)
    for i in (4, 9, 2):
        state.add(i)
    rest = state.remaining_indices()
    part = Partition(groups=[np.array([i]) for i in rest])
    for est in first_order_gains(state, part, L):
        exact = schur_marginal_gain(L, state.selected, est.candidate)
        assert abs(est.value - exact) <= 1e-7
    # a singleton group has no deviation from its average, so even one CG
    # iteration leaves every estimate at the exact gain
    exact = state.factor.gain_many(L[np.ix_(state.selected, rest)], np.diag(L)[rest])
    capped = [e.value for e in first_order_gains(state, part, L, max_iter=1)]
    assert np.abs(np.array(capped) - exact).max() <= 1e-12


def test_first_order_costs_two_cg_runs_per_group():
    L = kernel(40, 5)
    state = GreedyState(L)
    for i in (1, 17, 30):
        state.add(i)
    rest = state.remaining_indices()
    for p in (1, 4, 7):
        before = state.cg_solves
        part = balanced_partition(rest, p, substream(p, "partitions"))
        first_order_gains(state, part, L)
        # one inverse column per group; the Schur terms come from the factor
        assert state.cg_solves - before == p


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(d=st.integers(2, 40), data=st.data())
def test_first_order_never_underestimates_exact_gain(d, data):
    # log det is concave, so linearizing around a group's averaged kernel
    # over-estimates every member's exact gain
    feature_dim = data.draw(st.integers(1, d))
    shift = data.draw(st.sampled_from([0.0, 1.01]))
    seed = data.draw(st.integers(0, 2**16))
    L = generate_synthetic_kernel(SyntheticConfig(
        dim=d, seed=seed, feature_dim=feature_dim, monotone_shift=shift))
    state = GreedyState(L)
    # a prefix that spans the kernel's rank leaves complements that are zero
    # up to rounding, so both sides would compare noise
    rank = d if shift else feature_dim
    size = data.draw(st.integers(0, rank - 1))
    for i in substream(seed, "prefix").permutation(d):
        if state.size == size:
            break
        if np.isfinite(state.factor.gain(L[state.selected, i], L[i, i])):
            state.add(i)
    rest = state.remaining_indices()
    p = data.draw(st.integers(1, 5))
    part = balanced_partition(rest, p, substream(seed, "partitions"))
    estimates = first_order_gains(state, part, L, max_iter=200)
    cols = np.array([e.candidate for e in estimates])
    exact = state.factor.gain_many(L[np.ix_(state.selected, cols)], np.diag(L)[cols])
    est = np.array([e.value for e in estimates])
    slack = 1e-10 * np.maximum(1.0, np.where(np.isfinite(exact), np.abs(exact), 0.0))
    assert (est >= exact - slack).all()


def test_first_order_error_shrinks_with_more_groups():
    errs = {1: [], 10: []}
    for seed in range(5):
        L = kernel(300, seed)
        warm = exact_greedy(L, budget=10)
        for p in (1, 10):
            state = GreedyState(L)
            for i in warm.selected:
                state.add(i)
            rest = state.remaining_indices()
            part = balanced_partition(rest, p, substream(seed, f"groups-{p}"))
            ests = first_order_gains(state, part, L)
            borders = L[np.ix_(state.selected, rest)]
            exact = dict(zip(rest.tolist(),
                             state.factor.gain_many(borders, np.diag(L)[rest])))
            errs[p].append(np.mean([abs(e.value - exact[e.candidate])
                                    for e in ests]))
    assert np.median(errs[10]) < np.median(errs[1])


def test_partitioned_greedy_monotone_selects_everything():
    res = partitioned_greedy(kernel(40, 2), p=5, seed=0)
    assert res.size == 40
    assert res.stop_reason == "exhausted"


def test_partitioned_greedy_near_optimal_with_estimate_slack():
    # greedy with eps-approximate gains keeps (1 - 1/e) OPT - 2|X| eps
    for seed in range(5):
        L = kernel(12, seed)
        res = partitioned_greedy(L, budget=6, p=3, seed=seed,
                                 track_estimate_error=True)
        opt = brute_force_map(L, budget=6)
        slack = 2 * res.size * res.metrics["epsilon_hat"]
        assert res.log_det >= (1.0 - 1.0 / np.e) * opt.log_det - slack - 1e-9


def test_partitioned_greedy_deterministic_and_telescoping():
    L = kernel(80, 7, shift=0.0)
    a = partitioned_greedy(L, seed=3)
    b = partitioned_greedy(L, seed=3)
    assert a.selected == b.selected
    assert a.gains == b.gains
    assert abs(sum(a.gains) - a.log_det) <= 1e-8
    sub = L[np.ix_(a.selected, a.selected)]
    assert abs(a.log_det - cholesky_logdet(sub)[0]) <= 1e-8


def test_sample_batches_shapes_and_membership():
    rng = substream(8, "batches")
    remaining = np.arange(10, 50)
    batches = sample_batches(remaining, k=10, s=50, rng=rng)
    assert batches.shape == (50, 10)
    for row in batches:
        assert len(set(row.tolist())) == 10
        assert np.array_equal(row, np.sort(row))
        assert np.isin(row, remaining).all()


def test_sample_batches_inclusion_is_uniform():
    rng = substream(9, "batches")
    remaining = np.arange(10)
    draws = sample_batches(remaining, k=3, s=10000, rng=rng)
    freq = np.bincount(draws.ravel(), minlength=10) / 10000.0
    p = 3.0 / 10.0
    sigma = np.sqrt(p * (1 - p) / 10000.0)
    assert np.abs(freq - p).max() <= 3.0 * sigma


def test_sample_batches_full_batch_and_errors():
    rng = substream(10, "batches")
    remaining = np.array([4, 8, 2])
    batches = sample_batches(remaining, k=3, s=5, rng=rng)
    assert np.array_equal(batches, np.tile(np.sort(remaining), (5, 1)))
    with pytest.raises(ValueError):
        sample_batches(remaining, k=4, s=5, rng=rng)
    with pytest.raises(ValueError):
        sample_batches(remaining, k=0, s=5, rng=rng)
    with pytest.raises(ValueError):
        sample_batches(remaining, k=2, s=0, rng=rng)


def test_top_l_refine_full_width_is_exact_argmax():
    L = kernel(20, 11, shift=0.0)
    state = GreedyState(L)
    for i in (2, 13):
        state.add(i)
    rest = state.remaining_indices()
    rng = substream(11, "noise")
    estimates = [GainEstimate(int(i), float(rng.standard_normal()), "first-order")
                 for i in rest]  # garbage estimates: refinement must fix them
    best = top_l_refine(estimates, ell=len(estimates), state=state, L=L)
    exact = {i: schur_marginal_gain(L, state.selected, int(i)) for i in rest}
    true_best = max(sorted(exact), key=lambda i: exact[i])
    assert best.kind == "exact"
    assert best.candidate == true_best
    assert abs(best.value - exact[true_best]) <= 1e-10


def test_top_l_refine_ell_one_scores_single_leader():
    L = kernel(12, 12)
    state = GreedyState(L)
    state.add(0)
    estimates = [GainEstimate(3, 5.0, "first-order"),
                 GainEstimate(7, 1.0, "first-order")]
    best = top_l_refine(estimates, ell=1, state=state, L=L)
    assert best.candidate == 3
    assert abs(best.value - schur_marginal_gain(L, [0], 3)) <= 1e-10


def test_top_l_refine_scores_batches_exactly():
    L = kernel(14, 13)
    state = GreedyState(L)
    state.add(5)
    batch = (2, 9)
    estimates = [GainEstimate(batch, 3.0, "batch"), GainEstimate(1, -4.0, "first-order")]
    best = top_l_refine(estimates, ell=2, state=state, L=L)
    expected = state.factor.gain_block(L[np.ix_([5], batch)], L[np.ix_(batch, batch)])
    assert best.candidate == batch
    assert abs(best.value - expected) <= 1e-10
    assert best.kind == "exact"


def test_top_l_refine_improves_with_wider_ell():
    lds = {1: [], 20: []}
    for seed in range(10):
        L = kernel(300, seed, shift=0.0)
        for ell in (1, 20):
            lds[ell].append(partitioned_greedy(L, p=5, ell=ell, seed=seed).log_det)
    assert np.median(lds[20]) >= np.median(lds[1])


def test_gain_estimate_ordering():
    a = GainEstimate(4, 2.0, "first-order")
    b = GainEstimate(9, 1.0, "first-order")
    c = GainEstimate((3, 5), 1.0, "batch")
    d = GainEstimate(3, 1.0, "first-order")
    ranked = sorted([a, b, c, d], key=GainEstimate.sort_key)
    assert ranked[0] is a  # highest value first
    assert ranked[1] is d  # then value ties by smallest id among singles
    assert ranked[2] is b
    assert ranked[3] is c  # batches after singles on ties


def test_batch_greedy_with_unit_batches_reduces_to_partitioned():
    # k=1 batches cover every candidate and ell=40 re-scores both pools in
    # full, so either solver accepts the exact greedy pick each step
    L = kernel(20, 2)
    reference = partitioned_greedy(L, budget=8, p=1, ell=20, seed=0)
    reduced = batch_greedy(
        L, budget=8, p=1, k=1, s=1, ell=40, seed=0,
        batch_sampler=lambda remaining, k, s, rng: remaining[:, None],
    )
    assert reduced.selected == reference.selected


def test_batch_greedy_monotone_selects_everything():
    res = batch_greedy(kernel(30, 3), seed=0)
    assert res.size == 30
    assert res.stop_reason == "exhausted"


def test_batch_greedy_deterministic_and_telescoping():
    L = kernel(60, 4, shift=0.0)
    a = batch_greedy(L, p=2, k=5, s=20, m=8, n=10, seed=6)
    b = batch_greedy(L, p=2, k=5, s=20, m=8, n=10, seed=6)
    assert a.selected == b.selected
    assert a.gains == b.gains
    assert a.metrics == b.metrics
    assert abs(sum(a.gains) - a.log_det) <= 1e-8
    sub = L[np.ix_(a.selected, a.selected)]
    assert abs(a.log_det - cholesky_logdet(sub)[0]) <= 1e-8


def test_batch_greedy_respects_budget_with_batches():
    L = kernel(40, 5)
    res = batch_greedy(L, budget=17, p=2, k=5, s=10, m=8, n=10, seed=1)
    assert res.size <= 17
    assert res.stop_reason in ("budget", "negative-gain", "exhausted")
    # batches never overshoot the budget, so the size is a multiple of
    # accepted steps: check the counters add up
    steps = res.metrics["batch_steps"] * 5 + res.metrics["single_steps"]
    assert steps == res.size
