"""All greedy maximizers: brute force, exact, lazy, partitioned, and batch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

from dppmap._rng import substream
from dppmap.greedy import (
    GreedyState,
    Partition,
    RowState,
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
from dppmap.linalg import CholeskyFactor, cholesky_logdet, schur_marginal_gain


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
        # singleton groups with ell = d re-score every candidate from the
        # complements lazy reads, so alg1 makes lazy's picks; it stops on a
        # gain below 0 where lazy stops on a complement not above 1, and no
        # kernel here leaves a complement of exactly 1
        d = L.shape[0]
        alg1 = partitioned_greedy(L, budget, p=d, ell=d)
        assert alg1.selected == lazy.selected
        assert alg1.gains == lazy.gains
        stop = {"nonpositive-gain": "negative-gain"}.get(lazy.stop_reason, lazy.stop_reason)
        assert alg1.stop_reason == stop


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_solvers_keep_invariants_on_adversarial_kernels(data):
    # rank-deficient kernels (scaled so gains stay positive until the rank
    # runs out), a duplicated item, an all-zero item, d = 1 and budget = 1
    kind = data.draw(st.sampled_from(["low-rank", "duplicate", "zero", "single"]))
    d = 1 if kind == "single" else data.draw(st.integers(2, 24))
    seed = data.draw(st.integers(0, 2**16))
    shift = 0.0 if kind == "low-rank" else data.draw(st.sampled_from([0.0, 1.01]))
    feature_dim = data.draw(st.integers(1, d - 1)) if kind == "low-rank" else None
    L = data.draw(st.sampled_from([1.0, 50.0])) * generate_synthetic_kernel(SyntheticConfig(
        dim=d, seed=seed, feature_dim=feature_dim, monotone_shift=shift))
    if kind in ("duplicate", "zero"):
        i, j = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        if kind == "duplicate":
            L[i, :] = L[j, :]
            L[:, i] = L[:, j]
        else:
            L[i, :] = L[:, i] = 0.0
    budget = data.draw(st.sampled_from([None, 1, data.draw(st.integers(1, d))]))
    p = data.draw(st.integers(1, 5))
    ell = data.draw(st.integers(1, 20))
    # k may exceed the items left, which skips the batch pool
    k = data.draw(st.integers(1, d + 2))
    s = data.draw(st.integers(1, 8))
    solvers = {
        "exact": lambda: exact_greedy(L, budget),
        "lazy": lambda: lazy_greedy(L, budget),
        "alg1": lambda: partitioned_greedy(L, budget, p=p, ell=ell, seed=seed),
        "alg2": lambda: batch_greedy(L, budget, p=p, k=k, s=s, ell=ell, seed=seed),
    }
    if d <= 12:
        solvers["brute"] = lambda: brute_force_map(L, budget or d)
    results = {}
    for name, solve in solvers.items():
        res = results[name] = solve()
        again = solve()
        assert res.selected == again.selected, name
        assert res.gains == again.gains, name
        assert len(set(res.selected)) == res.size, name
        fresh = cholesky_logdet(L[np.ix_(res.selected, res.selected)])[0]
        assert abs(res.log_det - fresh) <= 1e-8, name
        if name != "brute":
            assert abs(sum(res.gains) - fresh) <= 1e-8, name
    assert results["lazy"].selected == results["exact"].selected
    if k > d:
        # with no batch pool alg2 is alg1, draw for draw
        assert results["alg2"].metrics["batch_steps"] == 0
        assert results["alg2"].selected == results["alg1"].selected
        assert results["alg2"].gains == results["alg1"].gains


def test_greedy_state_invariants():
    L = kernel(15, 1)
    state = GreedyState(L)
    for i in (3, 8, 0):
        state.add(i)
    assert state.selected == [3, 8, 0]
    assert not state.remaining[[3, 8, 0]].any()
    assert state.remaining.sum() == 12
    sub = L[np.ix_(state.selected, state.selected)]
    assert abs(state.log_det - cholesky_logdet(sub)[0]) <= 1e-8


def test_row_state_refuses_a_nonpositive_complement():
    L = np.ones((2, 2))
    state = RowState(L, 2)
    state.add(0)
    with pytest.raises(np.linalg.LinAlgError, match=r"item 1 at step 1: "):
        state.add(1)
    assert state.selected == [0]
    assert np.isfinite(state.rows).all()
    with pytest.raises(np.linalg.LinAlgError, match=r"batch \[0, 1\] at step 0: "):
        RowState(L, 2).add_batch([0, 1])


def _close(a, b, tol):
    return (np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))).all()


def _draw_kernel_and_prefix(d, data):
    """A drawn synthetic kernel, its rank, its seed and a GreedyState on a
    random prefix kept below the rank: a prefix that spans the rank leaves
    complements that are zero up to rounding, so any comparison of gains
    after it would compare noise."""
    feature_dim = data.draw(st.integers(1, d))
    shift = data.draw(st.sampled_from([0.0, 1.01]))
    seed = data.draw(st.integers(0, 2**16))
    L = generate_synthetic_kernel(SyntheticConfig(
        dim=d, seed=seed, feature_dim=feature_dim, monotone_shift=shift))
    ref = GreedyState(L)
    rank = d if shift else feature_dim
    size = data.draw(st.integers(0, rank - 1))
    for i in substream(seed, "prefix").permutation(d):
        if ref.size == size:
            break
        if np.isfinite(ref.factor.gain(L[ref.selected, i], L[i, i])):
            ref.add(i)
    return L, rank, seed, ref


@settings(derandomize=True, deadline=None, max_examples=500)
@given(d=st.integers(2, 64), data=st.data())
def test_row_state_add_batch_matches_single_adds(d, data):
    L, rank, seed, ref = _draw_kernel_and_prefix(d, data)
    prefix = ref.selected
    split = data.draw(st.integers(0, len(prefix)))
    singles = RowState(L, d)
    for i in prefix:
        singles.add(i)
    batched = RowState(L, d)
    for i in prefix[:split]:
        batched.add(i)
    if split < len(prefix):
        batched.add_batch(prefix[split:])
    assert batched.selected == prefix
    t = len(prefix)
    assert _close(batched.rows[:t], singles.rows[:t], 1e-10)
    assert _close(batched.schur, singles.schur, 1e-10)
    assert _close(batched.log_det, singles.log_det, 1e-10)
    _, log_det = np.linalg.slogdet(L[np.ix_(prefix, prefix)])
    assert _close(batched.log_det, log_det, 1e-8)

    # joint gains of batches of the remaining items, against the factor's;
    # a batch no larger than the rank left is generically nonsingular, and
    # an all-zero item makes every batch holding it singular exactly
    rest = ref.remaining_indices()
    if not rest.size:
        return
    k = data.draw(st.integers(1, min(4, rest.size, rank - t)))
    batches = sample_batches(rest, k, 8, substream(seed, "batches"))
    zero = data.draw(st.sampled_from([None, *batches[0]]))
    if zero is not None:
        L = L.copy()
        L[zero, :] = L[:, zero] = 0.0
        singles = RowState(L, d)
        for i in prefix:
            singles.add(i)
    factor = CholeskyFactor.from_matrix(L[np.ix_(prefix, prefix)])
    borders = L[np.ix_(prefix, batches.ravel())].reshape(t, *batches.shape)
    expected = factor.gain_block_many(borders, L[batches[:, :, None], batches[:, None, :]])
    gains = singles.batch_gains(batches)
    assert np.array_equal(np.isfinite(gains), np.isfinite(expected))
    assert zero is None or not np.isfinite(gains[0])
    live = np.isfinite(expected)
    assert _close(gains[live], expected[live], 1e-10)


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


def _rows_and_factor(L, prefix):
    """A RowState and the reference GreedyState on the same selection."""
    rows = RowState(L, L.shape[0])
    ref = GreedyState(L)
    for i in prefix:
        rows.add(i)
        ref.add(i)
    return rows, ref


def test_first_order_exact_for_singleton_partitions():
    L = kernel(18, 4)
    state, ref = _rows_and_factor(L, (4, 9, 2))
    rest = ref.remaining_indices()
    part = Partition(groups=[np.array([i]) for i in rest])
    cand, est = first_order_gains(state, part)
    assert np.array_equal(cand, rest)
    for c, value in zip(cand, est):
        exact = schur_marginal_gain(L, state.selected, int(c))
        assert abs(value - exact) <= 1e-7
    # a singleton group has no deviation from its average, so even one CG
    # iteration leaves every estimate at the exact gain
    exact = ref.factor.gain_many(L[np.ix_(ref.selected, rest)], np.diag(L)[rest])
    _, capped = first_order_gains(state, part, max_iter=1)
    assert np.abs(capped - exact).max() <= 1e-12


def test_first_order_costs_two_cg_runs_per_group():
    L = kernel(40, 5)
    state, _ = _rows_and_factor(L, (1, 17, 30))
    rest = np.flatnonzero(state.remaining)
    for p in (1, 4, 7):
        before = state.cg_solves
        part = balanced_partition(rest, p, substream(p, "partitions"))
        first_order_gains(state, part)
        # one inverse column per group; the Schur terms come from the rows
        assert state.cg_solves - before == p


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(d=st.integers(2, 40), data=st.data())
def test_first_order_never_underestimates_exact_gain(d, data):
    # log det is concave, so linearizing around a group's averaged kernel
    # over-estimates every member's exact gain
    L, _, seed, ref = _draw_kernel_and_prefix(d, data)
    rows = RowState(L, d)
    for i in ref.selected:
        rows.add(i)
    _, log_det = np.linalg.slogdet(L[np.ix_(rows.selected, rows.selected)])
    assert abs(rows.log_det - log_det) <= 1e-8 * max(1.0, abs(log_det))
    rest = ref.remaining_indices()
    p = data.draw(st.integers(1, 5))
    part = balanced_partition(rest, p, substream(seed, "partitions"))
    cols, est = first_order_gains(rows, part, max_iter=200)
    exact = ref.factor.gain_many(L[np.ix_(ref.selected, cols)], np.diag(L)[cols])
    slack = 1e-10 * np.maximum(1.0, np.where(np.isfinite(exact), np.abs(exact), 0.0))
    assert (est >= exact - slack).all()
    # the closed form from the rows is the value CG converges to
    row_cols, row_est = rows.first_order(part)
    assert np.array_equal(row_cols, cols)
    assert (row_est >= exact - slack).all()
    if rows.cg_converged == rows.cg_solves:
        assert np.array_equal(np.isfinite(row_est), np.isfinite(est))
        live = np.isfinite(est)
        assert (np.abs(row_est[live] - est[live])
                <= 1e-8 * np.maximum(1.0, np.abs(est[live]))).all()


def _batch_oracle(L, prefix, pool, group):
    """Dense first-order batch estimates of ``pool[group]``: slogdet of the
    assembled averaged kernel minus that of L[X, X], plus the linear term
    from the averaged kernel's explicit inverse; None if it is not PD."""
    t = len(prefix)
    k = pool.shape[1]
    members = pool[group]
    borders = [L[np.ix_(prefix, b)] for b in members]
    corners = [L[np.ix_(b, b)] for b in members]
    border = np.mean(borders, axis=0).reshape(t, k)
    corner = np.mean(corners, axis=0)
    corner = (corner + corner.T) / 2.0
    base = L[np.ix_(prefix, prefix)]
    full = np.block([[base, border], [border.T, corner]])
    sign, log_det = np.linalg.slogdet(full)
    if sign <= 0:
        return None
    gamma = log_det - (np.linalg.slogdet(base)[1] if t else 0.0)
    z = np.linalg.inv(full)[:, t:]
    z_bot = (z[t:] + z[t:].T) / 2.0
    return np.array([gamma + 2.0 * np.sum(z[:t] * (b - border)) + np.sum(z_bot * (c - corner))
                     for b, c in zip(borders, corners)])


@settings(derandomize=True, deadline=None, max_examples=500)
@given(d=st.integers(2, 40), data=st.data())
def test_batch_first_order_matches_dense_oracle(d, data):
    L, rank, seed, ref = _draw_kernel_and_prefix(d, data)
    rows = RowState(L, d)
    for i in ref.selected:
        rows.add(i)
    t = rows.size
    rest = ref.remaining_indices()
    p = data.draw(st.integers(1, 5))

    # k = 1 batches of every item, grouped as the items are, are the singles
    items = balanced_partition(rest, p, substream(seed, "partitions"))
    slots = Partition(groups=[np.searchsorted(rest, g) for g in items.groups])
    pool, est = rows.batch_first_order(rest[:, None], slots)
    cand, single = rows.first_order(items)
    assert np.array_equal(pool[:, 0], cand)
    assert np.array_equal(np.isfinite(est), np.isfinite(single))
    live = np.isfinite(single)
    assert _close(est[live], single[live], 1e-8)

    # up to 12 batches of k items, drawn with repeats; no larger than the
    # rank left, so each averaged kernel is generically nonsingular
    k = data.draw(st.integers(1, min(4, rest.size, rank - t)))
    distinct = sample_batches(rest, k, 6, substream(seed, "batches"))
    picks = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    batches = distinct[picks]
    part = balanced_partition(np.arange(len(picks)), p, substream(seed, "batch-groups"))
    pool, est = rows.batch_first_order(batches, part)
    assert np.array_equal(pool, batches[np.concatenate(part.groups)])
    # log det is concave: the linearization over-estimates every exact gain
    exact = rows.batch_gains(pool)
    slack = 1e-10 * np.maximum(1.0, np.where(np.isfinite(exact), np.abs(exact), 0.0))
    assert (est >= exact - slack).all()
    start = 0
    for g in part.groups:
        span = slice(start, start + g.size)
        start += g.size
        w = rows.rows[:t][:, pool[span]].mean(axis=1)
        c = L[pool[span, :, None], pool[span, None, :]].mean(axis=0)
        _, info = dpotrf((c + c.T) / 2.0 - w.T @ w, lower=1)
        assert (np.isfinite(est[span]) == (info == 0)).all()
        oracle = _batch_oracle(L, rows.selected, pool, np.arange(span.start, span.stop))
        if info == 0:
            assert _close(est[span], oracle, 1e-8)


def test_first_order_error_shrinks_with_more_groups():
    errs = {1: [], 10: []}
    for seed in range(5):
        L = kernel(300, seed)
        warm = exact_greedy(L, budget=10)
        for p in (1, 10):
            state, ref = _rows_and_factor(L, warm.selected)
            rest = ref.remaining_indices()
            part = balanced_partition(rest, p, substream(seed, f"groups-{p}"))
            cand, est = first_order_gains(state, part)
            borders = L[np.ix_(ref.selected, rest)]
            exact = dict(zip(rest.tolist(),
                             ref.factor.gain_many(borders, np.diag(L)[rest])))
            errs[p].append(np.mean([abs(v - exact[c]) for c, v in zip(cand.tolist(), est)]))
    assert np.median(errs[10]) < np.median(errs[1])


def test_partitioned_greedy_monotone_selects_everything():
    res = partitioned_greedy(kernel(40, 2), p=5, seed=0)
    assert res.size == 40
    assert res.stop_reason == "exhausted"


def test_partitioned_greedy_near_optimal_with_estimate_slack():
    # greedy with eps-approximate gains keeps (1 - 1/e) OPT - 2|X| eps
    for seed in range(5):
        L = kernel(12, seed)
        res = partitioned_greedy(L, budget=6, p=3, seed=seed)
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
    state, _ = _rows_and_factor(L, (2, 13))
    rest = np.flatnonzero(state.remaining)
    rng = substream(11, "noise")
    estimates = rng.standard_normal(rest.size)  # garbage: refinement must fix them
    gain, best = top_l_refine(state, rest.size, rest, estimates)
    exact = {i: schur_marginal_gain(L, state.selected, int(i)) for i in rest}
    true_best = max(sorted(exact), key=lambda i: exact[i])
    assert best == true_best
    assert abs(gain - exact[true_best]) <= 1e-10


def test_top_l_refine_ell_one_scores_single_leader():
    L = kernel(12, 12)
    state, _ = _rows_and_factor(L, (0,))
    gain, best = top_l_refine(state, 1, np.array([3, 7]), np.array([5.0, 1.0]))
    assert best == 3
    assert abs(gain - schur_marginal_gain(L, [0], 3)) <= 1e-10


def test_top_l_refine_scores_batches_exactly():
    L = kernel(14, 13)
    state, ref = _rows_and_factor(L, (5,))
    batch = (2, 9)
    gain, best = top_l_refine(state, 2, np.array([1]), np.array([-4.0]),
                              np.array([batch]), np.array([3.0]))
    expected = ref.factor.gain_block(L[np.ix_([5], batch)], L[np.ix_(batch, batch)])
    assert best == batch
    assert abs(gain - expected) <= 1e-10


def test_top_l_refine_improves_with_wider_ell():
    lds = {1: [], 20: []}
    for seed in range(10):
        L = kernel(300, seed, shift=0.0)
        for ell in (1, 20):
            lds[ell].append(partitioned_greedy(L, p=5, ell=ell, seed=seed).log_det)
    assert np.median(lds[20]) >= np.median(lds[1])


def test_top_l_refine_tie_rules():
    # on the identity every item and every batch gains exactly 0
    diag = np.ones(12)
    state = RowState(np.diag(diag), 12)
    items = np.array([9, 4, 3])
    batches = np.array([[6, 7], [5, 8]])
    # the smallest item, and the lexicographically smallest batch
    assert top_l_refine(state, 3, items, np.zeros(3)) == (0.0, 3)
    assert top_l_refine(state, 2, items[:0], np.zeros(0), batches, np.zeros(2))[1] == (5, 8)
    # on equal exact gains a single beats a batch, whatever the estimates
    assert top_l_refine(state, 5, items, np.zeros(3), batches, np.full(2, 9.0))[1] == 3
    # the cut is a stable sort of the singles, then the batches: at ell = 2 it
    # keeps items 4 and 9, so item 3 is never scored
    estimates, batch_estimates = np.array([1.0, 2.0, 1.0]), np.array([1.0, 0.5])
    evals = state.exact_evals
    assert top_l_refine(state, 2, items, estimates, batches, batch_estimates)[1] == 4
    assert state.exact_evals - evals == 2
    # a higher exact gain beats every tie rule, but only once the cut keeps
    # it: batch (6, 7) ties items 9 and 3 on its estimate and comes after them
    diag[7] = 3.0
    state = RowState(np.diag(diag), 12)
    assert top_l_refine(state, 3, items, estimates, batches, batch_estimates)[1] == 3
    gain, best = top_l_refine(state, 4, items, estimates, batches, batch_estimates)
    assert best == (6, 7)
    assert abs(gain - np.log(3.0)) <= 1e-15


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
    a = batch_greedy(L, p=2, k=5, s=20, seed=6)
    b = batch_greedy(L, p=2, k=5, s=20, seed=6)
    assert a.selected == b.selected
    assert a.gains == b.gains
    assert a.metrics == b.metrics
    assert abs(sum(a.gains) - a.log_det) <= 1e-8
    sub = L[np.ix_(a.selected, a.selected)]
    assert abs(a.log_det - cholesky_logdet(sub)[0]) <= 1e-8


def test_batch_greedy_respects_budget_with_batches():
    L = kernel(40, 5)
    res = batch_greedy(L, budget=17, p=2, k=5, s=10, seed=1)
    assert res.size <= 17
    assert res.stop_reason in ("budget", "negative-gain", "exhausted")
    # batches never overshoot the budget, so the size is a multiple of
    # accepted steps: check the counters add up
    steps = res.metrics["batch_steps"] * 5 + res.metrics["single_steps"]
    assert steps == res.size


def test_batch_greedy_refuses_a_batch_that_repeats_a_selected_direction():
    # item 7 duplicates item 13, so any batch holding both, or one of them
    # with the other selected, has a Schur complement that is singular up to
    # rounding; its noise pivot once let a large batch through with a
    # positive joint gain, leaving L[X, X] singular or add_batch raising
    for seed in range(3):
        L = 50.0 * kernel(14, seed, shift=0.0)
        L[7, :] = L[13, :]
        L[:, 7] = L[:, 13]
        for k in (4, 8, 11, 13):
            res = batch_greedy(L, p=1, k=k, s=1, ell=1, seed=0)
            assert not {7, 13} <= set(res.selected)
            fresh = cholesky_logdet(L[np.ix_(res.selected, res.selected)])[0]
            assert abs(sum(res.gains) - fresh) <= 1e-8
