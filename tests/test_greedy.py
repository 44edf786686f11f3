"""All greedy maximizers: brute force, exact, lazy, partitioned, and batch."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppmap import greedy
from dppmap._rng import substream
from dppmap.greedy import (
    _PIVOT_FLOOR,
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
from dppmap.greedy import _logdet_pd_many, _top_cut
from dppmap.kernel import SyntheticConfig, generate_synthetic_kernel
from dppmap.linalg import CholeskyFactor, cholesky_logdet


def kernel(dim, seed, shift=1.01):
    return generate_synthetic_kernel(
        SyntheticConfig(dim=dim, seed=seed, monotone_shift=shift))


def test_brute_force_diagonal():
    res = brute_force_map(np.diag([2.0, 3.0, 0.5]), budget=3)
    assert res.selected == [0, 1]
    assert abs(res.log_det - np.log(6.0)) <= 1e-12
    assert np.allclose(res.gains, np.log([2.0, 3.0]), rtol=0, atol=1e-12)


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
        # complements lazy reads, so alg1 makes lazy's picks and stops by
        # lazy's rule
        d = L.shape[0]
        alg1 = partitioned_greedy(L, budget, p=d, ell=d)
        assert alg1.selected == lazy.selected
        assert alg1.gains == lazy.gains
        assert alg1.stop_reason == lazy.stop_reason


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
        "alg2": lambda: batch_greedy(L, budget, k=k, s=s, seed=seed),
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
        assert len(res.gains) == res.size, name
        assert abs(sum(res.gains) - fresh) <= 1e-8, name
    assert results["lazy"].selected == results["exact"].selected
    if k > d:
        # with no batch pool alg2 is lazy
        assert results["alg2"].metrics["batch_steps"] == 0
        for field in ("selected", "gains", "stop_reason"):
            assert getattr(results["alg2"], field) == getattr(results["lazy"], field), field


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


def _logdet_or_minus_inf(a):
    """``cholesky_logdet`` of ``a``, or -inf where it is not positive definite."""
    try:
        return cholesky_logdet(a)[0]
    except np.linalg.LinAlgError:
        return -np.inf


def _joint_gain(L, prefix, batch):
    """log det L[X + B] - log det L[X], from two full factorizations."""
    both = [*prefix, *batch]
    return (_logdet_or_minus_inf(L[np.ix_(both, both)])
            - cholesky_logdet(L[np.ix_(prefix, prefix)])[0])


def _draw_kernel_and_prefix(d, data):
    """A drawn synthetic kernel, its rank, its seed and a random prefix of
    items, grown by a CholeskyFactor and kept below the rank: a prefix that
    spans the rank leaves complements that are zero up to rounding, so any
    comparison of gains after it would compare noise."""
    feature_dim = data.draw(st.integers(1, d))
    shift = data.draw(st.sampled_from([0.0, 1.01]))
    seed = data.draw(st.integers(0, 2**16))
    L = generate_synthetic_kernel(SyntheticConfig(
        dim=d, seed=seed, feature_dim=feature_dim, monotone_shift=shift))
    factor = CholeskyFactor(d)
    prefix = []
    rank = d if shift else feature_dim
    size = data.draw(st.integers(0, rank - 1))
    for i in substream(seed, "prefix").permutation(d):
        if len(prefix) == size:
            break
        if np.isfinite(factor.gain(L[prefix, i], L[i, i])):
            factor.extend(L[prefix, i], L[i, i])
            prefix.append(int(i))
    return L, rank, seed, prefix


@settings(derandomize=True, deadline=None, max_examples=500)
@given(d=st.integers(2, 64), data=st.data())
def test_row_state_add_batch_matches_single_adds(d, data):
    L, rank, seed, prefix = _draw_kernel_and_prefix(d, data)
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
    # one conditional gain per item, in batch order
    assert len(batched.gains) == t
    assert _close(np.array(batched.gains), np.array(singles.gains), 1e-8)
    _, log_det = np.linalg.slogdet(L[np.ix_(prefix, prefix)])
    assert _close(batched.log_det, log_det, 1e-8)

    # joint gains of batches of the remaining items, priced as alg2 prices
    # them, from principal blocks of the shortlist's complement S (here the
    # shortlist holds every remaining item), against the factor's; a batch
    # no larger than the rank left is generically nonsingular, and an
    # all-zero item makes every batch holding it singular exactly
    rest = np.flatnonzero(singles.remaining)
    if not rest.size:
        return
    k = data.draw(st.integers(1, min(4, rest.size, rank - t)))
    pos = sample_batches(np.arange(rest.size), k, 8, substream(seed, "batches"))
    batches = rest[pos]
    zero = data.draw(st.sampled_from([None, *batches[0]]))
    if zero is not None:
        L = L.copy()
        L[zero, :] = L[:, zero] = 0.0
        singles = RowState(L, d)
        for i in prefix:
            singles.add(i)
    top, S, bound = singles.shortlist(rest.size)
    assert np.array_equal(top, rest)
    assert bound == -np.inf
    expected = np.array([_joint_gain(L, prefix, batch) for batch in batches])
    gains = _logdet_pd_many(S[pos[:, :, None], pos[:, None, :]],
                            _PIVOT_FLOOR * np.diag(L)[batches])[0]
    assert np.array_equal(np.isfinite(gains), np.isfinite(expected))
    assert zero is None or not np.isfinite(gains[0])
    live = np.isfinite(expected)
    assert _close(gains[live], expected[live], 1e-10)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(d=st.integers(1, 40), data=st.data())
def test_shortlist_matches_the_dense_oracle(d, data):
    # a diagonal kernel of three distinct values keeps its complements tied
    # exactly at the cut, a low-rank kernel is rank-deficient, and an
    # all-zero item has complement 0
    kind = data.draw(st.sampled_from(["ties", "low-rank", "zero"]))
    seed = data.draw(st.integers(0, 2**16))
    if kind == "ties":
        L = np.diag(data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=d, max_size=d)))
    else:
        feature_dim = data.draw(st.integers(1, d)) if kind == "low-rank" else None
        L = generate_synthetic_kernel(SyntheticConfig(
            dim=d, seed=seed, feature_dim=feature_dim, monotone_shift=0.0))
        if kind == "zero":
            z = data.draw(st.integers(0, d - 1))
            L[z, :] = L[:, z] = 0.0
    # a selection of well-conditioned pivots, so the dense solve is accurate
    state = RowState(L, d)
    for i in substream(seed, "prefix").permutation(d)[: data.draw(st.integers(0, d - 1))]:
        if state.schur[i] > 1e-3 * L[i, i]:
            state.add(i)
    rest = np.flatnonzero(state.remaining)
    m = data.draw(st.integers(1, rest.size + 2))
    top, S, bound = state.shortlist(m)
    # the largest complements, the smaller id on ties, in id order
    assert top.tolist() == sorted(sorted(rest.tolist(), key=lambda i: (-state.schur[i], i))[:m])
    X = state.selected
    oracle = L[np.ix_(top, top)]
    outside = np.setdiff1d(rest, top)
    # every complement outside the shortlist, from the dense solve
    left_out = np.diag(L)[outside]
    if X:
        oracle = oracle - L[np.ix_(top, X)] @ np.linalg.solve(L[np.ix_(X, X)], L[np.ix_(X, top)])
        border = L[np.ix_(X, outside)]
        left_out = left_out - np.einsum("xi,xi->i", border,
                                        np.linalg.solve(L[np.ix_(X, X)], border))
    assert _close(S, oracle, 1e-8)
    # bound is the largest complement outside the shortlist, no smaller than
    # any there and no larger than any in it
    if outside.size:
        assert bound == state.schur[outside].max()
        assert _close(np.array(bound), np.array(left_out.max()), 1e-8)
        assert bound <= state.schur[top].min()
    else:
        assert bound == -np.inf


def _block_kernels(data):
    """A drawn kernel at the edges of the block certificate: rank-deficient,
    with duplicated items (exact ties in every complement, straddling any
    shortlist cut), with an all-zero item, or diagonal with a few distinct
    values (ties everywhere)."""
    kind = data.draw(st.sampled_from(["low-rank", "duplicate", "zero", "ties"]))
    d = data.draw(st.integers(2, 40))
    seed = data.draw(st.integers(0, 2**16))
    if kind == "ties":
        return np.diag(data.draw(st.lists(st.sampled_from([0.5, 1.5, 2.0, 3.0]),
                                          min_size=d, max_size=d)))
    feature_dim = data.draw(st.integers(1, d)) if kind == "low-rank" else None
    shift = 0.0 if kind == "low-rank" else data.draw(st.sampled_from([0.0, 1.01]))
    L = data.draw(st.sampled_from([1.0, 50.0])) * generate_synthetic_kernel(SyntheticConfig(
        dim=d, seed=seed, feature_dim=feature_dim, monotone_shift=shift))
    if kind == "duplicate":
        # copies of the drawn items, inserted together at a drawn place
        copies = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=4))
        order = np.insert(np.arange(d), data.draw(st.integers(0, d)), copies)
        return L[np.ix_(order, order)]
    if kind == "zero":
        z = data.draw(st.integers(0, d - 1))
        L[z, :] = L[:, z] = 0.0
    return L


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_certified_blocks_make_exact_greedy_s_picks(data):
    # the block step forced on from the first pick, with a shortlist small
    # enough that the cut falls inside the kernel
    L = _block_kernels(data)
    d = L.shape[0]
    budget = data.draw(st.sampled_from([None, data.draw(st.integers(1, d))]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "_BLOCK_BYTES", 0)
        mp.setattr(greedy, "_BLOCK_SHORTLIST", data.draw(st.integers(1, 8)))
        lazy = lazy_greedy(L, budget)
    exact = exact_greedy(L, budget)
    assert lazy.selected == exact.selected
    assert lazy.stop_reason == exact.stop_reason
    assert len(lazy.gains) == len(lazy.selected)
    assert np.abs(np.subtract(lazy.gains, exact.gains)).max(initial=0.0) <= 1e-10
    fresh = cholesky_logdet(L[np.ix_(lazy.selected, lazy.selected)])[0]
    assert abs(sum(lazy.gains) - fresh) <= 1e-8
    assert abs(lazy.log_det - fresh) <= 1e-8
    assert lazy.metrics["certified_items"] <= lazy.size


def _near_tie_kernel(data, mirror):
    """L = A A^T where each base row b of A has a copy b[perm], scaled by
    1 + {0, +-1e-15, 3e-15}, so the two items of a pair start with complements
    equal to rounding.  With ``mirror`` perm swaps coordinates in disjoint
    pairs: swapping every pair of items then maps L to itself up to those
    scales, the two items keep complements equal to rounding as the selection
    grows, and either choice leads to mirror-image runs.  Otherwise perm is
    any permutation, and the pair's complements part once other items are
    selected."""
    seed = data.draw(st.integers(0, 2**16))
    rng = substream(seed, "near-ties")
    n = data.draw(st.integers(1, 20))
    f = data.draw(st.integers(1, 12))
    base = rng.standard_normal((n, f))
    perm = rng.permutation(f)
    if mirror:
        a, b = perm[: f // 2], perm[f // 2 : 2 * (f // 2)]
        perm = np.arange(f)
        perm[a], perm[b] = b, a
    scale = 1.0 + rng.choice([0.0, 1e-15, -1e-15, 3e-15], size=(n, 1))
    A = np.vstack([base, base[:, perm] * scale])[rng.permutation(2 * n)]
    return data.draw(st.sampled_from([1.0, 50.0])) * (A @ A.T)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_lazy_and_exact_break_near_ties_alike_up_to_rounding(data):
    # exact greedy and lazy (single picks, and the block step forced on)
    # round complements differently, so where two complements agree only to
    # rounding they may pick different items of a pair; such a pick gains
    # what exact greedy's pick gains.  On mirror pairs the runs stay mirror
    # images and reach the same log det; otherwise they go on from different
    # sets, and only the tied pick is compared
    mirror = data.draw(st.booleans())
    L = _near_tie_kernel(data, mirror)
    budget = data.draw(st.sampled_from([None, data.draw(st.integers(1, L.shape[0]))]))
    exact = exact_greedy(L, budget)
    with pytest.MonkeyPatch.context() as mp:
        runs = {"lazy": lazy_greedy(L, budget)}
        mp.setattr(greedy, "_BLOCK_BYTES", 0)
        mp.setattr(greedy, "_BLOCK_SHORTLIST", data.draw(st.integers(1, 8)))
        runs["block"] = lazy_greedy(L, budget)
    tol = 1e-12
    for name, res in runs.items():
        if res.selected != exact.selected:
            q = next(q for q, (a, b) in enumerate(zip(res.selected, exact.selected)) if a != b)
            assert abs(res.gains[q] - exact.gains[q]) <= tol * max(1.0, abs(exact.gains[q])), name
        if mirror or res.selected == exact.selected:
            assert abs(res.log_det - exact.log_det) <= tol * max(1.0, abs(exact.log_det)), name


def test_lazy_certifies_blocks_at_the_default_threshold():
    # at d=1000 the rows reach 2 MiB at t = 263 of 350 picks
    L = kernel(1000, 0, shift=0.0)
    lazy = lazy_greedy(L)
    exact = exact_greedy(L)
    assert lazy.selected == exact.selected
    assert lazy.stop_reason == exact.stop_reason == "nonpositive-gain"
    assert lazy.metrics["certified_blocks"] >= 1
    assert lazy.metrics["certified_items"] >= 2 * lazy.metrics["certified_blocks"]
    # below the threshold every step is a single pick
    assert lazy.size - lazy.metrics["certified_items"] >= greedy._BLOCK_BYTES // (8 * 1000)
    assert abs(sum(lazy.gains) - lazy.log_det) <= 1e-8


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_alg2_batches_on_certified_blocks_stay_valid(data):
    # the block step forced on from the first pick, so alg2 draws its pool
    # from the rest of a shortlist small enough that the cut falls inside
    # the kernel, conditioned on each certified prefix
    L = _block_kernels(data)
    d = L.shape[0]
    budget = data.draw(st.sampled_from([None, data.draw(st.integers(1, d))]))
    # batches of 2-4 items fit in the rest of a small shortlist; k may also
    # exceed the items left, which skips the batch pool
    k = data.draw(st.one_of(st.integers(2, 4), st.integers(1, d + 2)))
    s = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2**16))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "_BLOCK_BYTES", 0)
        mp.setattr(greedy, "_BLOCK_SHORTLIST", data.draw(st.integers(1, 16)))
        res = batch_greedy(L, budget, k=k, s=s, seed=seed)
        again = batch_greedy(L, budget, k=k, s=s, seed=seed)
        lazy = lazy_greedy(L, budget)
    assert res.selected == again.selected
    assert res.gains == again.gains
    assert len(set(res.selected)) == res.size
    assert budget is None or res.size <= budget
    assert len(res.gains) == res.size
    fresh = cholesky_logdet(L[np.ix_(res.selected, res.selected)])[0]
    assert abs(sum(res.gains) - fresh) <= 1e-8
    assert abs(res.log_det - fresh) <= 1e-8
    m = res.metrics
    assert k * m["batch_steps"] + m["single_steps"] + m["certified_items"] == res.size
    if k > d:
        # with no batch pool alg2 is lazy, certified blocks included
        assert m["batch_steps"] == 0
        for field in ("selected", "gains", "stop_reason", "log_det"):
            assert getattr(res, field) == getattr(lazy, field), field
        assert m["certified_items"] == lazy.metrics["certified_items"]


def test_alg2_takes_more_items_per_row_update_than_lazy():
    # at d=1000 the rows reach 2 MiB at t = 263 of 350 picks; from there
    # alg2 appends its batches to lazy's certified prefixes
    L = kernel(1000, 0, shift=0.0)
    alg2 = batch_greedy(L, seed=0)
    lazy = lazy_greedy(L)
    m = alg2.metrics
    assert m["certified_blocks"] >= 1
    assert 10 * m["batch_steps"] + m["single_steps"] + m["certified_items"] == alg2.size
    # an update may carry both a prefix and a batch, so this is an upper bound
    alg2_updates = m["batch_steps"] + m["certified_blocks"] + m["single_steps"]
    lazy_updates = (lazy.metrics["certified_blocks"] + lazy.size
                    - lazy.metrics["certified_items"])
    assert alg2_updates < lazy_updates
    assert alg2.log_det >= 0.99 * lazy.log_det
    assert abs(sum(alg2.gains) - alg2.log_det) <= 1e-8


def test_alg2_certifies_prefixes_on_a_requests_sized_kernel():
    # far below the block threshold (30 rows of 500 items), alg2 still takes
    # lazy's step: certified prefixes of exact greedy's picks, and its batch
    # pool on the rest of the same shortlist
    L = generate_synthetic_kernel(
        SyntheticConfig(dim=500, seed=0, feature_dim=64, monotone_shift=1.01))
    res = batch_greedy(L, 30, seed=0)
    m = res.metrics
    assert m["certified_blocks"] >= 1
    assert 10 * m["batch_steps"] + m["single_steps"] + m["certified_items"] == res.size == 30
    assert abs(sum(res.gains) - res.log_det) <= 1e-8


def test_budget_validation():
    with pytest.raises(ValueError):
        exact_greedy(np.eye(3), budget=0)
    res = exact_greedy(kernel(5, 0), budget=50)  # capped at d
    assert res.size == 5


@pytest.mark.parametrize("k, s", [(0, 50), (10, 0), (40, 0)])
def test_batch_greedy_rejects_a_bad_pool_before_the_first_step(k, s):
    # (40, 0): k > budget, so the pool would never be drawn to check s
    with pytest.raises(ValueError, match="must be positive"):
        batch_greedy(kernel(40, 0), budget=30, k=k, s=s)


def test_balanced_partition_properties():
    rng = substream(0, "partitions")
    items = np.arange(23)
    groups = balanced_partition(items, 5, rng)
    sizes = [g.size for g in groups]
    assert len(groups) == 5
    assert max(sizes) - min(sizes) <= 1
    merged = np.sort(np.concatenate(groups))
    assert np.array_equal(merged, items)
    for g in groups:
        assert np.array_equal(g, np.sort(g))

    assert len(balanced_partition(np.arange(3), 10, rng)) == 3
    assert len(balanced_partition(items, 1, rng)) == 1

    with pytest.raises(ValueError):
        balanced_partition(np.array([]), 3, rng)
    with pytest.raises(ValueError):
        balanced_partition(items, 0, rng)


def _rows_and_factor(L, prefix):
    """A RowState on the selection ``prefix`` and the reference Cholesky
    factor of L[prefix, prefix]."""
    rows = RowState(L, L.shape[0])
    for i in prefix:
        rows.add(i)
    return rows, CholeskyFactor.from_matrix(L[np.ix_(prefix, prefix)])


def test_first_order_exact_for_singleton_partitions():
    L = kernel(18, 4)
    state, factor = _rows_and_factor(L, (4, 9, 2))
    rest = np.flatnonzero(state.remaining)
    part = [np.array([i]) for i in rest]
    cand, est, _ = first_order_gains(state, part)
    assert np.array_equal(cand, rest)
    for c, value in zip(cand, est):
        exact = factor.gain(L[[4, 9, 2], c], L[c, c])
        assert abs(value - exact) <= 1e-7
    # a singleton group has no deviation from its average, so even one CG
    # iteration leaves every estimate at the exact gain
    exact = factor.gain_many(L[np.ix_([4, 9, 2], rest)], np.diag(L)[rest])
    _, capped, _ = first_order_gains(state, part, max_iter=1)
    assert np.abs(capped - exact).max() <= 1e-12


def test_first_order_costs_two_cg_runs_per_group():
    L = kernel(40, 5)
    state, _ = _rows_and_factor(L, (1, 17, 30))
    rest = np.flatnonzero(state.remaining)
    for p in (1, 4, 7):
        part = balanced_partition(rest, p, substream(p, "partitions"))
        _, _, reports = first_order_gains(state, part)
        # one inverse column per group; the Schur terms come from the rows
        assert len(reports) == p
        assert all(rep.col_iterations.size == 1 for rep in reports)
    # item 3 copies the selected item 17, so its singleton group's averaged
    # Schur complement is zero up to rounding: priced -inf, with no CG run
    L[3, :] = L[17, :]
    L[:, 3] = L[:, 17]
    state, _ = _rows_and_factor(L, (1, 17, 30))
    rest = np.flatnonzero(state.remaining)
    part = [np.array([3]), np.setdiff1d(rest, [3])]
    cand, est, reports = first_order_gains(state, part)
    assert cand[0] == 3 and est[0] == -np.inf
    assert np.isfinite(est[1:]).all()
    assert len(reports) == 1


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(d=st.integers(2, 40), data=st.data())
def test_first_order_never_underestimates_exact_gain(d, data):
    # log det is concave, so linearizing around a group's averaged kernel
    # over-estimates every member's exact gain
    L, _, seed, prefix = _draw_kernel_and_prefix(d, data)
    rows, factor = _rows_and_factor(L, prefix)
    _, log_det = np.linalg.slogdet(L[np.ix_(rows.selected, rows.selected)])
    assert abs(rows.log_det - log_det) <= 1e-8 * max(1.0, abs(log_det))
    rest = np.flatnonzero(rows.remaining)
    p = data.draw(st.integers(1, 5))
    part = balanced_partition(rest, p, substream(seed, "partitions"))
    cols, est, reports = first_order_gains(rows, part, max_iter=200)
    exact = factor.gain_many(L[np.ix_(prefix, cols)], np.diag(L)[cols])
    slack = 1e-10 * np.maximum(1.0, np.where(np.isfinite(exact), np.abs(exact), 0.0))
    assert (est >= exact - slack).all()
    # the closed form from the rows is the value CG converges to
    row_cols, row_est = rows.first_order(part)
    assert np.array_equal(row_cols, cols)
    assert (row_est >= exact - slack).all()
    if all(rep.converged for rep in reports):
        assert np.array_equal(np.isfinite(row_est), np.isfinite(est))
        live = np.isfinite(est)
        assert (np.abs(row_est[live] - est[live])
                <= 1e-8 * np.maximum(1.0, np.abs(est[live]))).all()


def _sweep_three_rows_at_a_time(monkeypatch, d):
    monkeypatch.setattr(greedy, "_SWEEP_BYTES", 3 * 8 * d)
    monkeypatch.setattr(greedy, "_SWEEP_MIN_ROWS", 1)


def test_first_order_blocked_sweep_matches_one_block(monkeypatch):
    # at d=60 the default budget holds all 25 rows in one block; three rows
    # a block sweeps them in nine blocks, the last one ragged
    L = kernel(60, 2)
    L[5, :] = 0.0  # complement 0: its singleton group prices -inf either way
    L[:, 5] = 0.0
    state, _ = _rows_and_factor(L, lazy_greedy(L, budget=25).selected)
    assert state.size == 25
    rest = np.setdiff1d(np.flatnonzero(state.remaining), [5])
    groups = balanced_partition(rest, 4, substream(2, "partitions")) + [np.array([5])]
    cand, est = state.first_order(groups)
    _sweep_three_rows_at_a_time(monkeypatch, 60)
    swept, swept_est = state.first_order(groups)
    assert np.array_equal(swept, cand)
    assert np.array_equal(np.isneginf(swept_est), np.isneginf(est))
    assert np.isneginf(est).sum() == 1
    live = np.isfinite(est)
    assert _close(swept_est[live], est[live], 1e-12)


def test_blocked_sweep_keeps_the_solvers_picks(monkeypatch):
    L = kernel(200, 3)
    alg1 = partitioned_greedy(L, 60, seed=1).selected
    _sweep_three_rows_at_a_time(monkeypatch, 200)
    assert partitioned_greedy(L, 60, seed=1).selected == alg1


def test_first_order_error_shrinks_with_more_groups():
    errs = {1: [], 10: []}
    for seed in range(5):
        L = kernel(300, seed)
        warm = exact_greedy(L, budget=10)
        for p in (1, 10):
            state, factor = _rows_and_factor(L, warm.selected)
            rest = np.flatnonzero(state.remaining)
            part = balanced_partition(rest, p, substream(seed, f"groups-{p}"))
            cand, est, _ = first_order_gains(state, part)
            borders = L[np.ix_(warm.selected, rest)]
            exact = dict(zip(rest.tolist(), factor.gain_many(borders, np.diag(L)[rest])))
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


def test_sample_batches_subsets_are_jointly_uniform():
    # per-item inclusion can be uniform while pairs and triples are not
    n = 200_000
    draws = sample_batches(np.arange(6), k=3, s=n, rng=substream(11, "batches"))
    subsets, counts = np.unique(draws, axis=0, return_counts=True)
    assert len(subsets) == comb(6, 3)
    p = 1.0 / comb(6, 3)
    sigma = np.sqrt(n * p * (1 - p))
    assert np.abs(counts - n * p).max() <= 4.0 * sigma


class _CountingRng:
    """A Generator whose every method call adds the size of its result to ``drawn``."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.drawn += np.size(out)
            return out

        return counted


def test_sample_batches_draws_s_times_k_numbers_whatever_r():
    for r in (20, 20_000):
        rng = _CountingRng(substream(12, "batches"))
        batches = sample_batches(np.arange(r), k=10, s=50, rng=rng)
        assert batches.shape == (50, 10)
        assert rng.drawn == 50 * 10


def test_top_l_refine_full_width_is_exact_argmax():
    L = kernel(20, 11, shift=0.0)
    state, factor = _rows_and_factor(L, (2, 13))
    rest = np.flatnonzero(state.remaining)
    rng = substream(11, "noise")
    estimates = rng.standard_normal(rest.size)  # garbage: refinement must fix them
    gain, best = top_l_refine(state, rest.size, rest, estimates)
    exact = {i: factor.gain(L[[2, 13], i], L[i, i]) for i in rest}
    true_best = max(sorted(exact), key=lambda i: exact[i])
    assert best == true_best
    assert abs(gain - exact[true_best]) <= 1e-10


def test_top_l_refine_ell_one_scores_single_leader():
    L = kernel(12, 12)
    state, factor = _rows_and_factor(L, (0,))
    gain, best = top_l_refine(state, 1, np.array([3, 7]), np.array([5.0, 1.0]))
    assert best == 3
    assert abs(gain - factor.gain(L[[0], 3], L[3, 3])) <= 1e-10


def test_top_l_refine_improves_with_wider_ell():
    lds = {1: [], 20: []}
    for seed in range(10):
        L = kernel(300, seed, shift=0.0)
        for ell in (1, 20):
            lds[ell].append(partitioned_greedy(L, p=5, ell=ell, seed=seed).log_det)
    assert np.median(lds[20]) >= np.median(lds[1])


def test_top_l_refine_tie_rules():
    # on the identity every item gains exactly 0
    diag = np.ones(12)
    state = RowState(np.diag(diag), 12)
    items = np.array([9, 4, 3])
    # the smallest item
    assert top_l_refine(state, 3, items, np.zeros(3)) == (0.0, 3)
    # the cut is a stable sort of the estimates: at ell = 2 it keeps items 4
    # and 9, so item 3 is never scored
    estimates = np.array([1.0, 2.0, 1.0])
    evals = state.exact_evals
    assert top_l_refine(state, 2, items, estimates)[1] == 4
    assert state.exact_evals - evals == 2
    # a higher exact gain beats the tie rule, but only once the cut keeps it
    diag[3] = 3.0
    state = RowState(np.diag(diag), 12)
    assert top_l_refine(state, 2, items, estimates)[1] == 4
    gain, best = top_l_refine(state, 3, items, estimates)
    assert best == 3
    assert abs(gain - np.log(3.0)) <= 1e-15


def test_batch_greedy_monotone_selects_everything():
    res = batch_greedy(kernel(30, 3), seed=0)
    assert res.size == 30
    assert res.stop_reason == "exhausted"


def test_batch_greedy_deterministic_and_telescoping():
    L = kernel(60, 4, shift=0.0)
    a = batch_greedy(L, k=5, s=20, seed=6)
    b = batch_greedy(L, k=5, s=20, seed=6)
    assert a.selected == b.selected
    assert a.gains == b.gains
    assert a.metrics == b.metrics
    assert abs(sum(a.gains) - a.log_det) <= 1e-8
    sub = L[np.ix_(a.selected, a.selected)]
    assert abs(a.log_det - cholesky_logdet(sub)[0]) <= 1e-8


def test_batch_greedy_respects_budget_with_batches():
    L = kernel(40, 5)
    res = batch_greedy(L, budget=17, k=5, s=10, seed=1)
    assert res.size <= 17
    assert res.stop_reason in ("budget", "nonpositive-gain", "exhausted")
    # batches never overshoot the budget, so the size is a multiple of
    # accepted steps plus the certified picks: check the counters add up
    m = res.metrics
    assert m["batch_steps"] * 5 + m["single_steps"] + m["certified_items"] == res.size


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
            res = batch_greedy(L, k=k, s=1, seed=0)
            assert not {7, 13} <= set(res.selected)
            fresh = cholesky_logdet(L[np.ix_(res.selected, res.selected)])[0]
            assert abs(sum(res.gains) - fresh) <= 1e-8


def test_a_refine_of_only_dependent_candidates_does_not_end_the_run():
    # item 7 copies item 13, so the one sampled 13-batch prices -inf
    # whenever it holds both.  A pool of only such batches once ended the run
    # with nothing selected; alg2 takes lazy's single pick instead, so it
    # reaches lazy's log det.
    L = 50.0 * kernel(14, 1, shift=0.0)
    L[7, :] = L[13, :]
    L[:, 7] = L[:, 13]
    res = batch_greedy(L, k=13, s=1, seed=0)
    lazy = lazy_greedy(L)
    assert res.size == lazy.size == 13
    assert abs(res.log_det - lazy.log_det) <= 1e-8
    fresh = cholesky_logdet(L[np.ix_(res.selected, res.selected)])[0]
    assert abs(sum(res.gains) - fresh) <= 1e-8


def test_top_l_refine_falls_back_when_the_cut_prices_minus_inf():
    # item 4 is all zero, so its exact gain is -inf; a cut holding only item
    # 4 falls back on the best exact gain of any item, lazy's pick
    L = kernel(10, 3)
    L[4, :] = L[:, 4] = 0.0
    state, _ = _rows_and_factor(L, (1,))
    items = np.flatnonzero(state.remaining)
    estimates = np.where(items == 4, 10.0, 0.0)
    evals = state.exact_evals
    gain, best = top_l_refine(state, 1, items, estimates)
    lazy_pick = int(items[np.argmax(state.schur[items])])
    assert best == lazy_pick and gain == np.log(state.schur[lazy_pick])
    assert state.exact_evals - evals == 1 + items.size
    # with no items at all there is nothing to fall back on
    with pytest.raises(ValueError, match="nothing to refine"):
        top_l_refine(state, 1, items[:0], np.zeros(0))


def _spd_stack(rng, n, k):
    a = rng.standard_normal((n, k, k))
    return a @ a.transpose(0, 2, 1) + k * np.eye(k)


def test_stacked_logdet_matches_the_per_matrix_factor():
    rng = substream(0, "stacked-logdet")
    for k in (1, 3, 10):
        stack = _spd_stack(rng, 40, k)
        log_dets, factors = _logdet_pd_many(stack)
        for s, log_det, factor in zip(stack, log_dets, factors):
            ref, c = cholesky_logdet(s)
            assert abs(log_det - ref) <= 1e-12
            assert np.abs(factor - c.lower).max() <= 1e-12 * np.abs(c.lower).max()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(mask=st.lists(st.booleans(), min_size=1, max_size=12), k=st.integers(1, 6),
       seed=st.integers(0, 2**16))
def test_stacked_logdet_is_minus_inf_for_exactly_the_non_pd_members(mask, k, seed):
    rng = substream(seed, "stacked-logdet")
    stack = _spd_stack(rng, len(mask), k)
    for b in np.flatnonzero(mask):
        # one eigenvalue pushed below zero
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        lam = np.linalg.eigvalsh(stack[b])
        lam[rng.integers(k)] = -rng.uniform(0.1, 5.0)
        stack[b] = (q * lam) @ q.T
    log_dets, factors = _logdet_pd_many(stack)
    assert np.array_equal(np.isneginf(log_dets), np.array(mask))
    for b, log_det in enumerate(log_dets):
        ref = _logdet_or_minus_inf(stack[b])
        assert log_det == ref if mask[b] else abs(log_det - ref) <= 1e-12
    assert np.isfinite(factors).all()


def test_stacked_logdet_applies_the_pivot_floor():
    # both members are PD, but the second one's pivot at item 1 squares to
    # 1e-10, under sqrt(eps) times its diagonal
    stack = np.array([[[2.0, 1.0], [1.0, 2.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-10]]])
    floors = _PIVOT_FLOOR * np.diagonal(stack, axis1=1, axis2=2)
    assert np.isfinite(_logdet_pd_many(stack)[0]).all()
    log_dets, _ = _logdet_pd_many(stack, floors)
    assert abs(log_dets[0] - np.log(3.0)) <= 1e-15
    assert log_dets[1] == -np.inf


@settings(derandomize=True, deadline=None, max_examples=500)
@given(values=st.lists(st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf]),
                       min_size=1, max_size=60),
       ell=st.integers(1, 70))
def test_top_cut_is_the_stable_argsort_prefix(values, ell):
    v = np.array(values)
    assert np.array_equal(_top_cut(v, ell), np.argsort(-v, kind="stable")[:ell])
