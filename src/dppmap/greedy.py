"""Greedy MAP inference for determinantal point processes.

All solvers maximize log det of the kernel restricted to the selected set.
``exact_greedy`` (the textbook reference) scores every candidate each step
with a triangular solve against a maintained ``CholeskyFactor`` of L[X, X].
Every other solver keeps a ``RowState`` instead:
incremental factor rows of all items, one O(t·d) update per accepted item
(one (k x t)(t x d) product per accepted k-batch), each item's exact gain
the log of the Schur complement those rows already hold.

``lazy_greedy`` takes the argmax of those gains each step and selects the
same sequence as ``exact_greedy``; once the rows outgrow a cache it certifies
several of exact greedy's next picks at a time from a shortlist (Minoux's
accelerated-greedy bound: a complement never grows) and accepts them with
one row-block update.  ``batch_greedy`` (alg2) takes that block step at
every step with room for a batch, whatever the size of the rows, and adds
a pool of k-batches: it draws ``s`` batches from the 3k items of the rest
of the shortlist with the largest gains conditioned on the certified picks,
prices each exactly as the log det of its principal block of that
conditioned Schur complement, and accepts picks and best batch in one row
update when the batch gains more than any single item could after the
picks.  ``partitioned_greedy`` (alg1) prices every candidate by a
first-order expansion around a partition-averaged bordered kernel, in
closed form from the rows (``RowState.first_order``), re-scores the top
``ell`` exactly (``top_l_refine``) and accepts the best.  Once the rows are
kept an exact gain costs O(1) per candidate and an estimate O(t),
so alg1 pays lazy's row update plus two p-row products over the rows, taken
in one cache-blocked sweep, and cannot beat lazy; the paper's saving exists
only where the rows are not kept.  ``first_order_gains`` is the CG form of
the single-item estimate, one conjugate-gradient run per group, kept as the
reference the closed form is tested against.
Ties everywhere break toward the smallest item index (smallest batch).
"""
import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from ._rng import substream
from .linalg import (
    CholeskyFactor,
    _log_positive,
    _logdet_pd_many,
    border_average,
    bordered_inverse_columns,
    cholesky_logdet,
)

# Not called here: benchmark/tracing.py wraps these names in this module's
# namespace, so they must stay importable from it.
from .kernel import spectral_bounds  # noqa: F401
from .linalg import cg_solve  # noqa: F401
from .logdet import chebyshev_coefficients, rademacher_probes  # noqa: F401

__all__ = [
    "RowState",
    "SelectionResult",
    "balanced_partition",
    "brute_force_map",
    "exact_greedy",
    "lazy_greedy",
    "first_order_gains",
    "partitioned_greedy",
    "sample_batches",
    "batch_greedy",
    "top_l_refine",
]

ENUMERATION_LIMIT = 10**7


def balanced_partition(items, p, rng):
    """Randomly split ``items`` into a list of min(p, len) disjoint sorted
    groups of near-equal size."""
    items = np.asarray(items)
    n = items.size
    if n == 0:
        raise ValueError("cannot partition an empty candidate set")
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    p_eff = min(p, n)
    perm = rng.permutation(n)
    return [np.sort(items[perm[g::p_eff]]) for g in range(p_eff)]


@dataclass
class SelectionResult:
    """Outcome of one solver run, with enough counters to audit it."""

    algorithm: str
    selected: list
    gains: list
    log_det: float
    exact_evals: int = 0
    # No solver runs CG; these go with ROADMAP item 1's benchmark change.
    cg_solves: int = 0
    cg_converged: int = 0
    stop_reason: str = ""
    metrics: dict = field(default_factory=dict)

    @property
    def size(self):
        return len(self.selected)


def _result(state, algorithm, stop_reason, **metrics):
    """The ``SelectionResult`` of a ``RowState`` run."""
    return SelectionResult(
        algorithm=algorithm,
        selected=list(state.selected),
        gains=list(state.gains),
        log_det=state.log_det,
        exact_evals=state.exact_evals,
        stop_reason=stop_reason,
        metrics=metrics,
    )


_PIVOT_FLOOR = np.sqrt(np.finfo(float).eps)

# Bytes of R that ``RowState.first_order`` reads per block.  The block must
# stay in L2 between its two products, next to the p x d group indicators and
# partial sum, so that the second product reads it from cache.  On a core
# with 2 MiB of L2 (OpenBLAS, one thread), one first_order call at d=2000,
# t=400 took 1.30 ms unblocked, 0.81 / 0.72 / 0.72 ms with 256 KiB / 512 KiB /
# 1 MiB blocks and 1.37 ms with 2 MiB blocks; alg1 was fastest at 1 MiB.
_SWEEP_BYTES = 1 << 20
# Rows per block at least, so a very wide kernel is not swept row by row.
_SWEEP_MIN_ROWS = 8


class RowState:
    """Selection state kept as incremental Cholesky rows of every item.

    ``rows[:t]`` is R = T^-1 L[X, :] for the Cholesky factor T of L[X, X]
    (Chen, Zhang & Zhou 2018), and ``schur`` = diag(L) - colsum(R**2) holds
    every item's Schur complement against the selection, so an item's exact
    gain is the log of its complement and no factor of L[X, X] is kept.
    ``add`` appends one O(t·d) row and ``add_batch`` k rows at once, into a
    ``capacity`` x d buffer allocated once by ``np.zeros``: its pages are
    mapped on first write, so only the rows a run fills are touched.  Both
    keep one gain per accepted item and raise LinAlgError naming the item (or
    batch) and the step when the complement is not positive (definite).
    """

    def __init__(self, L, capacity):
        d = L.shape[0]
        self.L = L
        self.diag = np.diag(L)
        self.schur = self.diag.copy()
        self.rows = np.zeros((capacity, d))
        self.remaining = np.ones(d, dtype=bool)
        self.selected = []
        self.gains = []
        self.log_det = 0.0
        self.exact_evals = 0

    @property
    def size(self):
        return len(self.selected)

    def add(self, i):
        """Accept item ``i``; returns its gain, the log of its complement."""
        i = int(i)
        t = self.size
        s = self.schur[i]
        if not s > 0:
            raise np.linalg.LinAlgError(
                f"item {i} at step {len(self.gains)}: Schur complement {s:.3g} "
                f"against {t} selected items is not positive")
        rows = self.rows
        e = (self.L[i] - rows[:t, i] @ rows[:t]) / np.sqrt(s)
        rows[t] = e
        self.schur -= e * e
        g = float(np.log(s))
        self.selected.append(i)
        self.gains.append(g)
        self.log_det += g
        self.remaining[i] = False
        return g

    def add_batch(self, items):
        """Accept ``items`` jointly, in order; returns the joint gain log det S.

        S = L[B, B] - R_B^T R_B is the batch's Schur complement, C its
        Cholesky factor, and the k new rows are C^-1 (L[B, :] - R_B^T R): one
        (k x t)(t x d) product, the same rows, complements and log det as k
        calls to ``add``.  Each item's gain, 2 log C[j, j], is its gain
        conditioned on the items before it, so one gain is kept per item.
        """
        items = [int(i) for i in items]
        t = self.size
        R = self.rows[:t]
        rb = R[:, items]
        try:
            g, c = cholesky_logdet(self.L[np.ix_(items, items)] - rb.T @ rb)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"batch {items} at step {len(self.gains)}: Schur complement against "
                f"{t} selected items is not positive definite") from exc
        e = c.solve_lower(self.L[items] - rb.T @ R)
        self.rows[t : t + len(items)] = e
        self.schur -= np.einsum("kd,kd->d", e, e)
        self.selected.extend(items)
        self.gains.extend((2.0 * np.log(np.diag(c.lower))).tolist())
        self.log_det += g
        self.remaining[items] = False
        return g

    def shortlist(self, m):
        """The m remaining items of largest complement and their Schur complement.

        Returns (top, S, bound): ``top`` the min(m, remaining) remaining items
        with the largest ``schur``, in id order (ties at the cut go to the
        smaller id); S = L[top, top] - R[:, top]^T R[:, top], their complement
        against the selection; and ``bound``, the largest ``schur`` of the
        remaining items outside ``top`` (-inf when none is outside).  A
        complement never grows as the selection grows, so no item outside
        ``top`` gains more than log ``bound`` until the next shortlist.  Costs
        one partial sort of the remaining complements, a t x m gather and one
        (m x t)(t x m) product.
        """
        rest = np.flatnonzero(self.remaining)
        values = self.schur[rest]
        cut = _top_cut(values, m)
        outside = np.ones(rest.size, dtype=bool)
        outside[cut] = False
        top = np.sort(rest[cut])
        rt = self.rows[: self.size, top]
        return top, self.L[np.ix_(top, top)] - rt.T @ rt, float(values.max(
            where=outside, initial=-np.inf))

    def exact_gains(self, items):
        """Exact log gains of ``items``; -inf where the complement is not positive."""
        return _log_positive(self.schur[items])

    def first_order(self, groups):
        """``first_order_gains``' estimates in closed form from the rows.

        ``groups`` is a list of item arrays.  Returns (candidates, estimates)
        in ``first_order_gains``' order: groups in order, members as given.
        For group g let W be the mean of its rows R[:, g], c the mean of its
        diagonal and S = c - W·W, the Schur complement of the averaged
        bordered kernel.  Member i is priced
        log S + (L[i, i] - c)/S - 2(W·R[:, i] - W·W)/S, the value the CG path
        converges to; every member of a group with S <= 0 is priced -inf.
        With A the p x d matrix of 1/|g| group indicators, W^T = A R^T and
        the cross terms are rows of W^T R.  Both products are taken in one
        sweep over blocks of rows of R, ``_SWEEP_BYTES`` each: a block's
        columns of W^T, then its share of W^T R while the block is still in
        cache.  No column of R or L is gathered.
        """
        sizes = np.array([g.size for g in groups])
        cand = np.concatenate(groups)
        owner = np.repeat(np.arange(sizes.size), sizes)
        d = self.diag.size
        avg = np.zeros((sizes.size, d))
        avg[owner, cand] = 1.0 / sizes[owner]
        R = self.rows[: self.size]
        step = max(_SWEEP_MIN_ROWS, _SWEEP_BYTES // (8 * d))
        Wt = np.empty((sizes.size, R.shape[0]))
        P = np.zeros((sizes.size, d))
        for a in range(0, R.shape[0], step):
            block = R[a : a + step]
            w = Wt[:, a : a + step] = avg @ block.T
            P += w @ block
        ww = np.einsum("gt,gt->g", Wt, Wt)
        c = avg @ self.diag
        S = (c - ww)[owner]
        cross = P[owner, cand]
        est = np.full(cand.size, -np.inf)
        live = S > 0
        S = S[live]
        o = owner[live]
        est[live] = (np.log(S) + (self.diag[cand[live]] - c[o]) / S
                     - 2.0 * (cross[live] - ww[o]) / S)
        return cand, est


def _check_budget(budget, d):
    if budget is None:
        return d
    budget = int(budget)
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    return min(budget, d)


def brute_force_map(L, budget):
    """Exact MAP over all subsets of size <= budget by enumeration.

    Subsets are scored by ``slogdet``.  One that would become the best counts
    only when its Cholesky factor exists, since a positive determinant alone
    admits indefinite subsets of an indefinite kernel; the winner's per-item
    gains, 2 log of its factor's diagonal, come from that factor.  Ties go to
    the set found first in size-then-lexicographic order (so the empty set
    beats any zero-gain singleton).  Refuses enumerations larger than ten
    million subsets.
    """
    L = np.asarray(L, dtype=float)
    d = L.shape[0]
    budget = _check_budget(budget, d)
    total = sum(comb(d, j) for j in range(budget + 1))
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration of {total} subsets exceeds the limit {ENUMERATION_LIMIT}"
        )
    best_ld, best, best_gains = 0.0, (), []  # the empty set
    evals = 0
    for size in range(1, budget + 1):
        for combo in itertools.combinations(range(d), size):
            sub = L[np.ix_(combo, combo)]
            sign, ld = np.linalg.slogdet(sub)
            evals += 1
            if sign > 0 and ld > best_ld:
                try:
                    fac = cholesky_logdet(sub)[1]
                except np.linalg.LinAlgError:
                    continue
                best_ld, best = ld, combo
                best_gains = (2.0 * np.log(np.diag(fac.lower))).tolist()
    return SelectionResult(
        algorithm="brute",
        selected=list(best),
        gains=best_gains,
        log_det=float(best_ld),
        exact_evals=evals,
        stop_reason="enumerated",
    )


def exact_greedy(L, budget=None):
    """Plain greedy: every iteration scores all remaining candidates exactly.

    The textbook reference, with no state beyond the Cholesky factor T of
    L[X, X]: each step prices every remaining item i as
    log(L[i, i] - |T^-1 L[X, i]|^2), one triangular solve of the selection's
    kernel rows against the remaining columns (``gain_many``), and appends
    the winner to T with its column of that solve (``extend``).  The kernel
    rows L[X, :] are copied into a buffer as items are picked, so a step
    gathers its right-hand side from t contiguous rows.
    """
    L = np.asarray(L, dtype=float)
    d = L.shape[0]
    cap = _check_budget(budget, d)
    factor = CholeskyFactor(cap)
    krows = np.empty((cap, d))  # L[X, :], one row per selected item
    diag = np.diag(L)
    remaining = np.ones(d, dtype=bool)
    selected = []
    gains = []
    evals = 0
    stop = "budget" if budget is not None else "exhausted"
    while len(selected) < cap:  # cap <= d, so items remain
        t = len(selected)
        rest = np.flatnonzero(remaining)
        borders = krows[:t].take(rest, axis=1)
        cand = factor.gain_many(borders, diag[rest])
        evals += int(rest.size)
        j = int(np.argmax(cand))  # first maximum = smallest index
        if not cand[j] > 0:
            stop = "nonpositive-gain"
            break
        i = int(rest[j])
        gains.append(factor.extend(borders[:, j], float(L[i, i])))
        krows[t] = L[i]
        selected.append(i)
        remaining[i] = False
    return SelectionResult(algorithm="exact", selected=selected, gains=gains,
                           log_det=factor.log_det, exact_evals=evals, stop_reason=stop)


# alg2 draws its batches from the 3k items of largest gain in the rest of
# the block shortlist, conditioned on the certified prefix.  Median log-det
# ratios against lazy for cuts of 2k / 3k / 4k items (k = 10, one pool per
# step with room for a batch) were 0.9998 / 0.9994 / 0.9996 on five d=2000
# natural kernels and 0.9984 / 0.9973 / 0.9969 on twenty d=500 kernels with
# 64 features at budget 30.
_SHORTLIST_PER_BATCH_ITEM = 3
# lazy certifies the next picks from the 96 items of largest gain, and only
# once the kept rows R (8·t·d bytes) outgrow 2 MiB, the L2 cache of the host
# these were chosen on: below that one row update is cheaper than the
# shortlist and its pivot loop.  alg2 takes the same shortlist, and the
# pool's cut inside it, at every step with room for a batch.  On the
# benchmark's seed-0 kernels (one OpenBLAS thread), lazy's median on
# natural-d2000 was 101 / 88 / 86-89 ms for shortlists of 32 / 64 / 96 items
# and within 3% across 0.5, 1 and 2 MiB; on wide-d8000 it was 49-50 / 44-45 /
# 42-44 ms; requests-d500 never reaches the threshold.
_BLOCK_SHORTLIST = 96
_BLOCK_BYTES = 2 << 20


def _row_greedy(algorithm, L, budget, k=None, s=None, seed=0):
    """The selection loop of lazy and, with a k-batch pool, alg2.

    Each step takes the remaining item of largest complement (the smallest
    id on ties) and stops when its gain is not positive.  The block step
    runs once the kept rows fill ``_BLOCK_BYTES`` and, with ``k`` set
    (alg2), at every step with room for a k-batch in the budget: it
    certifies a prefix of exact greedy's next picks from
    ``RowState.shortlist`` of ``_BLOCK_SHORTLIST`` items
    (``_certified_picks``), and alg2 then draws a pool of ``s`` k-batches
    (``_best_batch``) from the rest of that shortlist, conditioned on the
    prefix.  Prefix and batch are accepted by one ``add_batch``, in that
    order, when they hold two or more items or a batch; otherwise the step
    takes the single item.  The pool is skipped where a batch would
    overshoot the budget, and so while fewer than k items are left; alg2
    then steps exactly as lazy does.  ``metrics`` counts
    ``certified_blocks``, the updates that accepted a prefix, and their
    ``certified_items``; ``batch_steps``, the updates that accepted a batch
    (always 0 for lazy); and ``single_steps``, so
    k·batch_steps + single_steps + certified_items is the size.
    """
    L = np.asarray(L, dtype=float)
    d = L.shape[0]
    cap = _check_budget(budget, d)
    state = RowState(L, cap)
    schur = state.schur
    rng = None if k is None else substream(seed, "batches")
    batch_steps = single_steps = blocks = block_items = 0
    stop = "budget" if budget is not None else "exhausted"
    while state.size < cap:  # cap <= d, so items remain
        rest = np.flatnonzero(state.remaining)
        state.exact_evals += int(rest.size)
        i = int(rest[np.argmax(schur[rest])])  # first maximum = smallest index
        if not schur[i] > 1.0:  # log gain <= 0
            stop = "nonpositive-gain"
            break
        t = state.size
        if 8 * t * d >= _BLOCK_BYTES or (k is not None and t + k <= cap):
            top, S, bound = state.shortlist(_BLOCK_SHORTLIST)
            picks, cols, left = _certified_picks(S, bound, cap - t)
            batch = []
            if k is not None and t + len(picks) + k <= cap:
                batch = _best_batch(state, top, S, cols, left, bound, k, s, rng)
            if len(picks) > 1 or len(batch):
                state.add_batch(np.concatenate([top[picks], batch]))
                blocks += bool(picks)
                block_items += len(picks)
                batch_steps += bool(len(batch))
                continue
        state.add(i)
        single_steps += 1
    return _result(state, algorithm, stop, batch_steps=batch_steps, single_steps=single_steps,
                   certified_blocks=blocks, certified_items=block_items)


def _best_batch(state, top, S, cols, left, bound, k, s, rng):
    """The pool step of alg2: the best of ``s`` k-batches, or no item.

    ``top``, ``S`` and ``bound`` are ``RowState.shortlist``'s; ``cols`` and
    ``left`` are ``_certified_picks``' on them: the prefix's columns of S's
    factor (none when nothing is certified) and the shortlist's complements
    conditioned on the prefix, -inf at its picks.  The batches are drawn by
    ``sample_batches`` from the 3k items outside the prefix of largest
    ``left`` and priced exactly, as log dets of their principal blocks of S
    conditioned on the prefix, all s by one stacked Cholesky.  A batch is
    priced -inf where its pivot at item j is not above sqrt(eps) L[j, j]: the
    subtraction has then cancelled over half the digits of j's complement,
    which is rounding noise when j depends on the rest of the batch and the
    selection.  Returns the items of the best batch, the lexicographically
    smallest on ties, when it gains more than any single item could after the
    prefix, log max(``left``, ``bound``, 1), and an empty array otherwise.
    ``sample_batches`` is looked up in this module at call time, where
    benchmark/tracing.py swaps in a timed wrapper.
    """
    cand = np.flatnonzero(left > -np.inf)
    if cand.size < k:
        return cand[:0]
    if cand.size > _SHORTLIST_PER_BATCH_ITEM * k:
        cand = cand[np.sort(_top_cut(left[cand], _SHORTLIST_PER_BATCH_ITEM * k))]
    cc = cols[:, cand]
    S = S[np.ix_(cand, cand)] - cc.T @ cc
    top = top[cand]
    pos = sample_batches(np.arange(top.size), k, s, rng)
    gains = _logdet_pd_many(S[pos[:, :, None], pos[:, None, :]],
                            _PIVOT_FLOOR * state.diag[top[pos]])[0]
    state.exact_evals += s
    best = gains.max()
    # no single item gains more than this after the prefix
    if not best > np.log(max(left.max(), bound, 1.0)):
        return cand[:0]
    return top[list(min(map(tuple, pos[gains == best].tolist())))]


def _certified_picks(S, bound, room):
    """Exact greedy's next picks, at most ``room``, certified from a shortlist.

    ``S`` and ``bound`` are ``RowState.shortlist``'s.  Greedy pivoted
    Cholesky on S: each pivot is the item of largest conditional complement
    (the smallest id on ties), kept while that complement is above both 1 (a
    positive log gain) and ``bound``.  No item outside the shortlist can then
    gain as much, so each kept pivot is the item exact greedy would pick
    next.  Returns (picks, cols, left): the kept pivots' positions in the
    shortlist, in pick order; their columns of S's factor, one row each; and
    the shortlist's complements conditioned on them, -inf at the picks.
    """
    floor = max(bound, 1.0)
    n = min(room, S.shape[0])
    left = np.diag(S).copy()  # conditional complements of the shortlist
    cols = np.empty((n, S.shape[0]))  # row q: pivot q's column of S's factor
    picks = []
    for q in range(n):
        j = int(np.argmax(left))  # the shortlist is in id order: ties go to the smaller id
        c = left[j]
        if not c > floor:
            break
        cols[q] = (S[j] - cols[:q, j] @ cols[:q]) / np.sqrt(c)
        left -= cols[q] * cols[q]
        left[j] = -np.inf
        picks.append(j)
    return picks, cols[: len(picks)], left


def lazy_greedy(L, budget=None):
    """Exact greedy over incremental Cholesky rows (Chen, Zhang & Zhou 2018).

    Keeps every item's row of the factor and its Schur complement in a
    ``RowState``, so each step is an argmax over the complements and one
    O(t·d) row update; no candidate is solved for.  Once the rows hold
    ``_BLOCK_BYTES`` (2 MiB), a step instead certifies a prefix of the next
    picks from the shortlist of the ``_BLOCK_SHORTLIST`` items of largest
    complement: greedy pivoted Cholesky on their Schur complement, kept while
    a pick's conditional complement exceeds 1 and every complement outside
    the shortlist (Minoux 1978), and accepts the prefix with one
    (p x t)(t x d) row-block update.  Selects the same sequence and stops for
    the same reason as ``exact_greedy``.  ``metrics`` counts
    ``certified_blocks``, the ``certified_items`` they accepted and the
    ``single_steps`` (``batch_steps`` is 0; see ``_row_greedy``); a block
    step adds the remaining items to ``exact_evals`` once, like a single
    step.
    """
    return _row_greedy("lazy", L, budget)


def sample_batches(remaining, k, s, rng):
    """Draw ``s`` independent uniform k-subsets of ``remaining`` (rows sorted).

    Floyd's algorithm (Bentley & Floyd, CACM 1987), run on all ``s`` batches
    at once: round m = 0, ..., k-1 draws one position x in [0, j], j = r-k+m,
    per batch and keeps x, or j when x is already in the batch.  It makes
    s·k integer draws, whatever the number r of remaining items, and costs
    O(s·k²) time for the membership tests.
    """
    ids = np.asarray(remaining)
    r = ids.size
    if k < 1 or k > r:
        raise ValueError(f"batch size {k} not in [1, {r}]")
    if s < 1:
        raise ValueError(f"batch count must be positive, got {s}")
    pos = rng.integers(0, np.arange(r - k + 1, r + 1)[:, None], size=(k, s))
    for m in range(1, k):
        x = pos[m]  # a view: round m's positions are resolved in place
        x[(pos[:m] == x).any(axis=0)] = r - k + m
    return np.sort(ids[pos.T], axis=1)


def first_order_gains(state, groups, tol=1e-10, max_iter=30):
    """CG form of ``RowState.first_order``, kept as its reference.

    For each group of ``groups`` (a list of item arrays) the candidates'
    bordered kernels are averaged; the gain of member i is the inner product
    of its deviation from the average with the average's last inverse
    column, plus the exact Schur log-gain of the
    average itself, log(c - W·W) with W the mean of the group's rows and c
    the mean of its diagonal.  Each group with a positive averaged Schur
    complement costs one ``bordered_inverse_columns`` run; every member of a
    group whose complement is nonpositive, or whose CG run breaks down, is
    priced -inf.  Returns (candidates, estimates, reports): candidates in
    ``RowState.first_order``'s order and one ``CgReport`` per CG run.
    """
    L = state.L
    sel = state.selected
    R = state.rows[: state.size]
    est = []
    reports = []
    for g in groups:
        est.append(np.full(g.size, -np.inf))
        bk = border_average(L, sel, g)
        w = R[:, g].mean(axis=1)
        s = bk.corner - w @ w
        if not s > 0:
            continue
        try:
            z, rep = bordered_inverse_columns(bk, tol=tol, max_iter=max_iter)
        except np.linalg.LinAlgError:
            continue
        reports.append(rep)
        db = L[np.ix_(sel, g)] - bk.border[:, None]
        est[-1] = 2.0 * (z[:-1] @ db) + z[-1] * (state.diag[g] - bk.corner) + np.log(s)
    return np.concatenate(groups), np.concatenate(est), reports


def _top_cut(values, ell):
    """``np.argsort(-values, kind="stable")[:ell]`` by a partial sort.

    Everything strictly above the ell-th largest value, in stable descending
    order, then the items tied at that value in index order.  ``values`` holds
    no NaN.
    """
    if ell >= values.size:
        return np.argsort(-values, kind="stable")
    neg = -values
    kth = np.partition(neg, ell - 1)[ell - 1]
    above = np.flatnonzero(neg < kth)
    above = above[np.argsort(neg[above], kind="stable")]
    return np.concatenate([above, np.flatnonzero(neg == kth)[: ell - above.size]])


def top_l_refine(state, ell, items, estimates):
    """Exactly re-score the ``ell`` highest estimates; returns (gain, winner).

    ``items`` are item ids priced ``estimates``.  The cut keeps the ``ell``
    highest estimates, ties in item order, taken by a partial sort; the kept
    items are scored from the complements.  The winner has the highest exact
    gain, the smallest item on ties.  When every gain in the cut is -inf the
    winner is the item of ``items`` with the highest exact gain, so a cut of
    dependent candidates does not end the run while other items still gain.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    items = np.asarray(items, dtype=np.intp)
    if items.size == 0:
        raise ValueError("nothing to refine: no items")
    singles = items[_top_cut(estimates, ell)]
    state.exact_evals += int(singles.size)
    gains = state.exact_gains(singles)
    if gains.max() == -np.inf:
        state.exact_evals += int(items.size)
        singles = items
        gains = state.exact_gains(items)
    best = gains.max()
    return float(best), int(singles[gains == best].min())


def partitioned_greedy(L, budget=None, p=5, ell=20, seed=0):
    """Greedy selection driven by partition-averaged first-order gains.

    Each iteration partitions the remaining candidates into p random balanced
    groups, prices every candidate by linearizing around its group's averaged
    bordered kernel (``RowState.first_order``, in closed form from the kept
    factor rows), exactly re-scores the top ``ell`` estimates, and accepts the
    best; ties go to the smallest item index.  Stops when the accepted
    candidate's exact gain is not positive, at the budget, or when candidates
    run out.  Every item's exact gain is held anyway, so
    ``metrics["epsilon_hat"]`` reports the worst estimate error seen.
    ``balanced_partition`` and ``top_l_refine`` are looked up in this module
    at call time, where benchmark/tracing.py swaps in timed wrappers.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    L = np.asarray(L, dtype=float)
    cap = _check_budget(budget, L.shape[0])
    state = RowState(L, cap)
    rng = substream(seed, "partitions")
    eps_hat = 0.0
    stop = "budget" if budget is not None else "exhausted"
    while state.size < cap:  # cap <= d, so items remain
        rest = np.flatnonzero(state.remaining)
        cand, est = state.first_order(balanced_partition(rest, p, rng))
        exact = state.exact_gains(cand)
        seen = np.isfinite(est) & np.isfinite(exact)
        if seen.any():
            eps_hat = max(eps_hat, float(np.abs(est[seen] - exact[seen]).max()))
        gain, best = top_l_refine(state, ell, cand, est)
        if not gain > 0:
            stop = "nonpositive-gain"
            break
        state.add(best)
    return _result(state, "alg1", stop, epsilon_hat=eps_hat)


def batch_greedy(L, budget=None, k=10, s=50, seed=0):
    """Stochastic batch greedy on the shortlist, with exactly priced batches.

    Every step with room for a k-batch is ``lazy_greedy``'s block step plus
    a pool: from lazy's shortlist of the ``_BLOCK_SHORTLIST`` items of
    largest gain it takes the certified prefix of exact greedy's next picks,
    draws ``s`` k-batches uniformly from the 3k items of the rest of the
    shortlist with the largest gains conditioned on the prefix, and prices
    them by their exact joint gains, conditioned on the prefix, from the
    kept rows.  The best batch is appended to the prefix in the same row
    update when it gains more than any single item could after the prefix,
    so late steps fall back to lazy's picks when whole batches stop paying.
    This departs from Han et al. (ICML 2017), who draw batches from all
    remaining items and price them by a first-order estimate.  While fewer
    than k items are left or a batch would overshoot the budget, it steps
    exactly as lazy does.  Stops as lazy does.  ``metrics`` counts
    ``batch_steps``, ``single_steps``, ``certified_blocks`` and
    ``certified_items`` (see ``_row_greedy``); ``gains`` holds one
    conditional gain per item.
    """
    if k < 1 or s < 1:
        raise ValueError(f"batch size and count must be positive, got k={k}, s={s}")
    return _row_greedy("alg2", L, budget, k=k, s=s, seed=seed)
