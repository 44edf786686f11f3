"""Greedy MAP inference for determinantal point processes.

All solvers maximize log det of the kernel restricted to the selected set.
``exact_greedy`` (the textbook reference) scores every candidate each step
with a triangular solve against a maintained Cholesky factor
(``GreedyState``).  Every other solver keeps a ``RowState`` instead:
incremental factor rows of all items, one O(t·d) update per accepted item
(one (k x t)(t x d) product per accepted k-batch), each item's exact gain
the log of the Schur complement those rows already hold.  ``lazy_greedy``
takes the argmax of those gains and selects the same sequence as
``exact_greedy``.  ``partitioned_greedy`` prices candidates by a first-order
expansion around a partition-averaged bordered kernel; from the rows that
estimate comes in closed form from two products, with no CG, and
``top_l_refine`` re-scores the top ``ell`` from the kept complements.  Once
the rows are kept an exact gain costs O(1) per candidate and an estimate
O(t), so alg1 pays lazy's row update plus 2p passes over the rows and cannot
beat lazy; the paper's saving exists only where the rows are not kept.
``batch_greedy`` extends the expansion to k-item batches: from the rows each
group's averaged bordered kernel has a k x k Schur complement, and one
Cholesky of it gives both the log-determinant term and the inverse the
linear term needs.  Its single-item pool is alg1's closed form, and
``top_l_refine`` scores its batches from the rows too.
``first_order_gains`` is the CG form of the single-item estimate, kept as
the reference the closed form is tested against.
Ties everywhere break toward the smallest item index (smallest batch).
"""

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf

from ._rng import substream
from .linalg import CholeskyFactor, border_average, bordered_inverse_columns

# Not called here: benchmark/tracing.py wraps these names in this module's
# namespace, so they must stay importable from it.
from .kernel import spectral_bounds  # noqa: F401
from .linalg import cg_solve  # noqa: F401
from .logdet import chebyshev_coefficients, rademacher_probes  # noqa: F401

__all__ = [
    "GreedyState",
    "RowState",
    "Partition",
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


@dataclass
class Partition:
    """Disjoint balanced groups over candidate items or batch slots."""

    groups: list


def balanced_partition(items, p, rng):
    """Randomly split ``items`` into min(p, len) groups of near-equal size."""
    items = np.asarray(items)
    n = items.size
    if n == 0:
        raise ValueError("cannot partition an empty candidate set")
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    p_eff = min(p, n)
    perm = rng.permutation(n)
    groups = [np.sort(items[perm[g::p_eff]]) for g in range(p_eff)]
    return Partition(groups=groups)


@dataclass
class SelectionResult:
    """Outcome of one solver run, with enough counters to audit it."""

    algorithm: str
    selected: list
    gains: list
    log_det: float
    exact_evals: int = 0
    cg_iters: int = 0
    cg_solves: int = 0
    cg_converged: int = 0
    stop_reason: str = ""
    metrics: dict = field(default_factory=dict)

    @property
    def size(self):
        return len(self.selected)


class GreedyState:
    """``exact_greedy``'s reference state: order, factor, log det, remaining mask."""

    def __init__(self, L, capacity=None):
        d = L.shape[0]
        cap = d if capacity is None else min(int(capacity), d)
        self.L = L
        self.selected = []
        self.remaining = np.ones(d, dtype=bool)
        self.factor = CholeskyFactor(cap)
        self.gains = []
        self.exact_evals = 0

    @property
    def size(self):
        return len(self.selected)

    @property
    def log_det(self):
        return self.factor.log_det

    def remaining_indices(self):
        return np.flatnonzero(self.remaining)

    def add(self, i, border=None):
        """Accept item ``i``; returns the exact extension gain."""
        i = int(i)
        if border is None:
            border = self.L[self.selected, i] if self.size else None
        g = self.factor.extend(border, float(self.L[i, i]))
        self.selected.append(i)
        self.remaining[i] = False
        self.gains.append(g)
        return g

    def result(self, algorithm, stop_reason, **metrics):
        return SelectionResult(
            algorithm=algorithm,
            selected=list(self.selected),
            gains=list(self.gains),
            log_det=self.log_det,
            exact_evals=self.exact_evals,
            stop_reason=stop_reason,
            metrics=metrics,
        )


def _logdet_pd(s):
    """(log det, lower Cholesky factor) of a small matrix; (-inf, None) if not PD."""
    c, info = dpotrf(s, lower=1)
    if info != 0:
        return -np.inf, None
    return float(2.0 * np.sum(np.log(np.diag(c)))), c


class RowState:
    """Selection state kept as incremental Cholesky rows of every item.

    ``rows[:t]`` is R = T^-1 L[X, :] for the Cholesky factor T of L[X, X]
    (Chen, Zhang & Zhou 2018), and ``schur`` = diag(L) - colsum(R**2) holds
    every item's Schur complement against the selection, so an item's exact
    gain is the log of its complement and no factor of L[X, X] is kept.
    ``add`` appends one O(t·d) row and ``add_batch`` k rows at once; the row
    buffer grows by doubling from 256 rows up to ``capacity``.  Both raise
    LinAlgError naming the item (or batch) and the step when the complement
    is not positive (definite).  The conjugate-gradient columns that
    ``first_order_gains`` runs against the selection are counted here too.
    """

    def __init__(self, L, capacity):
        d = L.shape[0]
        self.L = L
        self.diag = np.diag(L)
        self.schur = self.diag.copy()
        self.rows = np.zeros((min(capacity, 256), d))
        self._cap = capacity
        self.remaining = np.ones(d, dtype=bool)
        self.selected = []
        self.gains = []
        self.log_det = 0.0
        self.exact_evals = 0
        self.cg_iters = 0
        self.cg_solves = 0
        self.cg_converged = 0

    @property
    def size(self):
        return len(self.selected)

    def _grow(self, need):
        have = self.rows.shape[0]
        if need > have:
            grown = np.zeros((min(self._cap, max(need, 2 * have)), self.rows.shape[1]))
            grown[:have] = self.rows
            self.rows = grown

    def add(self, i):
        """Accept item ``i``; returns its gain, the log of its complement."""
        i = int(i)
        t = self.size
        s = self.schur[i]
        if not s > 0:
            raise np.linalg.LinAlgError(
                f"item {i} at step {len(self.gains)}: Schur complement {s:.3g} "
                f"against {t} selected items is not positive")
        self._grow(t + 1)
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
        """Accept ``items`` jointly; returns the joint gain log det S.

        S = L[B, B] - R_B^T R_B is the batch's Schur complement, C its
        Cholesky factor, and the k new rows are C^-1 (L[B, :] - R_B^T R): one
        (k x t)(t x d) product, the same rows, complements and log det as k
        calls to ``add``.
        """
        items = [int(i) for i in items]
        t = self.size
        R = self.rows[:t]
        rb = R[:, items]
        g, c = _logdet_pd(self.L[np.ix_(items, items)] - rb.T @ rb)
        if c is None:
            raise np.linalg.LinAlgError(
                f"batch {items} at step {len(self.gains)}: Schur complement against "
                f"{t} selected items is not positive definite")
        self._grow(t + len(items))
        e = solve_triangular(c, self.L[items] - rb.T @ R, lower=True, check_finite=False)
        self.rows[t : t + len(items)] = e
        self.schur -= np.einsum("kd,kd->d", e, e)
        self.selected.extend(items)
        self.gains.append(g)
        self.log_det += g
        self.remaining[items] = False
        return g

    def batch_gains(self, batches):
        """Joint gains log det(L[B, B] - R_B^T R_B) of the rows B of ``batches``.

        -inf where that Schur complement is not positive definite, or where
        the pivot of its Cholesky factor at item j is below sqrt(eps) L[j, j]:
        the subtraction has then cancelled over half the digits of j's
        complement, which is rounding noise when j depends on the rest of the
        batch and the selection, and the joint gain would count log(noise).
        """
        batches = np.asarray(batches, dtype=np.intp)
        rb = self.rows[: self.size][:, batches]  # (t, nb, k)
        schurs = (self.L[batches[:, :, None], batches[:, None, :]]
                  - np.einsum("tbi,tbj->bij", rb, rb))
        floors = np.sqrt(np.finfo(float).eps) * self.diag[batches]
        out = np.full(batches.shape[0], -np.inf)
        for b, s in enumerate(schurs):
            log_det, factor = _logdet_pd(s)
            if factor is not None and (np.diag(factor) ** 2 > floors[b]).all():
                out[b] = log_det
        return out

    def batch_first_order(self, batches, partition):
        """The k-column form of ``first_order``: first-order batch estimates.

        ``batches`` is an (s, k) array of item batches and ``partition`` groups
        its row indices.  Returns (pool, estimates): the batches in pool order
        (groups in order) and their estimates.  For a group let W be the
        slot-wise mean of its R_B = R[:, B] (t x k), C the symmetrized mean of
        its L[B, B] and S = C - W^T W, the Schur complement of the averaged
        bordered kernel.  Batch B is priced

            log det S + tr(S^-1 (L[B, B] - C)) - 2 tr(S^-1 W^T (R_B - W)),

        the linearization of log det around the averaged kernel, from one
        k x k Cholesky per group; a group whose S is not positive definite
        is priced -inf.
        """
        groups = partition.groups
        pool = batches[np.concatenate(groups)]
        rb = self.rows[: self.size][:, pool]  # (t, s, k)
        corners = self.L[pool[:, :, None], pool[:, None, :]]
        est = np.full(pool.shape[0], -np.inf)
        start = 0
        for g in groups:
            span = slice(start, start + g.size)
            start += g.size
            w = rb[:, span].mean(axis=1)
            c = corners[span].mean(axis=0)
            c = (c + c.T) / 2.0
            log_det, factor = _logdet_pd(c - w.T @ w)
            if factor is None:
                continue
            inv = cho_solve((factor, True), np.eye(c.shape[0]), check_finite=False)
            v = w @ inv
            est[span] = (log_det + np.einsum("ij,bij->b", inv, corners[span] - c)
                         - 2.0 * (np.einsum("tj,tbj->b", v, rb[:, span]) - np.sum(v * w)))
        return pool, est

    def record_cg(self, report):
        cols = report.col_iterations
        self.cg_solves += int(cols.size)
        self.cg_iters += int(cols.sum())
        self.cg_converged += int(report.col_converged.sum())

    def exact_gains(self, items):
        """Exact log gains of ``items``; -inf where the complement is not positive."""
        s = self.schur[items]
        out = np.full(s.shape, -np.inf)
        pos = s > 0
        out[pos] = np.log(s[pos])
        return out

    def first_order(self, partition):
        """``first_order_gains``' estimates in closed form from the rows.

        Returns (candidates, estimates) in ``first_order_gains``' order: groups
        in order, members sorted.  For group g let W be the mean of its rows
        R[:, g], c the mean of its diagonal and S = c - W·W, the Schur
        complement of the averaged bordered kernel.  Member i is priced
        log S + (L[i, i] - c)/S - 2(W·R[:, i] - W·W)/S, the value the CG path
        converges to; every member of a group with S <= 0 is priced -inf.
        W is R times the d x p matrix of 1/|g| group indicators and W^T R a
        second product, so no column of R or L is gathered.
        """
        groups = partition.groups
        sizes = np.array([g.size for g in groups])
        cand = np.concatenate(groups)
        owner = np.repeat(np.arange(sizes.size), sizes)
        avg = np.zeros((self.diag.size, sizes.size))
        avg[cand, owner] = 1.0 / sizes[owner]
        R = self.rows[: self.size]
        W = R @ avg
        ww = np.einsum("tg,tg->g", W, W)
        c = self.diag @ avg
        S = (c - ww)[owner]
        cross = (W.T @ R)[owner, cand]
        est = np.full(cand.size, -np.inf)
        live = S > 0
        S = S[live]
        o = owner[live]
        est[live] = (np.log(S) + (self.diag[cand[live]] - c[o]) / S
                     - 2.0 * (cross[live] - ww[o]) / S)
        return cand, est

    def result(self, algorithm, stop_reason, **metrics):
        return SelectionResult(
            algorithm=algorithm,
            selected=list(self.selected),
            gains=list(self.gains),
            log_det=self.log_det,
            exact_evals=self.exact_evals,
            cg_iters=self.cg_iters,
            cg_solves=self.cg_solves,
            cg_converged=self.cg_converged,
            stop_reason=stop_reason,
            metrics=metrics,
        )


def _check_budget(budget, d):
    if budget is None:
        return d
    budget = int(budget)
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    return min(budget, d)


def brute_force_map(L, budget):
    """Exact MAP over all subsets of size <= budget by enumeration.

    Ties go to the set found first in size-then-lexicographic order (so the
    empty set beats any zero-gain singleton).  Refuses enumerations larger
    than ten million subsets.
    """
    L = np.asarray(L, dtype=float)
    d = L.shape[0]
    budget = _check_budget(budget, d)
    total = sum(comb(d, j) for j in range(budget + 1))
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration of {total} subsets exceeds the limit {ENUMERATION_LIMIT}"
        )
    best_ld = 0.0  # empty set
    best = ()
    evals = 0
    for size in range(1, budget + 1):
        for combo in itertools.combinations(range(d), size):
            sign, ld = np.linalg.slogdet(L[np.ix_(combo, combo)])
            evals += 1
            if sign > 0 and ld > best_ld:
                best_ld, best = ld, combo
    return SelectionResult(
        algorithm="brute",
        selected=list(best),
        gains=[],
        log_det=float(best_ld),
        exact_evals=evals,
        stop_reason="enumerated",
    )


def exact_greedy(L, budget=None):
    """Plain greedy: every iteration scores all remaining candidates exactly."""
    L = np.asarray(L, dtype=float)
    d = L.shape[0]
    cap = _check_budget(budget, d)
    state = GreedyState(L, capacity=cap)
    diag = np.diag(L)
    stop = "budget" if budget is not None else "exhausted"
    while state.size < cap:
        rest = state.remaining_indices()
        if rest.size == 0:
            stop = "exhausted"
            break
        borders = L[np.ix_(state.selected, rest)]
        gains = state.factor.gain_many(borders, diag[rest])
        state.exact_evals += int(rest.size)
        j = int(np.argmax(gains))  # first maximum = smallest index
        if not gains[j] > 0:
            stop = "nonpositive-gain"
            break
        state.add(int(rest[j]), border=borders[:, j] if state.size else None)
    return state.result("exact", stop)


def lazy_greedy(L, budget=None):
    """Exact greedy over incremental Cholesky rows (Chen, Zhang & Zhou 2018).

    Keeps every item's row of the factor and its Schur complement in a
    ``RowState``, so each step is an argmax over the complements and one
    O(t·d) row update; no candidate is solved for.  Selects the same sequence
    as ``exact_greedy``.
    """
    L = np.asarray(L, dtype=float)
    cap = _check_budget(budget, L.shape[0])
    state = RowState(L, cap)
    schur = state.schur
    stop = "budget" if budget is not None else "exhausted"
    while state.size < cap:
        rest = np.flatnonzero(state.remaining)
        if rest.size == 0:
            stop = "exhausted"
            break
        state.exact_evals += int(rest.size)
        i = int(rest[np.argmax(schur[rest])])  # first maximum = smallest index
        if not schur[i] > 1.0:  # log gain <= 0
            stop = "nonpositive-gain"
            break
        state.add(i)
    return state.result("lazy", stop)


def sample_batches(remaining, k, s, rng):
    """Draw ``s`` independent uniform k-subsets of ``remaining`` (rows sorted)."""
    ids = np.asarray(remaining)
    r = ids.size
    if k < 1 or k > r:
        raise ValueError(f"batch size {k} not in [1, {r}]")
    if s < 1:
        raise ValueError(f"batch count must be positive, got {s}")
    u = rng.random((s, r))
    if k == r:
        pos = np.tile(np.arange(r), (s, 1))
    else:
        pos = np.argpartition(u, k - 1, axis=1)[:, :k]
    return np.sort(ids[pos], axis=1)


def _grouped_inverse_columns(kernels, tol, max_iter, state):
    """Lockstep border-column solves; a group that breaks down yields None."""
    try:
        z, rep = bordered_inverse_columns(
            kernels if len(kernels) > 1 else kernels[0], tol=tol, max_iter=max_iter
        )
        state.record_cg(rep)
        return z if len(kernels) > 1 else [z]
    except np.linalg.LinAlgError:
        out = []
        for bk in kernels:
            try:
                z, rep = bordered_inverse_columns(bk, tol=tol, max_iter=max_iter)
                state.record_cg(rep)
                out.append(z)
            except np.linalg.LinAlgError:
                out.append(None)
        return out


def first_order_gains(state, partition, tol=1e-10, max_iter=30):
    """CG form of ``RowState.first_order``, kept as its reference.

    For each group the candidates' bordered kernels are averaged; the gain of
    member i is the inner product of its deviation from the average with the
    average's last inverse column, plus the exact Schur log-gain of the
    average itself, log(c - W·W) with W the mean of the group's rows and c
    the mean of its diagonal.  A group whose averaged Schur complement is
    nonpositive is priced -inf for every member.  Each remaining group costs
    one CG run, for its inverse column, counted on ``state``.  Returns
    (candidates, estimates) in ``RowState.first_order``'s order.
    """
    L = state.L
    sel = state.selected
    t = state.size
    base = L[np.ix_(sel, sel)]
    R = state.rows[:t]
    groups = partition.groups
    blocks = [L[np.ix_(sel, g)] for g in groups]
    kernels = [border_average(L, sel, g, base=base, columns=blk)
               for g, blk in zip(groups, blocks)]
    w = np.stack([R[:, g].mean(axis=1) for g in groups], axis=1)
    s = np.array([bk.corner[0, 0] for bk in kernels]) - np.einsum("tg,tg->g", w, w)
    gammas = np.full(s.shape, -np.inf)
    live = np.flatnonzero(s > 0)
    gammas[live] = np.log(s[live])
    zs = [None] * len(kernels)
    if live.size:
        solved = _grouped_inverse_columns([kernels[j] for j in live], tol, max_iter, state)
        for j, z in zip(live, solved):
            zs[j] = z

    est = []
    for j, (g, blk, bk) in enumerate(zip(groups, blocks, kernels)):
        if zs[j] is None:
            est.append(np.full(g.size, -np.inf))
            continue
        db = blk - bk.border
        dc = state.diag[g] - bk.corner[0, 0]
        est.append(2.0 * (zs[j][:t, 0] @ db) + zs[j][t, 0] * dc + gammas[j])
    return np.concatenate(groups), np.concatenate(est)


def top_l_refine(state, ell, items, estimates, batches=None, batch_estimates=None):
    """Exactly re-score the ``ell`` highest estimates; returns (gain, winner).

    ``items`` are item ids priced ``estimates``; ``batches`` is an optional
    (s, k) array of item batches priced ``batch_estimates``.  The cut is a
    stable sort of the item estimates followed by the batch estimates, so
    singles go first on equal estimates.  Items are scored from the kept
    complements, batches by ``RowState.batch_gains``.  The winner has the
    highest exact gain; on ties a single beats a batch, then the smallest
    item wins, then the lexicographically smallest batch.  It is an item id,
    or a batch as a tuple of item ids.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    n = len(items)
    values = estimates if batches is None else np.concatenate([estimates, batch_estimates])
    top = np.argsort(-values, kind="stable")[:ell]
    state.exact_evals += int(top.size)
    singles = items[top[top < n]]
    gains = state.exact_gains(singles)
    best = gains.max(initial=-np.inf)
    if batches is not None and (top >= n).any():
        chosen = batches[top[top >= n] - n]
        batch_gains = state.batch_gains(chosen)
        if batch_gains.max() > best or not singles.size:
            best = batch_gains.max()
            return float(best), min(map(tuple, chosen[batch_gains == best].tolist()))
    return float(best), int(singles[gains == best].min())


def partitioned_greedy(L, budget=None, p=5, ell=20, seed=0):
    """Greedy selection driven by partition-averaged first-order gains.

    Each iteration partitions the remaining candidates into p random balanced
    groups, prices every candidate by linearizing around its group's averaged
    bordered kernel (``RowState.first_order``, in closed form from the kept
    factor rows), exactly re-scores the top ``ell`` estimates, and accepts the
    best; ties go to the smallest item index.  Stops when the accepted
    candidate's exact gain turns negative, at the budget, or when candidates
    run out.

    Every candidate's exact gain is held anyway, so ``metrics["epsilon_hat"]``
    reports the worst estimate error seen over the run.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    L = np.asarray(L, dtype=float)
    cap = _check_budget(budget, L.shape[0])
    state = RowState(L, cap)
    rng_part = substream(seed, "partitions")
    eps_hat = 0.0
    stop = "budget" if budget is not None else "exhausted"
    while state.size < cap:
        rest = np.flatnonzero(state.remaining)
        if rest.size == 0:
            stop = "exhausted"
            break
        cand, est = state.first_order(balanced_partition(rest, p, rng_part))
        exact = state.exact_gains(cand)
        seen = np.isfinite(est) & np.isfinite(exact)
        if seen.any():
            eps_hat = max(eps_hat, float(np.abs(est[seen] - exact[seen]).max()))
        gain, i = top_l_refine(state, ell, cand, est)
        if gain < 0:
            stop = "negative-gain"
            break
        state.add(i)
    return state.result("alg1", stop, epsilon_hat=eps_hat)


def batch_greedy(L, budget=None, p=5, k=10, s=50, ell=20, seed=0, batch_sampler=None):
    """Stochastic batch greedy with first-order pricing of sampled k-batches.

    Each iteration samples ``s`` candidate batches, partitions them into p
    groups, and prices every batch by linearizing log det around its group's
    averaged bordered kernel (``RowState.batch_first_order``, in closed form
    from the kept rows: one k x k Cholesky per group).  A single-item pool
    (``RowState.first_order``) runs alongside; the top ``ell`` estimates
    across both pools are re-scored exactly from the rows and the best
    accepted, so late iterations fall back to single items when whole batches
    stop paying.  The batch pool is skipped while fewer than k items are left
    or a batch would overshoot the budget.  ``batch_sampler`` overrides batch
    sampling (testing hook).
    """
    L = np.asarray(L, dtype=float)
    cap = _check_budget(budget, L.shape[0])
    state = RowState(L, cap)
    rng_part = substream(seed, "partitions")
    rng_batch = substream(seed, "batches")
    sampler = batch_sampler or sample_batches
    batch_steps = 0
    single_steps = 0
    stop = "budget" if budget is not None else "exhausted"
    while state.size < cap:
        rest = np.flatnonzero(state.remaining)
        if rest.size == 0:
            stop = "exhausted"
            break
        pool_b = est_b = None
        if rest.size >= k and state.size + k <= cap:
            batches = np.asarray(sampler(rest, k, s, rng_batch))
            part_b = balanced_partition(np.arange(batches.shape[0]), p, rng_part)
            pool_b, est_b = state.batch_first_order(batches, part_b)
        cand, est = state.first_order(balanced_partition(rest, p, rng_part))
        gain, best = top_l_refine(state, ell, cand, est, pool_b, est_b)
        if gain < 0:
            stop = "negative-gain"
            break
        if isinstance(best, tuple):
            state.add_batch(best)
            batch_steps += 1
        else:
            state.add(best)
            single_steps += 1
    return state.result("alg2", stop, batch_steps=batch_steps, single_steps=single_steps)
