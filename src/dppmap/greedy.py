"""Greedy MAP inference for determinantal point processes.

All solvers maximize log det of the kernel restricted to the selected set.
``exact_greedy`` (the textbook reference) scores every candidate each step
with a triangular solve against a maintained Cholesky factor;
``lazy_greedy`` selects the same sequence from incremental factor rows of
all items, one O(t·d) update per accepted item, and takes each gain from the
Schur complement those rows already hold.  ``partitioned_greedy`` replaces the
per-candidate solve with a first-order expansion around a partition-averaged
bordered kernel: CG gives the averaged kernel's inverse column, and the
maintained factor gives its Schur log-gain exactly.  ``batch_greedy`` extends
the same idea to k-item batches, with the averaged log-determinant term
supplied by the Chebyshev/Hutchinson estimator using probe vectors shared
across partitions.
Ties everywhere break toward the smallest item index (smallest batch id).
"""

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from ._rng import substream
from .kernel import spectral_bounds
from .linalg import (
    BorderedKernel,
    CholeskyFactor,
    _SharedBaseBordered,
    border_average,
    bordered_inverse_columns,
    cg_solve,  # noqa: F401  not called here; benchmark/tracing.py wraps this name
)
from .logdet import (
    _recurrence_quadratic_forms,
    _scale_and_delta,
    chebyshev_coefficients,
    rademacher_probes,
)

__all__ = [
    "GreedyState",
    "Partition",
    "GainEstimate",
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
class GainEstimate:
    """A candidate (item index or batch tuple) with an estimated or exact gain."""

    candidate: object
    value: float
    kind: str  # "first-order" | "batch" | "exact"
    group: int = -1

    @property
    def is_batch(self):
        return isinstance(self.candidate, tuple)

    def sort_key(self):
        # descending value, then singles before batches, then smallest id
        cid = self.candidate if self.is_batch else (self.candidate,)
        return (-self.value, int(self.is_batch), cid)


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
    """Shared selection state: order, factor, log det, remaining mask.

    Also mirrors L[X, X] in a growing buffer so bordered operators can use a
    contiguous view instead of re-gathering the selected block each iteration.
    """

    def __init__(self, L, capacity=None):
        d = L.shape[0]
        cap = d if capacity is None else min(int(capacity), d)
        self.L = L
        self.selected = []
        self.remaining = np.ones(d, dtype=bool)
        self.factor = CholeskyFactor(cap)
        self._sub = np.zeros((min(cap, 256), min(cap, 256)))
        self._cap = cap
        self.gains = []
        self.exact_evals = 0
        self.cg_iters = 0
        self.cg_solves = 0
        self.cg_converged = 0

    @property
    def size(self):
        return len(self.selected)

    @property
    def log_det(self):
        return self.factor.log_det

    def base(self):
        """Contiguous view of L[X, X] in selection order."""
        t = self.size
        return self._sub[:t, :t]

    def remaining_indices(self):
        return np.flatnonzero(self.remaining)

    def _ensure_sub(self, need):
        if need <= self._sub.shape[0]:
            return
        new = min(self._cap, max(need, 2 * self._sub.shape[0]))
        grown = np.zeros((new, new))
        t = self.size
        grown[:t, :t] = self._sub[:t, :t]
        self._sub = grown

    def add(self, i, border=None):
        """Accept item ``i``; returns the exact extension gain."""
        i = int(i)
        t = self.size
        if border is None:
            border = self.L[self.selected, i] if t else None
        g = self.factor.extend(border, float(self.L[i, i]))
        self._ensure_sub(t + 1)
        if t:
            self._sub[t, :t] = border
            self._sub[:t, t] = border
        self._sub[t, t] = self.L[i, i]
        self.selected.append(i)
        self.remaining[i] = False
        self.gains.append(g)
        return g

    def add_batch(self, items):
        """Accept a batch of items jointly; returns the block gain."""
        items = [int(i) for i in items]
        t = self.size
        kk = len(items)
        border = self.L[np.ix_(self.selected, items)] if t else None
        corner = self.L[np.ix_(items, items)]
        corner = (corner + corner.T) / 2.0
        g = self.factor.extend_block(border, corner)
        self._ensure_sub(t + kk)
        if t:
            self._sub[t : t + kk, :t] = border.T
            self._sub[:t, t : t + kk] = border
        self._sub[t : t + kk, t : t + kk] = corner
        self.selected.extend(items)
        self.remaining[items] = False
        self.gains.append(g)
        return g

    def record_cg(self, report):
        cols = report.col_iterations
        self.cg_solves += int(cols.size)
        self.cg_iters += int(cols.sum())
        self.cg_converged += int(report.col_converged.sum())

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

    Keeps every item's row of the factor, T^-1 L[X, :], and its Schur
    complement L[i, i] - |row_i|^2, so each step is an argmax over the
    complements and one O(t·d) row update; no candidate is solved for.  The
    accepted item's gain is the log of the complement it already holds, so
    no separate factor of L[X, X] is kept.  Selects the same sequence as
    ``exact_greedy``.
    """
    L = np.asarray(L, dtype=float)
    d = L.shape[0]
    cap = _check_budget(budget, d)
    schur = np.diag(L).copy()
    rows = np.zeros((min(cap, 256), d))
    remaining = np.ones(d, dtype=bool)
    selected = []
    gains = []
    log_det = 0.0
    exact_evals = 0
    stop = "budget" if budget is not None else "exhausted"
    while len(selected) < cap:
        rest = np.flatnonzero(remaining)
        if rest.size == 0:
            stop = "exhausted"
            break
        exact_evals += int(rest.size)
        i = int(rest[np.argmax(schur[rest])])  # first maximum = smallest index
        s = schur[i]
        if not s > 1.0:  # log gain <= 0
            stop = "nonpositive-gain"
            break
        t = len(selected)
        if t == rows.shape[0]:
            grown = np.zeros((min(cap, 2 * t), d))
            grown[:t] = rows
            rows = grown
        e = (L[i] - rows[:t, i] @ rows[:t]) / np.sqrt(s)
        rows[t] = e
        schur -= e * e
        g = float(np.log(s))
        selected.append(i)
        gains.append(g)
        log_det += g
        remaining[i] = False
    return SelectionResult(algorithm="lazy", selected=selected, gains=gains,
                           log_det=log_det, exact_evals=exact_evals, stop_reason=stop)


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


def first_order_gains(state, partition, L, tol=1e-10, max_iter=30):
    """First-order gain estimates for every candidate in ``partition``.

    For each group the candidates' bordered kernels are averaged; the gain of
    member i is the inner product of its deviation from the average with the
    average's last inverse column, plus the exact Schur log-gain of the
    average itself.  The Schur log-gains of all groups come from one
    triangular solve against the maintained factor; a group whose averaged
    Schur complement is nonpositive is priced -inf for every member.  Each
    remaining group costs one CG run, for its inverse column.
    """
    sel = state.selected
    t = state.size
    base = state.base()
    diag = np.diag(L)
    groups = partition.groups
    blocks = []
    kernels = []
    for g in groups:
        blk = L[np.ix_(sel, g)] if t else np.zeros((0, g.size))
        blocks.append(blk)
        kernels.append(border_average(L, sel, g, base=base, columns=blk))
    gammas = state.factor.gain_many(np.hstack([bk.border for bk in kernels]),
                                    np.array([bk.corner[0, 0] for bk in kernels]))
    live = np.flatnonzero(np.isfinite(gammas))
    zs = [None] * len(kernels)
    if live.size:
        solved = _grouped_inverse_columns([kernels[j] for j in live], tol, max_iter, state)
        for j, z in zip(live, solved):
            zs[j] = z

    estimates = []
    for j, (g, blk, bk) in enumerate(zip(groups, blocks, kernels)):
        if zs[j] is None:
            estimates.extend(
                GainEstimate(int(c), -np.inf, "first-order", j) for c in g
            )
            continue
        z_top = zs[j][:t, 0]
        z_bot = zs[j][t, 0]
        db = blk - bk.border
        dc = diag[g] - bk.corner[0, 0]
        vals = 2.0 * (z_top @ db) + z_bot * dc + gammas[j]
        estimates.extend(
            GainEstimate(int(c), float(v), "first-order", j) for c, v in zip(g, vals)
        )
    return estimates


def top_l_refine(estimates, ell, state, L):
    """Exactly re-score the ell highest estimates; return the best as exact.

    Single items are scored through the maintained factor in one blocked
    solve, batch candidates via one blocked solve plus small factorizations.
    Ties break toward singles and then the smallest candidate id.  Returns
    None when there is nothing to score.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    if not estimates:
        return None
    if len(estimates) > ell:
        values = np.array([e.value for e in estimates])
        order = np.argsort(-values, kind="stable")[:ell]
        chosen = [estimates[i] for i in order]
    else:
        chosen = estimates
    t = state.size
    refined = []
    singles = [e for e in chosen if not e.is_batch]
    batches = [e for e in chosen if e.is_batch]
    if singles:
        cols = np.array([e.candidate for e in singles])
        borders = L[np.ix_(state.selected, cols)] if t else np.zeros((0, cols.size))
        gains = state.factor.gain_many(borders, np.diag(L)[cols])
        state.exact_evals += int(cols.size)
        refined.extend(
            GainEstimate(int(c), float(g), "exact", e.group)
            for e, c, g in zip(singles, cols, gains)
        )
    if batches:
        idx = np.array([e.candidate for e in batches])
        nb, k = idx.shape
        borders = (L[np.ix_(state.selected, idx.ravel())].reshape(t, nb, k)
                   if t else np.zeros((0, nb, k)))
        corners = L[idx[:, :, None], idx[:, None, :]]
        corners = (corners + corners.transpose(0, 2, 1)) / 2.0
        gains = state.factor.gain_block_many(borders, corners)
        state.exact_evals += nb
        refined.extend(
            GainEstimate(e.candidate, float(g), "exact", e.group)
            for e, g in zip(batches, gains)
        )
    return min(refined, key=GainEstimate.sort_key)


def partitioned_greedy(L, budget=None, p=5, ell=20, tol=1e-10, max_iter=30,
                       seed=0, track_estimate_error=False):
    """Greedy selection driven by partition-averaged first-order gains.

    Each iteration partitions the remaining candidates into p random balanced
    groups, prices every candidate with ``first_order_gains`` (p CG runs and
    one triangular solve against the maintained factor), exactly re-scores
    the top ``ell`` estimates, and accepts the best.  Stops when the accepted
    candidate's exact gain turns negative, at the budget, or when candidates
    run out.

    ``track_estimate_error`` additionally scores *all* candidates exactly each
    iteration and reports the worst observed estimate error in
    ``metrics["epsilon_hat"]`` (small inputs only; quadratic cost).
    """
    L = np.asarray(L, dtype=float)
    d = L.shape[0]
    cap = _check_budget(budget, d)
    state = GreedyState(L, capacity=cap)
    rng_part = substream(seed, "partitions")
    diag = np.diag(L)
    eps_hat = 0.0
    stop = "budget" if budget is not None else "exhausted"
    while state.size < cap:
        rest = state.remaining_indices()
        if rest.size == 0:
            stop = "exhausted"
            break
        part = balanced_partition(rest, p, rng_part)
        estimates = first_order_gains(state, part, L, tol=tol, max_iter=max_iter)
        if track_estimate_error:
            borders = L[np.ix_(state.selected, rest)] if state.size else np.zeros((0, rest.size))
            exact = dict(zip(rest.tolist(), state.factor.gain_many(borders, diag[rest])))
            for e in estimates:
                tru = exact[e.candidate]
                if np.isfinite(e.value) and np.isfinite(tru):
                    eps_hat = max(eps_hat, abs(e.value - tru))
        best = top_l_refine(estimates, ell, state, L)
        if best is None:
            stop = "exhausted"
            break
        if best.value < 0:
            stop = "negative-gain"
            break
        state.add(best.candidate)
    metrics = {"epsilon_hat": eps_hat} if track_estimate_error else {}
    return state.result("alg1", stop, **metrics)


def _batch_gain_estimates(state, L, batches, partition, probes, expansion,
                          scale, delta, tol, max_iter):
    """Batch-pool estimates: shared-probe averaged log-dets plus linear terms.

    The estimator prices log det of each group's averaged bordered kernel with
    one shared ProbeSet.  To put the values on the same gain scale as the
    single-item pool it also prices a reference operator — the selected block
    zero-padded with an identity corner, whose log det equals the selected
    block's — with the very same probes and expansion.  Differencing against
    the reference cancels the expansion's systematic error and most probe
    noise (the shared-probe variance argument), so batch and single estimates
    stay comparable even when the spectrum strains the expansion.
    """
    sel = state.selected
    t = state.size
    base = state.base()
    s_total, k = batches.shape
    all_borders = (L[np.ix_(sel, batches.ravel())].reshape(t, s_total, k)
                   if t else np.zeros((0, s_total, k)))
    all_corners = L[batches[:, :, None], batches[:, None, :]]
    kernels = []
    stacks = []
    for grp in partition.groups:
        idx = batches[grp]
        borders3 = all_borders[:, grp, :]
        corners3 = all_corners[grp]
        bk = border_average(L, sel, idx, base=base,
                            columns=borders3.reshape(t, idx.size), corners=corners3)
        stacks.append((idx, borders3, corners3))
        kernels.append(bk)
    zs = _grouped_inverse_columns(kernels, tol, max_iter, state)

    ngroups = len(kernels)
    m = probes.count
    reference = BorderedKernel(base=base, border=np.zeros((t, k)), corner=np.eye(k))
    operators = kernels + [reference]
    tiled = np.tile(probes.vectors, (1, ngroups + 1))
    op = _SharedBaseBordered(operators, m)
    apply_op = lambda w: scale * op.matmat(w)
    quad = _recurrence_quadratic_forms(apply_op, delta, expansion.coefficients, tiled)
    ref_mean = quad[ngroups * m :].mean()
    gammas = np.array([quad[j * m : (j + 1) * m].mean() for j in range(ngroups)]) - ref_mean

    estimates = []
    for j, (grp, bk, (idx, borders3, corners3)) in enumerate(zip(partition.groups, kernels, stacks)):
        if zs[j] is None or not np.isfinite(gammas[j]):
            estimates.extend(
                GainEstimate(tuple(int(v) for v in batches[b]), -np.inf, "batch", j)
                for b in grp
            )
            continue
        z = zs[j]
        z_top = z[:t]
        z_bot = z[t:]
        z_bot = (z_bot + z_bot.T) / 2.0
        db = borders3 - bk.border[:, None, :]
        dc = corners3 - bk.corner
        lin = 2.0 * np.einsum("tbk,tk->b", db, z_top) if t else np.zeros(idx.shape[0])
        lin = lin + np.einsum("bij,ij->b", dc, z_bot) + gammas[j]
        estimates.extend(
            GainEstimate(tuple(int(v) for v in idx[b]), float(lin[b]), "batch", j)
            for b in range(idx.shape[0])
        )
    return estimates


def batch_greedy(L, budget=None, p=5, k=10, s=50, m=20, n=15, ell=20,
                 tol=1e-10, max_iter=30, seed=0, bounds=None,
                 delta_target=0.01, batch_sampler=None):
    """Stochastic batch greedy with first-order pricing of sampled k-batches.

    Each iteration samples ``s`` candidate batches, partitions them into p
    groups, and prices every batch against its group's averaged bordered
    kernel: k border-column CG solves per group plus one shared-probe
    log-determinant estimate (m probes, degree-n expansion; the probes are
    shared across groups and with a selected-block reference operator, so
    group-to-group and batch-vs-single comparisons cancel common noise).
    A single-item pool (``first_order_gains``) runs alongside; the top ``ell``
    estimates across both pools are re-scored exactly and the best accepted,
    so late iterations fall back to single items when whole batches stop
    paying.

    Spectral bounds of the full kernel cover every averaged bordered kernel
    (eigenvalue interlacing survives averaging), so one ``bounds`` computation
    fixes the estimator's rescaling for the whole run.  ``batch_sampler``
    overrides batch sampling (testing hook).
    """
    L = np.asarray(L, dtype=float)
    d = L.shape[0]
    cap = _check_budget(budget, d)
    state = GreedyState(L, capacity=cap)
    rng_part = substream(seed, "partitions")
    rng_batch = substream(seed, "batches")
    rng_probe = substream(seed, "probes")
    if bounds is None:
        bounds = spectral_bounds(L)
    scale, delta = _scale_and_delta(bounds, delta_target)
    expansion = chebyshev_coefficients(n, delta)
    sampler = batch_sampler or sample_batches
    batch_steps = 0
    single_steps = 0
    stop = "budget" if budget is not None else "exhausted"
    while state.size < cap:
        rest = state.remaining_indices()
        if rest.size == 0:
            stop = "exhausted"
            break
        t = state.size
        batch_ok = rest.size >= k and (budget is None or t + k <= cap)
        pool_b = []
        if batch_ok:
            batches = np.asarray(sampler(rest, k, s, rng_batch))
            part_b = balanced_partition(np.arange(batches.shape[0]), p, rng_part)
            probes = rademacher_probes(t + k, m, rng_probe)
            pool_b = _batch_gain_estimates(
                state, L, batches, part_b, probes, expansion,
                scale, delta, tol, max_iter,
            )
        part_s = balanced_partition(rest, p, rng_part)
        pool_s = first_order_gains(state, part_s, L, tol=tol, max_iter=max_iter)
        best = top_l_refine(pool_s + pool_b, ell, state, L)
        if best is None:
            stop = "exhausted"
            break
        if best.value < 0:
            stop = "negative-gain"
            break
        if best.is_batch:
            state.add_batch(best.candidate)
            batch_steps += 1
        else:
            state.add(best.candidate)
            single_steps += 1
    return state.result("alg2", stop, batch_steps=batch_steps, single_steps=single_steps)
