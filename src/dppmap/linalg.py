"""Dense linear algebra for greedy log-determinant maximization.

Provides an incrementally growing Cholesky factor (one row per accepted item),
a conjugate-gradient solver that runs many right-hand sides in lockstep, the
bordered operators used by the averaged first-order gain estimates, and the
Schur-complement marginal gain through a Cholesky factor.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

__all__ = [
    "CholeskyFactor",
    "CgReport",
    "BorderedKernel",
    "cholesky_logdet",
    "cg_solve",
    "schur_marginal_gain",
    "border_average",
    "bordered_inverse_columns",
]


class CholeskyFactor:
    """Lower-triangular factor of a principal submatrix, grown column by column.

    The factor lives in a preallocated buffer so appending a row never
    reallocates.  ``log_det`` accumulates the log-determinant as the exact sum
    of the per-extension gains, which is what the telescoping identity checks.
    """

    def __init__(self, capacity):
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        self._buf = np.zeros((capacity, capacity))
        self.order = 0
        self.log_det = 0.0

    @classmethod
    def from_matrix(cls, a, capacity=None):
        """Factor a full SPD matrix. Raises LinAlgError naming the bad pivot."""
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        fac = cls(max(n, capacity or n))
        if n == 0:
            return fac
        c, info = dpotrf(a, lower=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"matrix is not positive definite (failing pivot {info - 1})"
            )
        if info < 0:
            raise np.linalg.LinAlgError(f"illegal value in Cholesky argument {-info}")
        fac._buf[:n, :n] = np.tril(c)
        fac.order = n
        fac.log_det = float(2.0 * np.sum(np.log(np.diag(c))))
        return fac

    @property
    def lower(self):
        """View of the current lower-triangular factor."""
        return self._buf[: self.order, : self.order]

    def solve_lower(self, b):
        """Forward-substitute T x = b for the current factor."""
        if self.order == 0:
            return np.zeros_like(np.asarray(b, dtype=float))
        return solve_triangular(self.lower, b, lower=True, check_finite=False)

    def gain(self, border, corner):
        """Schur gain log(corner - border^T A^-1 border); -inf if nonpositive."""
        if self.order == 0:
            return float(np.log(corner)) if corner > 0 else -np.inf
        w = self.solve_lower(border)
        s = corner - w @ w
        return float(np.log(s)) if s > 0 else -np.inf

    def gain_many(self, borders, corners):
        """Vectorized ``gain`` over columns of ``borders`` (one dtrsm)."""
        corners = np.asarray(corners, dtype=float)
        if self.order == 0:
            s = corners.copy()
        else:
            w = self.solve_lower(borders)
            s = corners - np.einsum("ij,ij->j", w, w)
        out = np.full(s.shape, -np.inf)
        pos = s > 0
        out[pos] = np.log(s[pos])
        return out

    def gain_block(self, border, corner):
        """Joint gain of appending a k-column block; -inf if the block Schur
        complement is not positive definite."""
        corner = np.asarray(corner, dtype=float)
        if self.order == 0:
            s = corner
        else:
            w = self.solve_lower(border)
            s = corner - w.T @ w
        c, info = dpotrf(s, lower=1)
        if info != 0:
            return -np.inf
        return float(2.0 * np.sum(np.log(np.diag(c))))

    def gain_block_many(self, borders, corners):
        """Vectorized ``gain_block``: one triangular solve for all blocks.

        ``borders`` is (t, nb, k) with one border block per candidate,
        ``corners`` is (nb, k, k).  Returns an (nb,) array, -inf where a
        block's Schur complement is not positive definite.
        """
        corners = np.asarray(corners, dtype=float)
        nb, k = corners.shape[0], corners.shape[1]
        if self.order == 0:
            schurs = corners
        else:
            borders = np.asarray(borders, dtype=float)
            t = self.order
            w = self.solve_lower(borders.reshape(t, nb * k)).reshape(t, nb, k)
            schurs = corners - np.einsum("tbi,tbj->bij", w, w)
        out = np.empty(nb)
        for b in range(nb):
            c, info = dpotrf(schurs[b], lower=1)
            out[b] = -np.inf if info != 0 else 2.0 * np.sum(np.log(np.diag(c)))
        return out

    def extend(self, border, corner):
        """Append one row/column; returns the log-det gain of the extension."""
        t = self.order
        if t >= self._buf.shape[0]:
            raise ValueError("factor capacity exhausted")
        if t:
            w = self.solve_lower(border)
            s = corner - w @ w
            if s <= 0:
                raise np.linalg.LinAlgError(
                    "extension breaks positive definiteness (nonpositive Schur complement)"
                )
            self._buf[t, :t] = w
        else:
            if corner <= 0:
                raise np.linalg.LinAlgError("nonpositive corner in first extension")
            s = corner
        self._buf[t, t] = np.sqrt(s)
        self.order = t + 1
        g = float(np.log(s))
        self.log_det += g
        return g

    def extend_block(self, border, corner):
        """Append a k-column block in one step.

        Equivalent to k successive ``extend`` calls with the columns of
        ``border``/``corner`` (Cholesky factors are unique), but done with one
        triangular solve and one small factorization.
        """
        corner = np.asarray(corner, dtype=float)
        k = corner.shape[0]
        t = self.order
        if t + k > self._buf.shape[0]:
            raise ValueError("factor capacity exhausted")
        if t:
            w = self.solve_lower(border)
            s = corner - w.T @ w
        else:
            w = None
            s = corner
        c, info = dpotrf(s, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                "block extension breaks positive definiteness "
                f"(failing pivot {max(info - 1, 0)})"
            )
        if t:
            self._buf[t : t + k, :t] = w.T
        self._buf[t : t + k, t : t + k] = np.tril(c)
        self.order = t + k
        g = float(2.0 * np.sum(np.log(np.diag(c))))
        self.log_det += g
        return g


def cholesky_logdet(a):
    """Return (log det a, CholeskyFactor) for SPD ``a``; 0x0 input gives 0."""
    fac = CholeskyFactor.from_matrix(a)
    return fac.log_det, fac


@dataclass
class CgReport:
    """Outcome of a conjugate-gradient solve.

    ``residual_norm`` is the recomputed ||A x - b||_2 at exit (max over
    columns for block solves), not the recurrence residual.
    """

    solution: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    col_iterations: np.ndarray = field(default=None, repr=False)
    col_residuals: np.ndarray = field(default=None, repr=False)
    col_converged: np.ndarray = field(default=None, repr=False)


def _matmat_of(op):
    """Uniform (apply, dim) access for ndarrays and operator objects."""
    if isinstance(op, np.ndarray):
        return (lambda w: op @ w), op.shape[0]
    return op.matmat, op.dim


def cg_solve(op, b, tol=1e-10, max_iter=30):
    """Conjugate gradients on an SPD operator.

    ``b`` may be a vector or a matrix of right-hand sides; columns are solved
    as independent CG runs executed in lockstep.  A column counts as converged
    once ||r||_2 <= tol * max(1, ||b_col||_2).  A nonpositive curvature
    direction on an unconverged column raises LinAlgError (breakdown).
    """
    apply_op, n = _matmat_of(op)
    b = np.asarray(b, dtype=float)
    single = b.ndim == 1
    rhs = b[:, None] if single else b
    if rhs.shape[0] != n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, operator dimension is {n}")
    ncols = rhs.shape[1]

    x = np.zeros_like(rhs)
    r = rhs.copy()
    thresh = tol * np.maximum(1.0, np.linalg.norm(rhs, axis=0))
    thresh_sq = thresh * thresh
    rz = np.einsum("ij,ij->j", r, r)
    active = rz > thresh_sq
    col_iters = np.zeros(ncols, dtype=int)
    p = np.where(active, r, 0.0)

    iterations = 0
    while active.any() and iterations < max_iter:
        iterations += 1
        ap = apply_op(p)
        pap = np.einsum("ij,ij->j", p, ap)
        all_active = bool(active.all())
        if all_active:
            if (pap <= 0).any():
                raise np.linalg.LinAlgError(
                    f"CG breakdown: nonpositive curvature at iteration {iterations}"
                )
            alpha = rz / pap
        else:
            if (active & (pap <= 0)).any():
                raise np.linalg.LinAlgError(
                    f"CG breakdown: nonpositive curvature at iteration {iterations}"
                )
            alpha = np.zeros(ncols)
            alpha[active] = rz[active] / pap[active]
        x += alpha * p
        r -= alpha * ap
        rz_new = np.einsum("ij,ij->j", r, r)
        newly_done = active & (rz_new <= thresh_sq)
        if newly_done.any():
            col_iters[newly_done] = iterations
            active = active & ~newly_done
            all_active = False
        if all_active:
            beta = rz_new / rz
            p = r + beta * p
        else:
            beta = np.zeros(ncols)
            beta[active] = rz_new[active] / rz[active]
            p = r + beta * p
            p[:, ~active] = 0.0
        rz = rz_new
    col_iters[active] = iterations

    true_res = np.linalg.norm(apply_op(x) - rhs, axis=0)
    col_ok = true_res <= thresh
    if single:
        return CgReport(x[:, 0], iterations, float(true_res[0]), bool(col_ok[0]),
                        col_iters, true_res, col_ok)
    return CgReport(x, iterations, float(true_res.max()), bool(col_ok.all()),
                    col_iters, true_res, col_ok)


def schur_marginal_gain(L, selected, i, factor=None):
    """Marginal log-det gain of adding item ``i`` to the selected set.

    Forward-substitutes against a Cholesky factor of L[X, X], building one if
    ``factor`` is not supplied.  Nonpositive Schur complements yield -inf
    rather than an error so greedy loops can skip the candidate.
    """
    selected = list(selected)
    if i in selected:
        raise ValueError(f"candidate {i} is already selected")
    corner = float(L[i, i])
    if not selected:
        return float(np.log(corner)) if corner > 0 else -np.inf
    if factor is None:
        factor = CholeskyFactor.from_matrix(L[np.ix_(selected, selected)])
    return factor.gain(L[selected, i], corner)


@dataclass
class BorderedKernel:
    """A selected-block matrix extended by k averaged border columns.

    Represents [[base, border], [border^T, corner]] without assembling it;
    ``matmat`` applies the blocks directly so CG never touches a (t+k)^2
    matrix.  ``count`` records how many candidate extensions were averaged.
    """

    base: np.ndarray
    border: np.ndarray
    corner: np.ndarray
    count: int = 1

    @property
    def base_dim(self):
        return self.base.shape[0]

    @property
    def border_width(self):
        return self.corner.shape[0]

    @property
    def dim(self):
        return self.base_dim + self.border_width

    def matmat(self, w):
        t = self.base_dim
        out = np.empty_like(w)
        if t:
            np.matmul(self.base, w[:t], out=out[:t])
            out[:t] += self.border @ w[t:]
            np.matmul(self.border.T, w[:t], out=out[t:])
            out[t:] += self.corner @ w[t:]
        else:
            np.matmul(self.corner, w, out=out)
        return out

    def assemble(self):
        """Materialize the full (t+k) x (t+k) matrix (tests and small cases)."""
        t, k = self.base_dim, self.border_width
        full = np.empty((t + k, t + k))
        full[:t, :t] = self.base
        full[:t, t:] = self.border
        full[t:, :t] = self.border.T
        full[t:, t:] = self.corner
        return full


class _SharedBaseBordered:
    """Several bordered kernels over one base block, applied in lockstep.

    Column group g of the input block belongs to kernel g; the base product
    is computed once for all groups, which is where the shared work lives.
    The per-group border and corner products run as batched matmuls.
    """

    def __init__(self, kernels, width):
        self.kernels = kernels
        self.width = width
        self.t = kernels[0].base_dim
        self.k = kernels[0].border_width
        self.dim = self.t + self.k
        self.borders = np.stack([bk.border for bk in kernels])  # (g, t, k)
        self.corners = np.stack([bk.corner for bk in kernels])  # (g, k, k)

    def matmat(self, w):
        t, k, width = self.t, self.k, self.width
        g = len(self.kernels)
        out = np.empty_like(w)
        # bottom rows regrouped as (g, k, width) so group products batch
        wb = np.ascontiguousarray(
            w[t:].reshape(k, g, width).transpose(1, 0, 2))
        if t == 0:
            bottom = self.corners @ wb
        else:
            np.matmul(self.kernels[0].base, w[:t], out=out[:t])
            cross = self.borders @ wb  # (g, t, width)
            out[:t] += cross.transpose(1, 0, 2).reshape(t, g * width)
            wt = np.ascontiguousarray(
                w[:t].reshape(t, g, width).transpose(1, 0, 2))
            bottom = self.borders.transpose(0, 2, 1) @ wt + self.corners @ wb
        out[t:] = bottom.transpose(1, 0, 2).reshape(k, g * width)
        return out


def border_average(L, selected, members, base=None, columns=None):
    """Average the single-item bordered extensions of L[X, X] over ``members``.

    Returns the border-width-1 kernel whose border is the mean of the columns
    L[X, i] and whose corner is the mean of L[i, i] over the items i in
    ``members``.  Pass ``base`` to reuse an already-gathered L[X, X] block and
    ``columns`` to reuse the gathered border block L[X, members].
    """
    if len(members) == 0:
        raise ValueError("members must be nonempty")
    selected = np.asarray(selected, dtype=np.intp)
    cols = np.asarray(members, dtype=np.intp)
    if base is None:
        base = L[np.ix_(selected, selected)]
    if columns is None:
        columns = L[np.ix_(selected, cols)]
    border = columns.mean(axis=1, keepdims=True)
    corner = np.array([[L[cols, cols].mean()]])
    return BorderedKernel(base=base, border=border, corner=corner, count=len(members))


def bordered_inverse_columns(bordered, tol=1e-10, max_iter=30):
    """Last-k columns of the inverse of one or more bordered kernels.

    Solves (assembled kernel) Z = E with E selecting the border coordinates,
    one CG run per column.  A list of kernels sharing the same base block is
    solved in one lockstep call; the result is then a list of Z blocks.
    Returns (Z, CgReport).
    """
    multi = isinstance(bordered, (list, tuple))
    kernels = list(bordered) if multi else [bordered]
    t = kernels[0].base_dim
    k = kernels[0].border_width
    ngroups = len(kernels)
    rhs = np.zeros((t + k, ngroups * k))
    for g in range(ngroups):
        rhs[t:, g * k : (g + 1) * k] = np.eye(k)
    op = _SharedBaseBordered(kernels, k) if ngroups > 1 else kernels[0]
    rep = cg_solve(op, rhs, tol=tol, max_iter=max_iter)
    if not multi:
        return rep.solution, rep
    blocks = [rep.solution[:, g * k : (g + 1) * k] for g in range(ngroups)]
    return blocks, rep

