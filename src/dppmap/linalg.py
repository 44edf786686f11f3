"""Dense linear algebra for greedy log-determinant maximization.

Provides exact greedy's Cholesky factor, grown one row per accepted item,
with the Schur-complement gains it prices; the one-shot factor
``cholesky_logdet``, which returns LAPACK's lower factor as it comes; the
stacked log det ``_logdet_pd_many`` of an (n, k, k) stack of small matrices;
a conjugate-gradient solver for one right-hand side; and the one-column
bordered kernel whose last inverse column the CG reference of the averaged
first-order gain estimate solves for.  Every Cholesky log det in the package
is taken here: by ``cholesky_logdet``, by ``CholeskyFactor.extend`` or by
``_logdet_pd_many``.  Every triangular solve in the package is
``solve_lower``: one BLAS ``dtrsm`` on row-major right-hand sides, for exact
greedy's pricing and extension and for the row-block update of the row state
(``RowState.add_batch``).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

__all__ = [
    "CholeskyFactor",
    "CgReport",
    "BorderedKernel",
    "cholesky_logdet",
    "solve_lower",
    "cg_solve",
    "border_average",
    "bordered_inverse_columns",
]


class CholeskyFactor:
    """Lower-triangular factor of a principal submatrix, grown column by column.

    This is exact greedy's factor of L[X, X], one row per pick; a one-shot
    factor of a whole matrix is ``cholesky_logdet``'s array instead.  The
    factor lives in a preallocated buffer so appending a row never
    reallocates.  ``log_det`` accumulates the log-determinant as the exact sum
    of the per-extension gains, which is what the telescoping identity checks.
    """

    def __init__(self, capacity):
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        self._buf = np.zeros((capacity, capacity))
        self.order = 0
        self.log_det = 0.0

    @property
    def lower(self):
        """View of the current lower-triangular factor."""
        return self._buf[: self.order, : self.order]

    def gain(self, border, corner):
        """``gain_many`` of one column: log(corner - border^T A^-1 border),
        -inf if nonpositive.  ``border`` may be None at order 0."""
        borders = None if border is None else np.asarray(border, dtype=float)[:, None]
        return float(self.gain_many(borders, [corner])[0])

    def gain_many(self, borders, corners):
        """Vectorized ``gain`` over columns of ``borders`` (one dtrsm)."""
        corners = np.asarray(corners, dtype=float)
        if self.order == 0:
            return _log_positive(corners)
        w = solve_lower(self.lower, borders)
        return _log_positive(corners - np.einsum("ij,ij->j", w, w))

    def gain_block_many(self, borders, corners):
        """Joint gains of appending each of nb k-column blocks, from one
        triangular solve for all blocks and one ``_logdet_pd_many``.

        ``borders`` is (t, nb, k) with one border block per candidate,
        ``corners`` is (nb, k, k).  Returns an (nb,) array, -inf where a
        block's Schur complement is not positive definite.
        """
        corners = np.asarray(corners, dtype=float)
        t, nb, k = self.order, *corners.shape[:2]
        w = solve_lower(self.lower, np.reshape(borders, (t, nb * k))).reshape(t, nb, k)
        return _logdet_pd_many(corners - np.einsum("tbi,tbj->bij", w, w))[0]

    def extend(self, border, corner):
        """Append one row/column; returns the log-det gain of the extension."""
        t = self.order
        if t >= self._buf.shape[0]:
            raise ValueError("factor capacity exhausted")
        if t:
            w = solve_lower(self.lower, border)
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
        """Append a k-column block: k ``extend`` calls with the columns of
        ``border``/``corner``.  Returns the summed gain.

        If one of them raises, ``order`` and ``log_det`` are restored, so a
        block that breaks positive definiteness leaves the factor as it was.
        """
        corner = np.asarray(corner, dtype=float)
        t, log_det = self.order, self.log_det
        cols = np.vstack([border, corner]) if t else corner  # (t + k, k)
        try:
            return sum(self.extend(cols[: t + j, j], corner[j, j])
                       for j in range(corner.shape[0]))
        except Exception:
            self.order, self.log_det = t, log_det
            raise


def cholesky_logdet(a):
    """Return (log det a, T) for SPD ``a``, T its lower Cholesky factor as
    LAPACK's Fortran-ordered array (upper triangle zero); 0x0 input gives 0.

    Raises LinAlgError naming the failing pivot.
    """
    c, info = dpotrf(np.asarray(a, dtype=float), lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"matrix is not positive definite (failing pivot {info - 1})"
        )
    if info < 0:
        raise np.linalg.LinAlgError(f"illegal value in Cholesky argument {-info}")
    return float(2.0 * np.sum(np.log(np.diag(c)))), c


def solve_lower(lower, b):
    """Forward-substitute T x = b for a lower-triangular ``lower``; ``b`` is a
    (t,) vector or a (t, n) matrix and is never overwritten.

    One BLAS ``dtrsm`` solves X T^T = b^T on the column-major view of a
    row-major ``b``, so a C-ordered ``b`` is read as it lies, with no
    transposed copy, and the result comes back C-ordered.  A strided ``b``
    (a column view), or a ``lower`` that is not Fortran-ordered, is copied
    once by the BLAS wrapper.
    """
    b = np.asarray(b, dtype=float)
    if lower.shape[0] == 0:
        return np.zeros_like(b)
    if b.ndim == 1:
        return dtrsm(1.0, lower, b[None, :], side=1, lower=1, trans_a=1)[0]
    return dtrsm(1.0, lower, b.T, side=1, lower=1, trans_a=1).T


def _log_positive(s):
    """log(s) where s > 0, -inf elsewhere (NaN included)."""
    out = np.full(s.shape, -np.inf)
    pos = s > 0
    out[pos] = np.log(s[pos])
    return out


def _logdet_pd_many(stack, floors=None):
    """Log dets and lower Cholesky factors of an (n, k, k) stack.

    One LAPACK Cholesky factors the whole stack; only when it raises, because
    some member is not positive definite, is each member factored on its own.
    A member that is not PD, or (with ``floors``, an (n, k) array) whose
    squared pivot at j is not above floors[:, j], gets log det -inf and the
    identity as its factor.
    """
    bad = np.zeros(stack.shape[0], dtype=bool)
    try:
        factors = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        factors = np.empty_like(stack)
        for b, s in enumerate(stack):
            c, info = dpotrf(s, lower=1)
            bad[b] = info != 0
            factors[b] = np.eye(s.shape[0]) if bad[b] else c
    pivots = np.diagonal(factors, axis1=1, axis2=2)
    if floors is not None:
        bad |= ~(pivots**2 > floors).all(axis=1)
    log_dets = 2.0 * np.log(pivots).sum(axis=1)
    log_dets[bad] = -np.inf
    return log_dets, factors


@dataclass
class CgReport:
    """Outcome of a conjugate-gradient solve.

    ``residual_norm`` is the recomputed ||A x - b||_2 at exit, not the
    recurrence residual.
    """

    solution: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool

    # One-element per-column views, read by benchmark/tracing.py.
    @property
    def col_iterations(self):
        return np.array([self.iterations])

    @property
    def col_converged(self):
        return np.array([self.converged])


def cg_solve(op, b, tol=1e-10, max_iter=30):
    """Conjugate gradients on an SPD operator ``op`` (anything with ``@`` and
    ``shape``) for one right-hand side vector ``b``.

    Converged once ||r||_2 <= tol * max(1, ||b||_2).  A nonpositive curvature
    direction before convergence raises LinAlgError (breakdown).
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"rhs must be a vector, got shape {b.shape}")
    n = op.shape[0]
    if b.size != n:
        raise ValueError(f"rhs has {b.size} rows, operator dimension is {n}")

    x = np.zeros_like(b)
    r = b.copy()
    thresh = tol * max(1.0, float(np.linalg.norm(b)))
    rz = r @ r
    p = r.copy()
    iterations = 0
    while rz > thresh * thresh and iterations < max_iter:
        iterations += 1
        ap = op @ p
        pap = p @ ap
        if pap <= 0:
            raise np.linalg.LinAlgError(
                f"CG breakdown: nonpositive curvature at iteration {iterations}"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rz_new = r @ r
        p = r + (rz_new / rz) * p
        rz = rz_new

    true_res = float(np.linalg.norm(op @ x - b))
    return CgReport(x, iterations, true_res, true_res <= thresh)


@dataclass
class BorderedKernel:
    """A selected block bordered by one column: [[base, border], [border^T, corner]].

    ``border`` is a (t,) vector and ``corner`` a float.  ``@`` applies the
    blocks to a vector directly, so CG never touches a (t+1)^2 matrix.
    """

    base: np.ndarray
    border: np.ndarray
    corner: float

    @property
    def shape(self):
        n = self.base.shape[0] + 1
        return n, n

    def __matmul__(self, w):
        out = np.empty_like(w)
        out[:-1] = self.base @ w[:-1] + self.border * w[-1]
        out[-1] = self.border @ w[:-1] + self.corner * w[-1]
        return out

    def assemble(self):
        """Materialize the full (t+1) x (t+1) matrix (tests and small cases)."""
        return np.block([[self.base, self.border[:, None]],
                         [self.border[None, :], np.array([[self.corner]])]])


def border_average(L, selected, members):
    """Average the single-item bordered extensions of L[X, X] over ``members``.

    Returns the kernel whose border is the mean of the columns L[X, i] and
    whose corner is the mean of L[i, i] over the items i in ``members``.
    """
    if len(members) == 0:
        raise ValueError("members must be nonempty")
    selected = np.asarray(selected, dtype=np.intp)
    cols = np.asarray(members, dtype=np.intp)
    border = L[np.ix_(selected, cols)].mean(axis=1)
    corner = float(L[cols, cols].mean())
    return BorderedKernel(base=L[np.ix_(selected, selected)], border=border, corner=corner)


def bordered_inverse_columns(bordered, tol=1e-10, max_iter=30):
    """Last column of the inverse of a bordered kernel.

    Solves (assembled kernel) z = e_last by CG.  Returns (z, CgReport).
    """
    rhs = np.zeros(bordered.shape[0])
    rhs[-1] = 1.0
    rep = cg_solve(bordered, rhs, tol=tol, max_iter=max_iter)
    return rep.solution, rep
