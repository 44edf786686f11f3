"""Stochastic log-determinant estimation.

Approximates log det A for SPD A with spectrum inside [delta, 1 - delta] by a
Chebyshev expansion of log evaluated through a three-term matrix recurrence,
with the trace recovered by Hutchinson's Rademacher-probe estimator.  Probe
vectors can be shared between two nearby matrices, which makes the variance of
the *difference* of the two estimates scale with ||A - B||_F^2 instead of with
the matrices themselves.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate, chebval

from ._rng import substream

__all__ = [
    "ChebyshevExpansion",
    "RescaledOperator",
    "chebyshev_coefficients",
    "rademacher_probes",
    "rescale_spectrum",
    "estimate_logdet",
    "shared_probe_difference",
    "probe_variance_bound",
]

DELTA_TARGET = 0.01
DELTA_FLOOR = 1e-4


@dataclass(frozen=True)
class ChebyshevExpansion:
    """Chebyshev interpolant of log on [delta, 1 - delta].

    ``coefficients[k]`` multiplies T_k of the affinely mapped argument
    (2x - 1) / (1 - 2 delta).
    """

    degree: int
    delta: float
    coefficients: np.ndarray

    def evaluate(self, x):
        """Evaluate the interpolant at scalar or array ``x`` (original coords)."""
        x = np.asarray(x, dtype=float)
        out = chebval((2.0 * x - 1.0) / (1.0 - 2.0 * self.delta), self.coefficients)
        return out if np.ndim(out) else float(out)

    def grid_error(self, npoints=1000):
        """Sup error against log on an endpoint-inclusive grid of the interval."""
        xs = np.linspace(self.delta, 1.0 - self.delta, npoints)
        return float(np.max(np.abs(self.evaluate(xs) - np.log(xs))))


def chebyshev_coefficients(degree, delta):
    """Interpolation coefficients of log at the n+1 Chebyshev nodes.

    The nodes are of the first kind, cos(pi (j + 1/2) / (n + 1)), in the
    mapped argument; ``numpy.polynomial.chebyshev.chebinterpolate`` does the
    interpolation.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")
    coeff = chebinterpolate(lambda t: np.log((1.0 - 2.0 * delta) / 2.0 * t + 0.5), degree)
    return ChebyshevExpansion(degree=degree, delta=delta, coefficients=coeff)


def rademacher_probes(dim, count, rng):
    """A (dim, count) array of +-1 probe vectors, one per column, drawn from
    ``rng`` (a Generator or an integer seed); signs come from the top bit of
    raw draws."""
    if dim < 1 or count < 1:
        raise ValueError("dim and count must be positive")
    if isinstance(rng, (int, np.integer)):
        rng = substream(int(rng), "probes")
    bits = rng.integers(0, 2**64, size=(dim, count), dtype=np.uint64, endpoint=False)
    return np.where(bits >> np.uint64(63), 1.0, -1.0)


@dataclass(frozen=True)
class RescaledOperator:
    """An SPD matrix scaled by ``scale`` so its spectrum fits [delta, 1 - delta].

    log det of the original matrix = (estimate on the scaled matrix)
    + ``logdet_correction``, where the correction is -dim * log scale.
    """

    matrix: np.ndarray
    scale: float
    delta: float

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def logdet_correction(self):
        return -self.dim * np.log(self.scale)

    def matmat(self, w):
        prod = self.matrix @ w
        if self.scale != 1.0:
            prod *= self.scale
        return prod


def rescale_spectrum(a, bounds):
    """Choose the scale and delta that map ``bounds`` into [delta, 1 - delta].

    c = (1 - DELTA_TARGET) / bounds.upper pins the top of the spectrum;
    delta = min(DELTA_TARGET, c * bounds.lower) then adapts to the scaled
    bottom, floored at DELTA_FLOOR.  When the floor binds (severely
    ill-conditioned input) the bottom of the spectrum may fall below delta
    and the estimate degrades smoothly; callers relying on it only rank
    nearby matrices.
    """
    if bounds.upper <= 0:
        raise ValueError("bounds.upper must be positive for an SPD operator")
    c = (1.0 - DELTA_TARGET) / bounds.upper
    delta = float(max(min(DELTA_TARGET, c * bounds.lower), DELTA_FLOOR))
    return RescaledOperator(matrix=a, scale=float(c), delta=delta)


def estimate_logdet(rescaled, expansion, probes):
    """Chebyshev/Hutchinson estimate of log det of the original matrix.

    ``probes`` is a (dim, count) array from ``rademacher_probes``.  Runs the
    three-term recurrence of sum_k c_k T_k on the whole probe block at once,
    with the Chebyshev argument (2x - 1)/(1 - 2 delta) folded in, and
    averages the per-probe quadratic forms in fixed probe order, so the
    result is deterministic for given probes.
    """
    if expansion.delta != rescaled.delta:
        raise ValueError(
            f"expansion delta {expansion.delta} != operator delta {rescaled.delta}"
        )
    if probes.shape[0] != rescaled.dim:
        raise ValueError(f"probe dim {probes.shape[0]} != operator dim {rescaled.dim}")
    c = expansion.coefficients
    s = 1.0 / (1.0 - 2.0 * rescaled.delta)
    acc = c[0] * probes
    if expansion.degree >= 1:
        w_prev = probes
        w_cur = 2.0 * s * rescaled.matmat(probes) - s * probes
        acc = acc + c[1] * w_cur
        for k in range(2, expansion.degree + 1):
            w_next = 4.0 * s * rescaled.matmat(w_cur) - 2.0 * s * w_cur - w_prev
            acc += c[k] * w_next
            w_prev, w_cur = w_cur, w_next
    quad = np.einsum("ij,ij->j", probes, acc)
    return float(quad.mean() + rescaled.logdet_correction)


def shared_probe_difference(a, b, expansion, probes):
    """Estimate log det for two operators with the *same* probe vectors.

    Both operators must share the scale and delta of their rescaling (the
    estimates would not be comparable otherwise).  Returns
    (estimate_a, estimate_b, estimate_a - estimate_b).
    """
    if a.dim != b.dim:
        raise ValueError("operators must have equal dimension")
    if a.scale != b.scale or a.delta != b.delta:
        raise ValueError("operators must share scale and delta")
    ga = estimate_logdet(a, expansion, probes)
    gb = estimate_logdet(b, expansion, probes)
    return ga, gb, ga - gb


def probe_variance_bound(delta, count, frobenius_diff):
    """Variance bound for the shared-probe difference of two estimates.

    For symmetric A, B with spectra in [delta, 1 - delta] and ``count``
    shared probes: Var[Gamma_A - Gamma_B] is at most
    32 M^2 rho^2 (rho+1)^2 / (count (rho-1)^6 (1-2 delta)^2) * ||A - B||_F^2,
    with M = 5 log(2/delta) and rho = 1 + 2 / (sqrt(2/delta - 1) - 1).
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")
    if count < 1:
        raise ValueError("count must be positive")
    big_m = 5.0 * np.log(2.0 / delta)
    rho = 1.0 + 2.0 / (np.sqrt(2.0 / delta - 1.0) - 1.0)
    num = 32.0 * big_m**2 * rho**2 * (rho + 1.0) ** 2
    den = count * (rho - 1.0) ** 6 * (1.0 - 2.0 * delta) ** 2
    return float(num / den * frobenius_diff**2)
