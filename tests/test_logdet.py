"""Chebyshev log expansion, Rademacher probes, rescaling, and trace estimates."""

import numpy as np
import pytest

from dppmap._rng import substream
from dppmap.kernel import SpectralBounds, spectral_bounds
from dppmap.logdet import (
    DELTA_FLOOR,
    DELTA_TARGET,
    RescaledOperator,
    chebyshev_coefficients,
    estimate_logdet,
    probe_variance_bound,
    rademacher_probes,
    rescale_spectrum,
    shared_probe_difference,
)


def random_spd(dim, rng, lo=0.5, hi=5.0):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * rng.uniform(lo, hi, size=dim)) @ q.T
    return (a + a.T) / 2.0


def test_degree_zero_coefficient():
    exp = chebyshev_coefficients(0, 0.01)
    assert exp.coefficients.shape == (1,)
    assert abs(exp.coefficients[0] - np.log(0.5)) <= 1e-12


def test_coefficients_match_direct_cosine_formula():
    n, delta = 12, 0.03
    exp = chebyshev_coefficients(n, delta)
    j = np.arange(n + 1)
    nodes = np.cos(np.pi * (j + 0.5) / (n + 1))
    fx = np.log((1.0 - 2.0 * delta) / 2.0 * nodes + 0.5)
    for k in range(n + 1):
        tk = np.cos(k * np.arccos(nodes))
        scale = 1.0 if k == 0 else 2.0
        direct = scale * (fx * tk).sum() / (n + 1)
        assert abs(exp.coefficients[k] - direct) <= 1e-12


def test_grid_error_decreases_with_degree():
    lo = chebyshev_coefficients(10, 0.05).grid_error()
    hi = chebyshev_coefficients(20, 0.05).grid_error()
    assert hi < lo


def test_expansion_tracks_log_at_key_points():
    exp = chebyshev_coefficients(18, 0.05)
    budget = exp.grid_error(1001) + 1e-12
    for x in (0.05, 0.5, 0.95):
        assert abs(exp.evaluate(x) - np.log(x)) <= budget


def test_expansion_parameter_validation():
    with pytest.raises(ValueError):
        chebyshev_coefficients(-1, 0.1)
    with pytest.raises(ValueError):
        chebyshev_coefficients(5, 0.7)
    with pytest.raises(ValueError):
        chebyshev_coefficients(5, 0.0)


def test_probes_are_rademacher_and_deterministic():
    a = rademacher_probes(30, 8, 5)
    b = rademacher_probes(30, 8, 5)
    c = rademacher_probes(30, 8, 6)
    assert a.shape == (30, 8)
    assert np.isin(a, (-1.0, 1.0)).all()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        rademacher_probes(0, 5, 0)
    with pytest.raises(ValueError):
        rademacher_probes(5, 0, 0)


def test_probe_outer_products_average_to_identity():
    probes = rademacher_probes(10, 10000, 0)
    outer_mean = probes @ probes.T / probes.shape[1]
    assert np.abs(outer_mean - np.eye(10)).max() <= 5.0 / np.sqrt(10000)


def test_rescale_identity_clamps_delta():
    # a well-conditioned spectrum gets the target delta, its top at 1 - target
    op = rescale_spectrum(np.eye(3), SpectralBounds(1.0, 1.0, "gershgorin"))
    assert DELTA_TARGET == 0.01
    assert op.scale == 0.99
    assert op.delta == DELTA_TARGET
    assert op.dim == 3
    # an ill-conditioned one has its delta floored at DELTA_FLOOR
    op = rescale_spectrum(np.eye(3), SpectralBounds(1e-9, 1.0, "gershgorin"))
    assert op.delta == DELTA_FLOOR
    # in between, delta is the scaled bottom of the spectrum
    op = rescale_spectrum(np.eye(3), SpectralBounds(0.005, 1.0, "gershgorin"))
    assert op.delta == 0.99 * 0.005


def test_rescale_correction_recovers_logdet():
    a = np.diag([2.0, 10.0])
    op = rescale_spectrum(a, SpectralBounds(2.0, 10.0, "gershgorin"))
    scaled_trace_of_log = np.log(op.scale * np.diag(a)).sum()
    assert abs(op.logdet_correction - (-2.0 * np.log(op.scale))) <= 1e-12
    assert abs(scaled_trace_of_log + op.logdet_correction - np.log(20.0)) <= 1e-12


def test_rescale_puts_spectrum_in_band():
    rng = substream(30, "spd")
    a = random_spd(200, rng)
    op = rescale_spectrum(a, spectral_bounds(a))
    eigs = np.linalg.eigvalsh(op.scale * a)
    assert eigs.min() >= op.delta - 1e-12
    assert eigs.max() <= 1.0 - op.delta + 1e-12


def test_rescale_rejects_bad_bounds():
    with pytest.raises(ValueError):
        rescale_spectrum(np.eye(2), SpectralBounds(-2.0, -1.0, "gershgorin"))


def test_estimate_exact_for_scaled_identity():
    # v^T (alpha I) v = alpha * d for every probe, so only the polynomial's
    # pointwise error at alpha remains
    d = 40
    op = RescaledOperator(matrix=np.eye(d), scale=0.5, delta=0.05)
    exp = chebyshev_coefficients(15, 0.05)
    probes = rademacher_probes(d, 7, 1)
    est = estimate_logdet(op, exp, probes)
    target = d * np.log(0.5) + op.logdet_correction  # = log det I = 0
    assert abs(target) <= 1e-12
    assert abs(est - target) <= d * exp.grid_error(1001) + 1e-12


def test_estimate_matches_cholesky_in_median():
    errs = []
    for seed in range(10):
        rng = substream(seed, "estimator-check")
        a = random_spd(120, rng)
        op = rescale_spectrum(a, spectral_bounds(a))
        exp = chebyshev_coefficients(15, op.delta)
        probes = rademacher_probes(120, 20, seed)
        est = estimate_logdet(op, exp, probes)
        exact = np.linalg.slogdet(a)[1]
        errs.append(abs(est - exact) / abs(exact))
    assert np.median(errs) <= 0.05


def test_estimate_is_deterministic():
    rng = substream(31, "spd")
    a = random_spd(60, rng)
    op = rescale_spectrum(a, spectral_bounds(a))
    exp = chebyshev_coefficients(15, op.delta)
    one = estimate_logdet(op, exp, rademacher_probes(60, 20, 9))
    two = estimate_logdet(op, exp, rademacher_probes(60, 20, 9))
    assert one == two


def test_hutchinson_unbiased_at_polynomial_level():
    d = 30
    rng = substream(32, "spd")
    a = random_spd(d, rng, lo=0.1, hi=0.8)  # already inside (0, 1)
    delta = 0.05
    op = RescaledOperator(matrix=a, scale=1.0, delta=delta)
    exp = chebyshev_coefficients(10, delta)

    eigval, eigvec = np.linalg.eigh(a)
    dense_poly = (eigvec * exp.evaluate(eigval)) @ eigvec.T
    true_trace = float(np.trace(dense_poly))

    probes = rademacher_probes(d, 10000, 2)
    quads = np.einsum("ij,ij->j", probes, dense_poly @ probes)
    stderr = quads.std(ddof=1) / np.sqrt(probes.shape[1])
    assert abs(quads.mean() - true_trace) <= 3.0 * stderr

    # the recurrence-based estimate equals the dense-polynomial average
    est = estimate_logdet(op, exp, probes)
    assert abs(est - quads.mean()) <= 1e-8 * max(1.0, abs(true_trace))


def test_shared_probe_difference_identical_operators_is_zero():
    rng = substream(33, "spd")
    a = random_spd(50, rng)
    op = rescale_spectrum(a, spectral_bounds(a))
    exp = chebyshev_coefficients(15, op.delta)
    probes = rademacher_probes(50, 20, 3)
    ga, gb, diff = shared_probe_difference(op, op, exp, probes)
    assert ga == gb
    assert diff == 0.0


def test_shared_probe_difference_validation():
    bounds = SpectralBounds(0.5, 2.0, "gershgorin")
    op_a = rescale_spectrum(np.eye(4), bounds)
    op_small = rescale_spectrum(np.eye(3), bounds)
    op_other = rescale_spectrum(np.eye(4), SpectralBounds(0.5, 4.0, "gershgorin"))
    exp = chebyshev_coefficients(10, op_a.delta)
    probes = rademacher_probes(4, 5, 0)
    with pytest.raises(ValueError):
        shared_probe_difference(op_a, op_small, exp, probes)
    with pytest.raises(ValueError):
        shared_probe_difference(op_a, op_other, exp, probes)
    with pytest.raises(ValueError):
        estimate_logdet(op_a, chebyshev_coefficients(10, 0.11), probes)
    with pytest.raises(ValueError):
        estimate_logdet(op_a, exp, rademacher_probes(9, 5, 0))


def test_shared_probes_cancel_noise_on_nearby_matrices():
    rng = substream(34, "spd")
    a = random_spd(40, rng, lo=0.2, hi=0.7)
    e = rng.standard_normal((40, 40))
    e = (e + e.T) / 2.0
    b = a + 0.01 * e / np.linalg.norm(e)
    delta = 0.05
    op_a = RescaledOperator(matrix=a, scale=1.0, delta=delta)
    op_b = RescaledOperator(matrix=b, scale=1.0, delta=delta)
    exp = chebyshev_coefficients(15, delta)
    true_diff = np.linalg.slogdet(a)[1] - np.linalg.slogdet(b)[1]
    shared, indep = [], []
    for seed in range(60):
        probes = rademacher_probes(40, 10, seed)
        shared.append(shared_probe_difference(op_a, op_b, exp, probes)[2])
        other = rademacher_probes(40, 10, seed + 10000)
        indep.append(estimate_logdet(op_a, exp, probes)
                     - estimate_logdet(op_b, exp, other))
    shared = np.array(shared)
    indep = np.array(indep)
    assert shared.var(ddof=1) < indep.var(ddof=1)
    assert abs(np.mean(shared) - true_diff) <= 5.0 * shared.std(ddof=1) + 1e-6


def test_probe_variance_bound_scalings():
    base = probe_variance_bound(0.05, 20, 0.3)
    assert base > 0
    assert abs(probe_variance_bound(0.05, 40, 0.3) - base / 2.0) <= 1e-12 * base
    assert abs(probe_variance_bound(0.05, 20, 0.6) - 4.0 * base) <= 1e-12 * base
    with pytest.raises(ValueError):
        probe_variance_bound(0.0, 20, 1.0)
    with pytest.raises(ValueError):
        probe_variance_bound(0.05, 0, 1.0)
