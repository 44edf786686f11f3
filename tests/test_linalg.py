"""Cholesky growth, conjugate gradients, Schur gains, and bordered operators."""

import numpy as np
import pytest

from dppmap._rng import substream
from dppmap.kernel import SyntheticConfig, generate_synthetic_kernel
from dppmap.linalg import (
    BorderedKernel,
    CholeskyFactor,
    _SharedBaseBordered,
    border_average,
    bordered_inverse_columns,
    cg_solve,
    cholesky_logdet,
    schur_marginal_gain,
)


def random_spd(dim, rng, lo=0.5, hi=5.0):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * rng.uniform(lo, hi, size=dim)) @ q.T
    return (a + a.T) / 2.0


def test_cholesky_logdet_identity():
    ld, _ = cholesky_logdet(np.eye(4))
    assert ld == 0.0


def test_cholesky_logdet_diagonal():
    ld, _ = cholesky_logdet(np.diag([2.0, 3.0]))
    assert abs(ld - np.log(6.0)) <= 1e-12
    assert abs(ld - 1.791759) <= 1e-6


def test_cholesky_logdet_matches_eigenvalues():
    a = random_spd(50, substream(0, "spd"))
    ld, _ = cholesky_logdet(a)
    assert abs(ld - np.log(np.linalg.eigvalsh(a)).sum()) <= 1e-8


def test_cholesky_logdet_rejects_indefinite():
    with pytest.raises(np.linalg.LinAlgError, match="pivot"):
        cholesky_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_extend_empty_factor():
    fac = CholeskyFactor(1)
    gain = fac.extend(None, 2.5)
    assert abs(fac.log_det - np.log(2.5)) <= 1e-12
    assert gain == fac.log_det


def test_extend_two_by_two():
    fac = CholeskyFactor.from_matrix(np.array([[2.0]]), capacity=2)
    gain = fac.extend(np.array([1.0]), 2.0)
    assert abs(fac.log_det - np.log(3.0)) <= 1e-12
    assert abs(gain - np.log(1.5)) <= 1e-12


def test_thirty_sequential_extensions():
    a = random_spd(30, substream(1, "spd"))
    fac = CholeskyFactor(30)
    for t in range(30):
        fac.extend(a[:t, t], a[t, t])
    ld, _ = cholesky_logdet(a)
    assert abs(fac.log_det - ld) <= 1e-8
    rebuilt = fac.lower @ fac.lower.T
    assert np.linalg.norm(rebuilt - a) <= 1e-8 * np.linalg.norm(a)


def test_extend_rejects_nonpositive_schur():
    fac = CholeskyFactor.from_matrix(np.array([[1.0]]), capacity=2)
    with pytest.raises(np.linalg.LinAlgError):
        fac.extend(np.array([2.0]), 1.0)  # Schur complement 1 - 4 < 0
    empty = CholeskyFactor(1)
    with pytest.raises(np.linalg.LinAlgError):
        empty.extend(None, 0.0)


def test_extend_block_matches_sequential():
    a = random_spd(9, substream(2, "spd"))
    block = CholeskyFactor.from_matrix(a[:6, :6], capacity=9)
    gain_blk = block.extend_block(a[:6, 6:], a[6:, 6:])
    seq = CholeskyFactor.from_matrix(a[:6, :6], capacity=9)
    gain_seq = sum(seq.extend(a[:t, t], a[t, t]) for t in range(6, 9))
    assert abs(gain_blk - gain_seq) <= 1e-10
    assert np.allclose(block.lower, seq.lower, atol=1e-10)


def test_gain_and_gain_many_agree():
    a = random_spd(12, substream(3, "spd"))
    fac = CholeskyFactor.from_matrix(a[:5, :5])
    borders = a[:5, 5:]
    corners = np.diag(a)[5:]
    many = fac.gain_many(borders, corners)
    for j in range(7):
        assert abs(many[j] - fac.gain(borders[:, j], corners[j])) <= 1e-12


def test_gain_reports_neg_inf_for_nonpositive_schur():
    ones = np.ones((2, 2))
    fac = CholeskyFactor.from_matrix(ones[:1, :1])
    assert fac.gain(ones[:1, 1], 1.0) == -np.inf
    assert fac.gain_many(ones[:1, 1:], np.array([1.0]))[0] == -np.inf
    assert fac.gain_block(ones[:1, 1:], np.array([[1.0]])) == -np.inf


def test_gain_block_many_matches_loop():
    a = random_spd(20, substream(4, "spd"))
    fac = CholeskyFactor.from_matrix(a[:8, :8])
    rng = substream(5, "batches")
    idx = np.array([np.sort(rng.choice(np.arange(8, 20), size=3, replace=False))
                    for _ in range(6)])
    borders = np.stack([a[:8, b] for b in idx], axis=1)  # (t, nb, k)
    corners = np.stack([a[np.ix_(b, b)] for b in idx])
    many = fac.gain_block_many(borders, corners)
    for j in range(6):
        assert abs(many[j] - fac.gain_block(a[:8, idx[j]], corners[j])) <= 1e-10


def test_cg_identity_single_iteration():
    b = substream(6, "rhs").standard_normal(7)
    report = cg_solve(np.eye(7), b)
    assert report.iterations == 1
    assert report.converged
    assert np.allclose(report.solution, b, atol=1e-12)


def test_cg_diagonal_exactness():
    a = np.diag(np.arange(1.0, 6.0))
    report = cg_solve(a, np.ones(5))
    assert report.iterations <= 5
    assert report.converged
    assert np.allclose(report.solution, 1.0 / np.arange(1.0, 6.0), atol=1e-10)


def test_cg_matches_direct_solve():
    rng = substream(7, "spd")
    a = random_spd(300, rng)
    b = rng.standard_normal(300)
    report = cg_solve(a, b, tol=1e-10, max_iter=300)
    direct = np.linalg.solve(a, b)
    assert np.linalg.norm(report.solution - direct) <= 1e-8 * np.linalg.norm(direct)


def test_cg_report_residual_recomputable():
    rng = substream(8, "spd")
    a = random_spd(40, rng)
    b = rng.standard_normal(40)
    report = cg_solve(a, b, tol=1e-10, max_iter=100)
    recomputed = np.linalg.norm(a @ report.solution - b)
    assert abs(report.residual_norm - recomputed) <= 1e-12


def test_cg_block_matches_single_column_solves():
    rng = substream(9, "spd")
    a = random_spd(30, rng)
    rhs = rng.standard_normal((30, 4))
    block = cg_solve(a, rhs, tol=1e-10, max_iter=100)
    assert block.converged
    assert block.col_iterations.shape == (4,)
    for j in range(4):
        single = cg_solve(a, rhs[:, j], tol=1e-10, max_iter=100)
        assert np.linalg.norm(block.solution[:, j] - single.solution) <= 1e-9


def test_cg_breakdown_raises():
    a = np.diag([1.0, -1.0])
    with pytest.raises(np.linalg.LinAlgError, match="breakdown"):
        cg_solve(a, np.array([0.0, 1.0]))


def test_cg_stops_at_max_iter_unconverged():
    rng = substream(10, "spd")
    a = random_spd(50, rng, lo=0.01, hi=100.0)
    report = cg_solve(a, rng.standard_normal(50), tol=1e-14, max_iter=2)
    assert report.iterations == 2
    assert not report.converged


def test_schur_gain_empty_selection():
    L = np.diag([3.0, 7.0])
    assert abs(schur_marginal_gain(L, [], 1) - np.log(7.0)) <= 1e-12


def test_schur_gain_two_by_two():
    L = np.array([[2.0, 1.0], [1.0, 2.0]])
    g = schur_marginal_gain(L, [0], 1)
    assert abs(g - np.log(1.5)) <= 1e-10
    assert abs(g - 0.405465) <= 1e-6


def test_schur_gain_matches_two_factorizations():
    rng = substream(11, "spd")
    L = random_spd(40, rng)
    sel = list(rng.choice(40, size=12, replace=False))
    i = next(j for j in range(40) if j not in sel)
    ld_small, _ = cholesky_logdet(L[np.ix_(sel, sel)])
    both = sel + [i]
    ld_big, _ = cholesky_logdet(L[np.ix_(both, both)])
    gain = schur_marginal_gain(L, sel, i)
    assert abs(gain - (ld_big - ld_small)) <= 1e-8


def test_schur_gain_nonpositive_is_neg_inf():
    L = np.ones((2, 2))
    assert schur_marginal_gain(L, [0], 1) == -np.inf


def test_schur_gain_rejects_selected_candidate():
    with pytest.raises(ValueError):
        schur_marginal_gain(np.eye(3), [0, 1], 1)


def test_border_average_single_member():
    L = random_spd(8, substream(12, "spd"))
    bk = border_average(L, [0, 3, 5], [6])
    assert np.array_equal(bk.border[:, 0], L[[0, 3, 5], 6])
    assert bk.corner[0, 0] == L[6, 6]
    assert bk.count == 1


def test_border_average_idempotent_for_equal_columns():
    L = random_spd(6, substream(13, "spd"))
    # make items 4 and 5 identical copies of each other
    L[5, :] = L[4, :]
    L[:, 5] = L[:, 4]
    L[5, 5] = L[4, 4]
    L[4, 5] = L[4, 4]
    L[5, 4] = L[4, 4]
    one = border_average(L, [0, 1], [4])
    two = border_average(L, [0, 1], [4, 5])
    assert np.array_equal(one.border, two.border)
    assert np.array_equal(one.corner, two.corner)


def test_border_average_is_entrywise_mean():
    L = random_spd(12, substream(14, "spd"))
    sel = [0, 2, 9]
    members = [3, 4, 5, 6, 7, 8, 10]
    bk = border_average(L, sel, members)
    manual_border = np.mean([L[sel, i] for i in members], axis=0)
    manual_corner = np.mean([L[i, i] for i in members])
    assert np.abs(bk.border[:, 0] - manual_border).max() <= 1e-15
    assert abs(bk.corner[0, 0] - manual_corner) <= 1e-15


def test_border_average_reuses_gathered_blocks():
    L = random_spd(10, substream(16, "spd"))
    sel = np.array([1, 4])
    members = np.array([2, 3, 5, 6])
    plain = border_average(L, sel, members)
    reused = border_average(
        L, sel, members,
        base=L[np.ix_(sel, sel)],
        columns=L[np.ix_(sel, members)],
    )
    assert np.array_equal(plain.base, reused.base)
    assert np.array_equal(plain.border, reused.border)
    assert np.array_equal(plain.corner, reused.corner)


def test_border_average_rejects_empty_members():
    with pytest.raises(ValueError):
        border_average(np.eye(4), [0], [])


def test_bordered_identity_inverse_columns():
    bk = BorderedKernel(base=np.eye(5), border=np.zeros((5, 2)), corner=np.eye(2))
    z, report = bordered_inverse_columns(bk)
    expected = np.zeros((7, 2))
    expected[5:, :] = np.eye(2)
    assert report.converged
    assert np.abs(z - expected).max() <= 1e-12


def test_bordered_two_by_two_inverse_column():
    bk = BorderedKernel(base=np.array([[2.0]]), border=np.array([[1.0]]),
                        corner=np.array([[2.0]]))
    z, _ = bordered_inverse_columns(bk)
    assert np.abs(z[:, 0] - np.array([-1.0 / 3.0, 2.0 / 3.0])).max() <= 1e-10


def test_bordered_inverse_columns_residual():
    rng = substream(17, "spd")
    full = random_spd(90, rng)
    bk = BorderedKernel(base=full[:80, :80], border=full[:80, 80:],
                        corner=full[80:, 80:])
    z, report = bordered_inverse_columns(bk, tol=1e-10, max_iter=200)
    e = np.zeros((90, 10))
    e[80:, :] = np.eye(10)
    assert report.converged
    assert np.linalg.norm(full @ z - e) <= 1e-8


def test_bordered_matmat_matches_assembled():
    rng = substream(18, "spd")
    full = random_spd(17, rng)
    bk = BorderedKernel(base=full[:13, :13], border=full[:13, 13:],
                        corner=full[13:, 13:])
    w = rng.standard_normal((17, 3))
    assert np.abs(bk.matmat(w) - bk.assemble() @ w).max() <= 1e-12

    corner_only = BorderedKernel(base=np.zeros((0, 0)), border=np.zeros((0, 2)),
                                 corner=np.array([[2.0, 0.5], [0.5, 1.0]]))
    v = rng.standard_normal((2, 4))
    assert np.abs(corner_only.matmat(v) - corner_only.corner @ v).max() <= 1e-12


def test_shared_base_bordered_matches_individual_kernels():
    rng = substream(19, "spd")
    base = random_spd(9, rng)
    kernels = [
        BorderedKernel(base=base, border=rng.standard_normal((9, 2)),
                       corner=random_spd(2, rng))
        for _ in range(3)
    ]
    width = 5
    w = rng.standard_normal((11, 3 * width))
    shared = _SharedBaseBordered(kernels, width)
    out = shared.matmat(w)
    for g, bk in enumerate(kernels):
        cols = slice(g * width, (g + 1) * width)
        assert np.abs(out[:, cols] - bk.matmat(w[:, cols])).max() <= 1e-12


def test_telescoping_gains_match_full_factorization():
    L = generate_synthetic_kernel(SyntheticConfig(dim=25, seed=3, monotone_shift=0.0))
    order = [7, 2, 19, 11, 0, 23]
    fac = CholeskyFactor(len(order))
    gains = []
    for stop, i in enumerate(order):
        prev = order[:stop]
        gains.append(fac.extend(L[prev, i], L[i, i]))
    ld, _ = cholesky_logdet(L[np.ix_(order, order)])
    assert abs(sum(gains) - ld) <= 1e-8
    assert abs(fac.log_det - ld) <= 1e-8
