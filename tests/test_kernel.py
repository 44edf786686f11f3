"""Synthetic kernel generator, spectral bounds, and kernel file round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppmap._rng import substream
from dppmap.kernel import (
    KernelFormatError,
    SyntheticConfig,
    generate_synthetic_kernel,
    load_kernel,
    load_kernel_text,
    save_kernel,
    spectral_bounds,
    validate_kernel,
)


def quality_oracle(config):
    # same substream the generator consumes, recomputed independently
    x = substream(config.seed, "qualities").standard_normal(config.dim)
    return np.exp(config.quality_slope * x + config.quality_offset)


def test_single_item_kernel_is_squared_quality():
    config = SyntheticConfig(dim=1, seed=42, monotone_shift=0.0)
    L = generate_synthetic_kernel(config)
    q = quality_oracle(config)
    assert L.shape == (1, 1)
    assert L[0, 0] > 0
    assert abs(L[0, 0] - q[0] ** 2) <= 1e-12 * q[0] ** 2


def test_default_parameters():
    config = SyntheticConfig(dim=5)
    assert config.quality_slope == 0.01
    assert config.quality_offset == 0.2
    assert config.monotone_shift == 1.01
    assert config.feature_dim is None  # meaning: same as dim


def test_entries_match_direct_recomputation():
    config = SyntheticConfig(dim=50, seed=9, monotone_shift=0.0, feature_dim=50)
    L = generate_synthetic_kernel(config)
    feats = substream(config.seed, "features").standard_normal((50, 50))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    q = quality_oracle(config)
    direct = (q[:, None] * feats) @ (q[:, None] * feats).T
    direct = (direct + direct.T) / 2.0
    assert np.allclose(L, direct, rtol=0, atol=1e-14)
    assert np.allclose(np.diag(L), q**2, rtol=1e-12)
    # Cauchy-Schwarz: |<phi_i, phi_j>| <= 1
    assert (np.abs(L) <= np.outer(q, q) + 1e-12).all()


def test_kernel_is_symmetric_positive_definite():
    # The generator leaves symmetry to numpy's a @ a.T (one syrk, mirrored),
    # so these shapes, most with fewer features than items and one odd, fail
    # loudly if a numpy or BLAS change stops returning an exactly symmetric
    # product.
    for dim, feature_dim in [(80, None), (500, 64), (64, 16), (201, 33)]:
        L = generate_synthetic_kernel(
            SyntheticConfig(dim=dim, seed=1, feature_dim=feature_dim))
        validate_kernel(L)
        assert np.array_equal(L, L.T), (dim, feature_dim)
        assert np.linalg.eigvalsh(L).min() > 1.0  # default shift 1.01 guarantees this


def test_monotone_shift_translates_spectrum():
    base = generate_synthetic_kernel(SyntheticConfig(dim=60, seed=4, monotone_shift=0.0))
    shifted = generate_synthetic_kernel(SyntheticConfig(dim=60, seed=4, monotone_shift=1.5))
    eb = np.linalg.eigvalsh(base)
    es = np.linalg.eigvalsh(shifted)
    assert np.abs(es - (eb + 1.5)).max() <= 1e-8


def test_generator_determinism():
    a = generate_synthetic_kernel(SyntheticConfig(dim=40, seed=123))
    b = generate_synthetic_kernel(SyntheticConfig(dim=40, seed=123))
    assert a.tobytes() == b.tobytes()
    c = generate_synthetic_kernel(SyntheticConfig(dim=40, seed=124))
    assert a.tobytes() != c.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(dim=0)
    with pytest.raises(ValueError):
        SyntheticConfig(dim=3, feature_dim=0)
    with pytest.raises(ValueError):
        SyntheticConfig(dim=3, monotone_shift=-0.1)
    with pytest.raises(ValueError):
        SyntheticConfig(dim=3, seed=-1)


def test_spectral_bounds_identity_exact():
    bounds = spectral_bounds(np.eye(5))
    assert bounds.method == "gershgorin"
    assert bounds.lower == 1.0
    assert bounds.upper == 1.0


def test_spectral_bounds_diagonal():
    bounds = spectral_bounds(np.diag([2.0, 10.0]))
    assert bounds.lower <= 2.0
    assert bounds.upper >= 10.0
    assert bounds.method == "gershgorin"


def test_spectral_bounds_contain_synthetic_spectrum():
    L = generate_synthetic_kernel(SyntheticConfig(dim=100, seed=5))
    bounds = spectral_bounds(L)
    eigs = np.linalg.eigvalsh(L)
    assert bounds.lower <= eigs.min()
    assert eigs.max() <= bounds.upper


def test_spectral_bounds_sound_on_random_matrices():
    rng = substream(7, "bound-check")
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = rng.uniform(0.05, 4.0, size=d)
        a = (q * eigs) @ q.T
        a = (a + a.T) / 2.0
        bounds = spectral_bounds(a)
        true = np.linalg.eigvalsh(a)
        if not (bounds.lower <= true.min() and true.max() <= bounds.upper):
            violations += 1
    assert violations == 0


def test_spectral_bounds_rejects_indefinite_input():
    # eigenvalues 3 and (1 +- sqrt(17)) / 2; Gershgorin's lower bound is -2
    a = np.array([[1.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    with pytest.raises(np.linalg.LinAlgError, match="Ritz value"):
        spectral_bounds(a)


def test_spectral_bounds_floor_witness_on_rank_deficient_kernel():
    L = generate_synthetic_kernel(
        SyntheticConfig(dim=40, seed=0, feature_dim=8, monotone_shift=0.0))
    bounds = spectral_bounds(L)
    assert bounds.method == "floor-witness"
    assert bounds.lower == 0.0


@pytest.mark.parametrize("L", [
    np.ones((2, 2)),
    np.kron(np.eye(3), np.ones((2, 2))),
    np.kron(np.eye(50), np.ones((4, 4))) + 0.05 * np.eye(200),
], ids=["ones-2", "blocks-3x2", "blocks-50x4-shifted"])
def test_spectral_bounds_reach_bottom_orthogonal_to_start(L):
    # the all-ones start vector is an eigenvector of the top eigenvalue, so
    # Lanczos closes after one step unless it restarts
    bounds = spectral_bounds(L)
    lam_min = np.linalg.eigvalsh(L).min()
    assert bounds.method == "floor-witness" or bounds.lower <= lam_min


@settings(derandomize=True, deadline=None, max_examples=300)
@given(d=st.integers(1, 40), data=st.data())
def test_spectral_bounds_certificates_hold(d, data):
    feature_dim = data.draw(st.integers(1, d))
    shift = data.draw(st.sampled_from([0.0, 1.01]))
    seed = data.draw(st.integers(0, 2**16))
    L = generate_synthetic_kernel(SyntheticConfig(
        dim=d, seed=seed, feature_dim=feature_dim, monotone_shift=shift))
    bounds = spectral_bounds(L)
    eigs = np.linalg.eigvalsh(L)
    rounding = 1e-12 * bounds.upper  # eigvalsh's own error
    assert eigs[-1] <= bounds.upper + rounding
    if bounds.method == "floor-witness":
        assert eigs[0] <= 1e-4 * bounds.upper + rounding
    if bounds.method == "gershgorin":
        assert bounds.lower <= eigs[0] + rounding


def test_kernel_roundtrip_identity(tmp_path):
    path = tmp_path / "eye.dppk"
    save_kernel(path, np.eye(3))
    back = load_kernel(path)
    assert back.tobytes() == np.eye(3).tobytes()


def test_kernel_roundtrip_synthetic(tmp_path):
    L = generate_synthetic_kernel(SyntheticConfig(dim=200, seed=8))
    path = tmp_path / "k.dppk"
    save_kernel(path, L)
    back = load_kernel(path)
    assert back.tobytes() == L.tobytes()


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.dppk"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(KernelFormatError) as err:
        load_kernel(path)
    assert err.value.offset == 0


def test_load_rejects_bad_version(tmp_path):
    import struct

    path = tmp_path / "v9.dppk"
    path.write_bytes(b"DPPK" + struct.pack("<I", 9) + struct.pack("<Q", 1) + bytes(8))
    with pytest.raises(KernelFormatError) as err:
        load_kernel(path)
    assert err.value.offset == 4


def test_load_rejects_truncation(tmp_path):
    import struct

    header = b"DPPK" + struct.pack("<I", 1) + struct.pack("<Q", 3)
    short = header + bytes(8 * 5)  # 3x3 kernel needs 72 payload bytes
    path = tmp_path / "short.dppk"
    path.write_bytes(short)
    with pytest.raises(KernelFormatError) as err:
        load_kernel(path)
    assert err.value.offset == len(short)

    path2 = tmp_path / "noheader.dppk"
    path2.write_bytes(b"DPPK" + struct.pack("<I", 1))
    with pytest.raises(KernelFormatError) as err:
        load_kernel(path2)
    assert err.value.offset == 8


def test_load_rejects_trailing_bytes(tmp_path):
    import struct

    payload = np.eye(2).astype("<f8").tobytes()
    blob = b"DPPK" + struct.pack("<I", 1) + struct.pack("<Q", 2) + payload + b"x"
    path = tmp_path / "trail.dppk"
    path.write_bytes(blob)
    with pytest.raises(KernelFormatError) as err:
        load_kernel(path)
    assert err.value.offset == len(blob) - 1


def test_load_rejects_zero_dimension(tmp_path):
    import struct

    path = tmp_path / "zero.dppk"
    path.write_bytes(b"DPPK" + struct.pack("<I", 1) + struct.pack("<Q", 0))
    with pytest.raises(KernelFormatError) as err:
        load_kernel(path)
    assert err.value.offset == 8


def test_load_kernel_text(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("2.0,1.0\n1.0,2.0\n")
    L = load_kernel_text(path)
    assert np.array_equal(L, np.array([[2.0, 1.0], [1.0, 2.0]]))

    bad = tmp_path / "rect.csv"
    bad.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(ValueError):
        load_kernel_text(bad)

    junk = tmp_path / "junk.csv"
    junk.write_text("hello,world\n")
    with pytest.raises(ValueError):
        load_kernel_text(junk)


def test_validate_kernel_failures():
    with pytest.raises(ValueError):
        validate_kernel(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        validate_kernel(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        validate_kernel(np.array([[1.0, 0.5], [0.3, 1.0]]))
