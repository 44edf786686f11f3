"""Kernel construction, spectral bounds, and kernel file I/O.

The synthetic ensemble is a quality/diversity Gram kernel: unit feature
vectors with log-linear quality weights, optionally shifted by a multiple of
the identity so the smallest eigenvalue exceeds one (which makes the greedy
objective monotone).

``spectral_bounds`` brackets a kernel's spectrum for the log-det estimator.
Its upper bound is always the certified Gershgorin bound; ``method`` names
where the lower end came from: ``"gershgorin"`` (certified),
``"floor-witness"`` (a Lanczos Ritz value at or below the estimator's delta
floor; certified for PSD input) or ``"lanczos-estimate"`` (half the smallest
Ritz value; an estimate, not a certificate).
"""

import struct
from dataclasses import dataclass

import numpy as np

from ._rng import check_seed, substream
from .logdet import DELTA_FLOOR

__all__ = [
    "SyntheticConfig",
    "SpectralBounds",
    "KernelFormatError",
    "generate_synthetic_kernel",
    "validate_kernel",
    "spectral_bounds",
    "save_kernel",
    "load_kernel",
    "load_kernel_text",
]

_MAGIC = b"DPPK"
_VERSION = 1
_LANCZOS_STEPS = 60
_LANCZOS_RTOL = 1e-3  # Ritz residual / theta; 1e-2 misses lambda_min on some matrices
_LANCZOS_BREAKDOWN = 1e-12  # beta / upper below which the Krylov space is invariant
_GERSHGORIN_ROWS = 256


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic quality/diversity kernel.

    Entry (i, j) is q_i q_j <phi_i, phi_j> with ||phi_i|| = 1 and
    q_i = exp(quality_slope * x_i + quality_offset), x_i standard normal.
    ``feature_dim`` defaults to ``dim``; ``monotone_shift`` is added to the
    diagonal.
    """

    dim: int
    seed: int = 0
    quality_slope: float = 0.01
    quality_offset: float = 0.2
    monotone_shift: float = 1.01
    feature_dim: int = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.feature_dim is not None and self.feature_dim < 1:
            raise ValueError(f"feature_dim must be positive, got {self.feature_dim}")
        if self.monotone_shift < 0:
            raise ValueError("monotone_shift must be nonnegative")
        check_seed(self.seed)


@dataclass(frozen=True)
class SpectralBounds:
    """An interval [lower, upper] containing the spectrum, and how it was found."""

    lower: float
    upper: float
    method: str

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(f"empty bound interval [{self.lower}, {self.upper}]")


class KernelFormatError(ValueError):
    """Raised for malformed kernel files; carries the failing byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def generate_synthetic_kernel(config):
    """Build the synthetic kernel for ``config`` (deterministic in the seed).

    Feature and quality draws come from independent named substreams, so the
    same seed always produces the same kernel regardless of what else consumed
    randomness.
    """
    d = config.dim
    f = config.feature_dim or d
    feats = substream(config.seed, "features").standard_normal((d, f))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    x = substream(config.seed, "qualities").standard_normal(d)
    q = np.exp(config.quality_slope * x + config.quality_offset)
    a = q[:, None] * feats
    # numpy computes a @ a.T with one syrk and mirrors its triangle, so L is
    # exactly symmetric with no averaging pass (tests/test_kernel.py checks).
    L = a @ a.T
    if config.monotone_shift:
        L[np.diag_indices(d)] += config.monotone_shift
    return L


def validate_kernel(L):
    """Check shape, finiteness, and symmetry; returns the array unchanged."""
    L = np.asarray(L)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"kernel must be square, got shape {L.shape}")
    if L.shape[0] < 1:
        raise ValueError("kernel must have positive dimension")
    if not np.isfinite(L).all():
        raise ValueError("kernel contains non-finite entries")
    denom = np.maximum(1.0, np.abs(L))
    if not (np.abs(L - L.T) <= 1e-12 * denom).all():
        i, j = np.unravel_index(np.argmax(np.abs(L - L.T)), L.shape)
        raise ValueError(f"kernel is not symmetric at ({i}, {j})")
    return L


def spectral_bounds(L):
    """Bound the spectrum of PSD ``L``; ``method`` says how the lower end was found.

    The upper bound is the Gershgorin row bound, which is certified.  The lower
    end comes from one of three methods:

    - ``"gershgorin"``: the Gershgorin lower bound, when it is positive.  A
      certificate.
    - ``"floor-witness"``: otherwise Lanczos runs on ``L`` (full
      reorthogonalization, at most min(d, 60) matvecs, started at the all-ones
      vector).  When the Krylov space closes on an invariant subspace (beta
      at most 1e-12 * upper), it restarts from a vector of the named
      substream ``"lanczos-restart"`` orthogonal to every earlier Lanczos
      vector, so a bottom eigenvector orthogonal to the start is still
      reached; theta below is the smallest Ritz value over every block so
      far.  Once the smallest Ritz value theta is at most
      ``DELTA_FLOOR * upper`` the lower bound returned is 0.0.  Theta is a
      Rayleigh quotient, so lambda_min <= theta: every valid lower bound then
      rescales to at most ``DELTA_FLOOR``, where the log-det estimator clamps
      delta anyway.  A certificate, for PSD ``L``.
    - ``"lanczos-estimate"``: otherwise Lanczos stops once the smallest Ritz
      pair of the current block has a residual of at most 1e-3 times its
      value, or after min(d, 60) steps, and returns 0.5 * theta.  Theta
      tends to overestimate lambda_min, hence the safety factor; this is an
      estimate, not a certificate.  The label stays: certifying it needs a
      Cholesky factor of L - lambda I, d^3/3 flops (about 5 s at d=8000),
      and no solver uses these bounds, only the log-det estimator.  The lower
      bound reaches the estimator only through ``rescale_spectrum``, whose
      delta = max(min(DELTA_TARGET, c * lower), DELTA_FLOOR) with
      c = (1 - DELTA_TARGET) / upper depends on it only when
      c * lower < DELTA_TARGET.

    Raises ``LinAlgError`` when a Ritz value falls below -1e-8 * upper, which
    proves ``L`` is not PSD.
    """
    L = np.asarray(L, dtype=float)
    d = L.shape[0]
    diag = np.diag(L)
    radii = np.empty(d)
    for start in range(0, d, _GERSHGORIN_ROWS):  # |L| one block at a time, not d x d
        block = slice(start, start + _GERSHGORIN_ROWS)
        radii[block] = np.abs(L[block]).sum(axis=1)
    radii -= np.abs(diag)
    upper = float(np.max(diag + radii))
    lower = float(np.min(diag - radii))
    if lower > 0:
        return SpectralBounds(lower=lower, upper=upper, method="gershgorin")
    steps = min(d, _LANCZOS_STEPS)
    basis = np.empty((steps, d))  # Lanczos vectors, one per row
    tri = np.zeros((steps, steps))  # the Lanczos tridiagonal matrix
    q = np.ones(d) / np.sqrt(d)
    start = 0  # first step of the current Krylov block
    closed = np.inf  # smallest Ritz value of the invariant subspaces closed so far
    restarts = substream(0, "lanczos-restart")
    for j in range(steps):
        basis[j] = q
        w = L @ q
        tri[j, j] = q @ w
        for _ in range(2):  # full reorthogonalization; one pass lets errors grow
            w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        beta = np.linalg.norm(w)
        ritz, vecs = np.linalg.eigh(tri[start : j + 1, start : j + 1])
        theta = min(closed, float(ritz[0]))
        if theta < -1e-8 * upper:
            raise np.linalg.LinAlgError(
                f"kernel is not positive semidefinite: Ritz value {theta:.6g}")
        if theta <= DELTA_FLOOR * upper:
            return SpectralBounds(lower=0.0, upper=upper, method="floor-witness")
        if j + 1 == steps:
            break
        if beta <= _LANCZOS_BREAKDOWN * upper:
            # The Krylov space is invariant: its Ritz values are eigenvalues,
            # but the rest of the spectrum is unseen.  Restart orthogonally.
            closed, start = theta, j + 1
            q = restarts.standard_normal(d)
            for _ in range(2):
                q -= basis[: j + 1].T @ (basis[: j + 1] @ q)
            q /= np.linalg.norm(q)
            continue
        if beta * abs(vecs[-1, 0]) <= _LANCZOS_RTOL * ritz[0]:
            break
        tri[j, j + 1] = tri[j + 1, j] = beta
        q = w / beta
    return SpectralBounds(lower=0.5 * theta, upper=upper, method="lanczos-estimate")


def save_kernel(path, L):
    """Write a kernel in the binary format: magic, version, dim, row-major f64."""
    L = validate_kernel(np.ascontiguousarray(L, dtype="<f8"))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", L.shape[0]))
        fh.write(L.tobytes())


def load_kernel(path):
    """Read a binary kernel file; malformed input raises KernelFormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != _MAGIC:
        raise KernelFormatError("bad magic, expected b'DPPK'", 0)
    if len(data) < 8:
        raise KernelFormatError("truncated version field", 4)
    (version,) = struct.unpack_from("<I", data, 4)
    if version != _VERSION:
        raise KernelFormatError(f"unsupported version {version}", 4)
    if len(data) < 16:
        raise KernelFormatError("truncated dimension field", 8)
    (dim,) = struct.unpack_from("<Q", data, 8)
    if dim < 1:
        raise KernelFormatError(f"nonpositive dimension {dim}", 8)
    expected = 16 + dim * dim * 8
    if len(data) < expected:
        raise KernelFormatError(
            f"truncated payload: expected {expected - 16} bytes, found {len(data) - 16}",
            len(data),
        )
    if len(data) > expected:
        raise KernelFormatError(f"{len(data) - expected} trailing bytes", expected)
    flat = np.frombuffer(data, dtype="<f8", count=dim * dim, offset=16)
    return flat.reshape(dim, dim).astype(float)


def load_kernel_text(path):
    """Read a kernel from comma-separated plain text (one row per line)."""
    try:
        L = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise ValueError(f"could not parse {path} as comma-separated floats: {exc}")
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"text kernel is not square: shape {L.shape}")
    return L
