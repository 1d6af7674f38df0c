"""Synthetic experiment inputs: undersampling masks and dynamic phantoms.

Everything here is deterministic for a fixed seed, so experiments are
reproducible down to the bit.
"""

import math

import numpy as np
from scipy.ndimage import gaussian_filter

from .core import ConfigError, DynamicImage, SamplingMask, _is_count

PHANTOM_KINDS = ("beating_rings", "rank_r_sparse")

# Default width of the Gaussian line-density profile, as a fraction of ny.
DEFAULT_SIGMA_FRAC = 0.15


def _check_count(name, value, low=0):
    """Raise ConfigError unless ``value`` is an integer (not a bool) >= ``low``."""
    if not (_is_count(value) and value >= low):
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def central_lines(ny: int, count: int = 4) -> np.ndarray:
    """Indices of the ``count`` central phase-encode lines.

    The DC line of the centered k-space sits at index ``ny//2``; the central
    block extends symmetrically with the extra line on the low side when
    ``count`` is even.  ``count`` must lie in ``[0, ny]``, so every index
    lies in ``[0, ny)``.
    """
    _check_count("ny", ny)
    if not (_is_count(count) and 0 <= count <= ny):
        raise ConfigError(f"count must be an integer in [0, ny = {ny}], got {count!r}")
    start = ny // 2 - count // 2
    return np.arange(start, start + count)


def make_vd_mask(
    ny: int,
    nt: int,
    acceleration: float,
    sigma_frac: float = DEFAULT_SIGMA_FRAC,
    seed: int = 0,
    per_frame: bool = True,
) -> SamplingMask:
    """Gaussian variable-density Cartesian phase-encode mask.

    For each frame, ``ceil(ny / acceleration)`` distinct lines are sampled
    without replacement with probability proportional to a zero-mean
    Gaussian over the line offset from the k-space center (standard
    deviation ``sigma_frac * ny``).  The 4 central lines are always sampled
    and count toward the per-frame budget.  Sampling without replacement is
    done with Gumbel-top-k on the line weights, which draws the exact budget
    deterministically under the seed.

    Parameters
    ----------
    ny : int
        Number of phase-encode lines, >= 8.
    nt : int
        Number of frames, >= 1.
    acceleration : float
        Nominal acceleration factor, >= 1.
    sigma_frac : float
        Width of the Gaussian density as a fraction of ny.
    seed : int
        Seed for the random draw.
    per_frame : bool
        Draw an independent line set per frame (default).  If False, one
        pattern is drawn and repeated for every frame.
    """
    _check_count("ny", ny, 8)
    _check_count("nt", nt, 1)
    _check_count("seed", seed)
    if not acceleration >= 1:
        raise ConfigError(f"acceleration must be >= 1, got {acceleration}")
    if not sigma_frac > 0:
        raise ConfigError(f"sigma_frac must be > 0, got {sigma_frac}")
    budget = math.ceil(ny / float(acceleration))
    center = central_lines(ny)
    if budget < center.size:
        raise ConfigError(
            f"acceleration {acceleration} leaves a budget of {budget} lines, "
            f"fewer than the {center.size} guaranteed central lines"
        )

    rng = np.random.default_rng(seed)
    offsets = np.arange(ny) - ny // 2
    sigma = sigma_frac * ny
    log_weight = -0.5 * (offsets / sigma) ** 2
    others = np.setdiff1d(np.arange(ny), center)
    n_extra = budget - center.size

    entries = np.zeros((ny, nt), dtype=np.uint8)
    n_draws = nt if per_frame else 1
    for j in range(n_draws):
        entries[center, j] = 1
        if n_extra > 0:
            keys = log_weight[others] + rng.gumbel(size=others.size)
            top = others[np.argpartition(keys, -n_extra)[-n_extra:]]
            entries[top, j] = 1
    if not per_frame:
        entries = np.repeat(entries[:, :1], nt, axis=1)
    return SamplingMask(entries, float(acceleration))


def _smooth_complex_field(rng, nx, ny):
    """Smooth zero-centered complex random field with peak magnitude 1."""
    raw = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
    sigma = max(min(nx, ny) / 8.0, 1.0)
    smooth = gaussian_filter(raw.real, sigma) + 1j * gaussian_filter(raw.imag, sigma)
    peak = np.abs(smooth).max()
    if peak == 0:
        return np.ones((nx, ny), dtype=np.complex128)
    return smooth / peak


def _phase_ramp(nx, ny):
    x = np.arange(nx)[:, None]
    y = np.arange(ny)[None, :]
    phase = 2.0 * np.pi * (0.13 * x / nx + 0.07 * y / ny)
    return np.exp(1j * phase)


def _rank_r_sparse(rng, nx, ny, nt, rank, sparsity):
    if not (_is_count(rank) and 1 <= rank <= nt):
        raise ConfigError(f"rank must lie in [1, nt={nt}], got {rank}")
    _check_count("sparsity", sparsity, 1)
    if rank * sparsity > nt:
        raise ConfigError(
            f"rank * sparsity = {rank * sparsity} exceeds nt = {nt}; "
            "disjoint temporal supports need rank*sparsity <= nt"
        )
    # Spatial modes: smooth fields offset away from zero so every pixel
    # carries every temporal profile (peak field magnitude is 1, so the
    # offset keeps |mode| >= 0.2 everywhere).
    modes = np.empty((nx * ny, rank), dtype=np.complex128)
    for i in range(rank):
        a = _smooth_complex_field(rng, nx, ny) + 1.2
        modes[:, i] = a.reshape(nx * ny, order="F")
    # Temporal profiles: disjoint Fourier supports make the profiles exactly
    # orthogonal, so the Casorati rank is exactly `rank`.
    bins = rng.permutation(nt)[: rank * sparsity].reshape(rank, sparsity)
    profiles = np.empty((nt, rank), dtype=np.complex128)
    for i in range(rank):
        spec = np.zeros(nt, dtype=np.complex128)
        amp = rng.uniform(0.5, 1.5, size=sparsity)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=sparsity)
        spec[bins[i]] = amp * np.exp(1j * phase)
        profiles[:, i] = np.fft.ifft(spec, norm="ortho")
    casorati = modes @ profiles.T
    return casorati.reshape((nx, ny, nt), order="F")


def _beating_rings(nx, ny, nt):
    x = np.arange(nx)[:, None]
    y = np.arange(ny)[None, :]
    cx, cy = nx / 2.0, ny / 2.0
    rmax = min(nx, ny) / 2.0
    background = 0.6 * np.exp(-(((x - cx) / (0.6 * nx)) ** 2 + ((y - cy) / (0.6 * ny)) ** 2) * 4.0)
    width = 0.08 * rmax
    frames = np.empty((nx, ny, nt), dtype=np.float64)
    for t in range(nt):
        theta = 2.0 * np.pi * t / nt
        radius = 0.45 * rmax * (1.0 + 0.22 * np.sin(theta))
        ctr_x = cx + 0.06 * rmax * np.cos(theta)
        dist = np.hypot(x - ctr_x, y - cy)
        ring = np.exp(-((dist - radius) ** 2) / (2.0 * width**2))
        frames[:, :, t] = background + ring
    return frames.astype(np.complex128)


def make_phantom(
    nx: int,
    ny: int,
    nt: int,
    kind: str = "beating_rings",
    seed: int = 0,
    rank: int = 1,
    sparsity: int = 1,
) -> DynamicImage:
    """Synthetic dynamic phantom, normalized to peak magnitude 1.

    ``beating_rings`` produces piecewise-smooth frames with a sinusoidally
    dilating and slightly translating ring, a cardiac-like motion pattern.
    ``rank_r_sparse`` builds the Casorati matrix from ``rank`` smooth random
    spatial modes times temporal profiles that are each ``sparsity``-sparse
    in the temporal Fourier basis, so the result has exactly the advertised
    rank and temporal sparsity by construction.  Both kinds carry a smooth
    spatial phase ramp so conjugation bugs in complex-valued code paths
    show up in tests.
    """
    if kind not in PHANTOM_KINDS:
        raise ConfigError(f"unknown phantom kind {kind!r}; valid kinds: {', '.join(PHANTOM_KINDS)}")
    for name, n in (("nx", nx), ("ny", ny), ("nt", nt)):
        _check_count(name, n, 8)
    _check_count("seed", seed)
    rng = np.random.default_rng(seed)
    if kind == "beating_rings":
        vol = _beating_rings(nx, ny, nt)
    else:
        vol = _rank_r_sparse(rng, nx, ny, nt, rank, sparsity)
    vol = vol * _phase_ramp(nx, ny)[:, :, None]
    vol /= np.abs(vol).max()
    return DynamicImage(vol)
