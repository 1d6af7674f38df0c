"""Image quality metrics for complex space-time volumes.

MSE and PSNR operate on the raw complex arrays; SSIM follows common
practice and compares magnitude images frame by frame with an 11x11
Gaussian window (sigma 1.5) and the canonical stabilizing constants.
The window is the outer product of a 1D Gaussian with itself, so it is
applied as two 1D passes.
"""

import math

import numpy as np

from .core import DataError, DimensionError, DynamicImage, _SlabScratch, _split_rows

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _check_dims(ref: DynamicImage, rec: DynamicImage):
    if ref.shape != rec.shape:
        raise DimensionError(f"shape mismatch: reference {ref.shape} vs reconstruction {rec.shape}")


def _abs2(arr, out=None, tmp=None):
    """``re*re + im*im`` of ``arr`` into the real ``out``; ``tmp`` is real scratch; None allocates."""
    out = np.multiply(arr.real, arr.real, out=out)
    return np.add(out, np.multiply(arr.imag, arr.imag, out=tmp), out=out)


def _norm2(arr, pair=None) -> float:
    """``sum(re*re + im*im)`` of ``arr``; ``pair`` holds two real scratch volumes, or is None."""
    return float(_abs2(arr, *(pair if pair is not None else (None, None))).sum())


def _abs_max(arr):
    """``max |arr|`` of a volume, the largest of the maxima of its x-row slabs; inf where a magnitude overflows.

    A NaN anywhere gives NaN, whatever order the slabs finish in.
    """
    maxima = []

    def slab_max(rows):
        maxima.append(np.abs(arr[rows]).max())

    with np.errstate(over="ignore"):  # the pool threads copy the caller's error state
        _split_rows(slab_max, arr.shape[0], arr.nbytes)
    return float(np.max(maxima))


def _scaled_error(ref: DynamicImage, rec: DynamicImage):
    """``(e, err2, peak)``: :func:`mse` of ``ref`` and ``rec`` is ``err2 * 2**(2e)``, and ``peak`` is ``max|ref|``.

    The difference is scaled by ``2**-e`` before it is squared, where
    ``2**e`` bounds its largest magnitude, so no square overflows.  Scaling
    by a power of two is exact, so ``err2 * 2**(2e)`` has the bits of the
    unscaled sum wherever that one neither overflows nor underflows.

    Two passes run on x-row slabs (:func:`~dynlr.core._split_rows`), each
    slab's difference in a per-thread slab buffer: the first takes the slab
    maxima of ``|ref - rec|`` and ``|ref|``, the second writes each scaled
    ``|ref - rec|^2`` into one real volume laid out as numpy lays out
    ``ref.data - rec.data``, whose one ``sum()`` then has the bits of the
    sum over that difference, for C- and F-ordered inputs alike.
    """
    _check_dims(ref, rec)
    a, b = ref.data, rec.data
    scratch = _SlabScratch(a)
    maxima = []

    def slab_maxima(rows):
        diff = np.subtract(a[rows], b[rows], out=scratch(rows))
        maxima.append((float(np.abs(diff).max()), float(np.abs(a[rows]).max())))

    # The real volume that numpy's ``a - b`` would lay out, for a float64 result.
    squares = np.nditer(
        [a, b, None], op_flags=[["readonly"], ["readonly"], ["writeonly", "allocate"]],
        op_dtypes=[None, None, np.float64],
    ).operands[2]

    def slab_squares(rows):
        diff = np.subtract(a[rows], b[rows], out=scratch(rows))
        np.ldexp(diff.real, -e, out=diff.real)
        np.ldexp(diff.imag, -e, out=diff.imag)
        sq = np.square(diff.view(np.float64), out=diff.view(np.float64))
        np.add(sq[..., 0::2], sq[..., 1::2], out=squares[rows])

    with np.errstate(over="ignore"):  # only magnitudes beyond the largest float become inf
        _split_rows(slab_maxima, a.shape[0], a.nbytes)
        e = math.frexp(max(m for m, _ in maxima))[1]
        _split_rows(slab_squares, a.shape[0], a.nbytes)
    return e, float(squares.sum()), max(p for _, p in maxima)


def _unscaled(value, e):
    """``value * 2**e``; inf where that overflows."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, e))


def mse(ref: DynamicImage, rec: DynamicImage) -> float:
    """Squared L2 norm of the complex difference, summed over all elements.

    Note this is the unnormalized squared error, not divided by the element
    count; see :func:`mse_per_element` for the per-element convention.  It
    is ``inf`` when the sum exceeds the largest float.
    """
    e, err2, _ = _scaled_error(ref, rec)
    return _unscaled(err2, 2 * e)


def mse_per_element(ref: DynamicImage, rec: DynamicImage) -> float:
    """Mean squared error per element (``mse / N``)."""
    return mse(ref, rec) / ref.data.size


def _mse_psnr(ref: DynamicImage, rec: DynamicImage):
    """:func:`mse` and :func:`psnr` of ``rec`` against ``ref``, from the same two passes."""
    e, err2, peak = _scaled_error(ref, rec)
    if peak == 0:
        raise DataError("PSNR undefined for an all-zero reference")
    err = _unscaled(math.sqrt(err2), e)
    if err == 0:
        return 0.0, math.inf
    ratio = peak * math.sqrt(ref.data.size) / err
    return _unscaled(err2, 2 * e), 20.0 * math.log10(ratio) if ratio > 0 else -math.inf


def psnr(ref: DynamicImage, rec: DynamicImage) -> float:
    """Peak signal-to-noise ratio in dB.

    ``20 * log10(max|ref| * sqrt(N) / ||ref - rec||_2)`` with N the total
    element count.  Returns ``math.inf`` when the volumes are identical, and
    ``-math.inf`` when the error norm exceeds the largest float.
    """
    return _mse_psnr(ref, rec)[1]


def fits_ssim_window(img: DynamicImage) -> bool:
    """Whether the frames of ``img`` are large enough for :func:`ssim`."""
    return img.nx >= SSIM_WINDOW and img.ny >= SSIM_WINDOW


def _gaussian_kernel(size, sigma):
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma**2))
    return g / g.sum()


def _window_mean(frame, g):
    """Correlate ``frame`` with the window ``outer(g, g)``, edges extended."""
    # Imported here: scipy.ndimage is most of the time of `import dynlr`.
    from scipy.ndimage import correlate1d

    rows = correlate1d(frame, g, axis=0, mode="nearest")
    return correlate1d(rows, g, axis=1, mode="nearest")


def _ssim_frame(mag_ref, mag_rec, c1, c2, g):
    margin = g.size // 2
    mu_r = _window_mean(mag_ref, g)
    mu_c = _window_mean(mag_rec, g)
    s_rr = _window_mean(mag_ref * mag_ref, g) - mu_r * mu_r
    s_cc = _window_mean(mag_rec * mag_rec, g) - mu_c * mu_c
    s_rc = _window_mean(mag_ref * mag_rec, g) - mu_r * mu_c
    num = (2.0 * mu_r * mu_c + c1) * (2.0 * s_rc + c2)
    den = (mu_r**2 + mu_c**2 + c1) * (s_rr + s_cc + c2)
    ssim_map = num / den
    interior = ssim_map[margin:-margin, margin:-margin]
    return float(interior.mean())


# Scaled magnitudes of the reconstruction above this count as this.  The
# variances' rounding then stays far below c2, so no denominator reaches 0.
_SSIM_CAP = 2.0**16


def ssim(ref: DynamicImage, rec: DynamicImage) -> float:
    """Mean structural similarity of the magnitude images.

    Computed per frame with an 11x11 Gaussian window (sigma 1.5), constants
    K1 = 0.01 and K2 = 0.03, and dynamic range equal to the maximum
    magnitude of the reference over the whole volume; frame values are
    averaged over time.  Only the interior where the window fits entirely
    inside the frame contributes.  The result lies in [-1, 1] and equals 1
    exactly when the magnitudes are identical.

    The magnitudes are scaled by the power of two that brings the dynamic
    range into [0.5, 1), which is exact and leaves the value as it is, so
    no square overflows; a scaled reconstruction magnitude above ``2**16``
    (a reconstruction tens of thousands of times brighter than the
    reference) counts as ``2**16``.  The frames run on the threads of
    :func:`~dynlr.core._split_rows`.
    """
    _check_dims(ref, rec)
    if not fits_ssim_window(ref):
        raise DimensionError(
            f"frames of shape ({ref.nx}, {ref.ny}) are smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
        )
    # Frame-major, so that each frame is one contiguous block.
    mag_ref, mag_rec = np.empty((2, ref.nt, ref.nx, ref.ny))

    def magnitudes(frames):
        with np.errstate(over="ignore"):  # only magnitudes beyond the largest float become inf
            for t in range(frames.start, frames.stop):
                np.abs(ref.data[:, :, t], out=mag_ref[t])
                np.abs(rec.data[:, :, t], out=mag_rec[t])

    _split_rows(magnitudes, ref.nt, ref.data.nbytes)
    peak = float(mag_ref.max())
    if peak == 0:
        raise DataError("SSIM undefined for an all-zero reference")
    e = math.frexp(peak)[1]
    dynamic_range = math.ldexp(peak, -e)
    c1 = (SSIM_K1 * dynamic_range) ** 2
    c2 = (SSIM_K2 * dynamic_range) ** 2
    g = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    values = np.empty(ref.nt)

    def frame_values(frames):
        for t in range(frames.start, frames.stop):
            np.ldexp(mag_ref[t], -e, out=mag_ref[t])
            with np.errstate(over="ignore"):  # one far above the reference's becomes inf, then the cap
                np.ldexp(mag_rec[t], -e, out=mag_rec[t])
            np.minimum(mag_rec[t], _SSIM_CAP, out=mag_rec[t])
            values[t] = _ssim_frame(mag_ref[t], mag_rec[t], c1, c2, g)

    _split_rows(frame_values, ref.nt, ref.data.nbytes)
    return float(np.mean(values))
