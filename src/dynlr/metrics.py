"""Image quality metrics for complex space-time volumes.

MSE and PSNR operate on the raw complex arrays; SSIM follows common
practice and compares magnitude images frame by frame with an 11x11
Gaussian window (sigma 1.5) and the canonical stabilizing constants.
The window is the outer product of a 1D Gaussian with itself, so it is
applied as two 1D passes.
"""

import math

import numpy as np

from .core import DataError, DimensionError, DynamicImage

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _check_dims(ref: DynamicImage, rec: DynamicImage):
    if ref.shape != rec.shape:
        raise DimensionError(f"shape mismatch: reference {ref.shape} vs reconstruction {rec.shape}")


def _norm2(arr, pair=None) -> float:
    """``sum(re*re + im*im)`` of ``arr``; ``pair`` holds two real scratch volumes, or is None."""
    re2, im2 = (None, None) if pair is None else pair
    re2 = np.multiply(arr.real, arr.real, out=re2)
    return float(np.add(re2, np.multiply(arr.imag, arr.imag, out=im2), out=re2).sum())


def mse(ref: DynamicImage, rec: DynamicImage) -> float:
    """Squared L2 norm of the complex difference, summed over all elements.

    Note this is the unnormalized squared error, not divided by the element
    count; see :func:`mse_per_element` for the per-element convention.
    """
    _check_dims(ref, rec)
    return _norm2(ref.data - rec.data)


def mse_per_element(ref: DynamicImage, rec: DynamicImage) -> float:
    """Mean squared error per element (``mse / N``)."""
    return mse(ref, rec) / ref.data.size


def _psnr_from_mse(ref: DynamicImage, err2: float) -> float:
    """PSNR of a reconstruction whose :func:`mse` against ``ref`` is ``err2``."""
    peak = float(np.abs(ref.data).max())
    if peak == 0:
        raise DataError("PSNR undefined for an all-zero reference")
    err = math.sqrt(err2)
    if err == 0:
        return math.inf
    n = ref.data.size
    return 20.0 * math.log10(peak * math.sqrt(n) / err)


def psnr(ref: DynamicImage, rec: DynamicImage) -> float:
    """Peak signal-to-noise ratio in dB.

    ``20 * log10(max|ref| * sqrt(N) / ||ref - rec||_2)`` with N the total
    element count.  Returns ``math.inf`` when the volumes are identical.
    """
    return _psnr_from_mse(ref, mse(ref, rec))


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


def ssim(ref: DynamicImage, rec: DynamicImage) -> float:
    """Mean structural similarity of the magnitude images.

    Computed per frame with an 11x11 Gaussian window (sigma 1.5), constants
    K1 = 0.01 and K2 = 0.03, and dynamic range equal to the maximum
    magnitude of the reference over the whole volume; frame values are
    averaged over time.  Only the interior where the window fits entirely
    inside the frame contributes.  The result lies in [-1, 1] and equals 1
    exactly when the magnitudes are identical.
    """
    _check_dims(ref, rec)
    if not fits_ssim_window(ref):
        raise DimensionError(
            f"frames of shape ({ref.nx}, {ref.ny}) are smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
        )
    dynamic_range = float(np.abs(ref.data).max())
    if dynamic_range == 0:
        raise DataError("SSIM undefined for an all-zero reference")
    c1 = (SSIM_K1 * dynamic_range) ** 2
    c2 = (SSIM_K2 * dynamic_range) ** 2
    g = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    mag_ref = np.abs(ref.data)
    mag_rec = np.abs(rec.data)
    values = [
        _ssim_frame(mag_ref[:, :, t], mag_rec[:, :, t], c1, c2, g) for t in range(ref.nt)
    ]
    return float(np.mean(values))
