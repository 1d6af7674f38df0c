"""Linear operators of the measurement model.

The encoding operator is ``A = P F`` where ``F`` is the centered, unitary
2D Fourier transform applied to each temporal frame independently and ``P``
keeps the sampled phase-encode lines.  With the unitary normalization the
operator norm of ``A`` is 1 and the adjoint of ``A`` is ``F^H P``, which
keeps gradient step sizes near 1 stable without spectral estimation.
"""

import itertools

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    DynamicImage,
    KSpaceData,
    SamplingMask,
    SolverConfig,
    _new_volume,
)

_SPATIAL_AXES = (0, 1)


def _roll_into(out, arr, inverse=False):
    """Write ``fftshift(arr)`` (``ifftshift`` if ``inverse``) over x and y into ``out``.

    The shift is an exact permutation, done as four block copies; ``out``
    must not overlap ``arr``.
    """
    halves = []
    for n in arr.shape[:2]:
        s = (n - n // 2 if inverse else n // 2) % n
        halves.append(((slice(s, None), slice(None, n - s)), (slice(None, s), slice(n - s, None))))
    for (out_x, arr_x), (out_y, arr_y) in itertools.product(*halves):
        out[out_x, out_y] = arr[arr_x, arr_y]
    return out


def _fft2c_arr(arr, out=None, work=None):
    """Centered unitary FFT of ``arr`` into ``out`` through the scratch volume ``work``.

    ``out`` may be ``arr``; ``work`` must be a C-contiguous volume other than
    both.  None allocates a new volume.
    """
    work = _new_volume(arr) if work is None else work
    _roll_into(work, arr, inverse=True)
    np.fft.fft2(work, axes=_SPATIAL_AXES, norm="ortho", out=work)
    return _roll_into(_new_volume(arr) if out is None else out, work)


def _ifft2c_arr(arr, out=None, work=None):
    """Exact inverse of :func:`_fft2c_arr`, with the same buffer rules."""
    work = _new_volume(arr) if work is None else work
    _roll_into(work, arr, inverse=True)
    # np.fft.ifft2 ignores out= (numpy 2.4); ifftn over the same axes honours it.
    np.fft.ifftn(work, axes=_SPATIAL_AXES, norm="ortho", out=work)
    return _roll_into(_new_volume(arr) if out is None else out, work)


def fft2c(img: DynamicImage) -> DynamicImage:
    """Centered unitary 2D Fourier transform of every frame.

    The DC component sits at index ``(nx//2, ny//2)`` and the transform is
    scaled by ``1/sqrt(nx*ny)`` so that it preserves the L2 norm.
    """
    return DynamicImage(_fft2c_arr(img.data))


def ifft2c(ksp: DynamicImage) -> DynamicImage:
    """Exact inverse of :func:`fft2c`."""
    return DynamicImage(_ifft2c_arr(ksp.data))


def _check_mask_dims(data_shape, mask: SamplingMask):
    if mask.ny != data_shape[1] or mask.nt != data_shape[2]:
        raise DimensionError(
            f"mask (ny={mask.ny}, nt={mask.nt}) does not match volume shape {tuple(data_shape)}"
        )


def encode(img: DynamicImage, mask: SamplingMask) -> KSpaceData:
    """Forward measurement ``A x``: Fourier transform then zero unsampled lines."""
    _check_mask_dims(img.shape, mask)
    k = _fft2c_arr(img.data) * mask.entries[None, :, :]
    return KSpaceData(k, mask)


def encode_adjoint(ksp: KSpaceData) -> DynamicImage:
    """Adjoint measurement ``A^H y``: mask the k-space, then inverse transform.

    Satisfies ``<A x, y> == <x, A^H y>`` for every image x and k-space y.
    Applied to acquired data this is the zero-filled reconstruction.
    """
    masked = ksp.data * ksp.mask.entries[None, :, :]
    return DynamicImage(_ifft2c_arr(masked))


def _dc_arr(pred_arr, acq_sampled, sampled, mode, nu, out=None, work=None, kspace=None):
    """Data consistency of ``pred_arr`` into ``out`` (which may be ``pred_arr``).

    ``sampled`` is a (ny, nt) bool mask and ``acq_sampled`` is
    ``acq[:, sampled]`` of the acquired k-space; ``work`` is a scratch volume.
    The rule is applied in k-space, which ``kspace`` keeps if given (it must
    be a volume other than ``pred_arr`` and ``out``); otherwise ``out`` holds
    it until the inverse transform.  None allocates a new volume.  ``mode``
    and ``nu`` must have passed :meth:`SolverConfig.validate`.
    """
    work = _new_volume(pred_arr) if work is None else work
    k = _fft2c_arr(pred_arr, out if kspace is None else kspace, work)
    if mode == "replace":
        k[:, sampled] = acq_sampled
    else:
        k[:, sampled] = (k[:, sampled] + nu * acq_sampled) / (1.0 + nu)
    return _ifft2c_arr(k, k if kspace is None else out, work)


def data_consistency(
    pred: DynamicImage,
    acquired: KSpaceData,
    mode: str = "replace",
    nu: float | None = None,
) -> DynamicImage:
    """Enforce agreement with the acquired k-space samples.

    Unsampled k-space coefficients keep the predicted values.  Sampled
    coefficients are overwritten by the acquired values (``mode="replace"``,
    the noiseless default) or blended as ``(pred + nu*acq) / (1 + nu)``
    (``mode="weighted"``, which requires ``nu``).  ``nu = 0`` leaves the
    prediction untouched and a large ``nu`` approaches replace mode; ``mode``
    and ``nu`` (finite, >= 0) take the ranges of ``SolverConfig.dc_mode`` and
    ``dc_nu``, checked through it.  The result is returned in image space.
    """
    if pred.shape != acquired.shape:
        raise DimensionError(
            f"prediction shape {pred.shape} does not match acquired shape {acquired.shape}"
        )
    if mode == "weighted" and nu is None:
        raise ConfigError("weighted data consistency requires nu")
    SolverConfig(dc_mode=mode, dc_nu=1.0 if nu is None else nu).validate()
    sampled = acquired.mask.entries.astype(bool)
    return DynamicImage(_dc_arr(pred.data, acquired.data[:, sampled], sampled, mode, nu))
