"""Linear operators of the measurement model.

The encoding operator is ``A = P F`` where ``F`` is the centered, unitary
2D Fourier transform applied to each temporal frame independently and ``P``
keeps the sampled phase-encode lines.  With the unitary normalization the
operator norm of ``A`` is 1 and the adjoint of ``A`` is ``F^H P``, which
keeps gradient step sizes near 1 stable without spectral estimation.
"""

import itertools
from typing import NamedTuple

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


class _Columns(NamedTuple):
    """Where the S sampled ``(ky, t)`` columns of ``k[:, sampled]`` lie in ``ifftshift(k)``.

    The shift runs over x and y, and both fields follow the order of
    ``k[:, sampled]``.
    """

    index: np.ndarray  # (S,) column indices into the (nx, ny * nt) view
    entries: np.ndarray  # (nx, S) flat indices of every entry, x shift included


def _sampled_columns(sampled, nx):
    """The :class:`_Columns` of the ``(ny, nt)`` bool mask ``sampled`` in volumes ``nx`` wide."""
    ny, nt = sampled.shape
    ky, t = np.nonzero(sampled)
    index = (ky - ny // 2) % ny * nt + t
    rows = (np.arange(nx) - nx // 2) % nx
    return _Columns(index, rows[:, None] * (ny * nt) + index)


def _sampled_fft2c_arr(arr, cols, out, work):
    """``_fft2c_arr(arr)[:, sampled]`` into the ``(nx, S)`` array ``out``, with the same bits.

    ``cols`` comes from :func:`_sampled_columns`.  Like ``np.fft.fft2``, the
    y-axis transform runs first, over the whole volume in ``work``; the
    x-axis transform and the x shift then run on the S gathered columns
    only.  ``work`` must be a C-contiguous volume other than ``arr``.
    """
    nx = arr.shape[0]
    _roll_into(work, arr, inverse=True)
    np.fft.fft(work, axis=1, norm="ortho", out=work)
    # The gathered block reuses the front of ``work``, whose data it no longer needs.
    block = work.reshape(-1)[: out.size].reshape(out.shape)
    np.take(work.reshape(nx, -1), cols.index, axis=1, out=out, mode="clip")
    np.fft.fft(out, axis=0, norm="ortho", out=block)
    s = nx // 2
    out[s:] = block[: nx - s]
    out[:s] = block[nx - s :]
    return out


def _sampled_ifft2c_arr(c, cols, out, work):
    """:func:`_ifft2c_arr` of the volume that holds ``c`` at the sampled columns and 0 elsewhere.

    ``c`` is an ``(nx, S)`` array laid out as ``k[:, sampled]`` and ``cols``
    comes from :func:`_sampled_columns`; the bits are those of the full
    inverse transform of the zero-filled volume.  ``out`` and ``work`` are
    volumes of shape ``(nx, ny, nt)``; ``work`` must be C-contiguous and
    other than ``out``.
    """
    work.fill(0)
    work.reshape(-1)[cols.entries] = c
    np.fft.ifftn(work, axes=_SPATIAL_AXES, norm="ortho", out=work)
    return _roll_into(out, work)


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


def _dc_arr(pred_arr, acq_sampled, cols, mode, nu, out=None, work=None, sampled_out=None):
    """Data consistency of ``pred_arr`` into ``out`` (which may be ``pred_arr``).

    ``cols`` comes from :func:`_sampled_columns` and ``acq_sampled`` is
    ``acq[:, sampled]`` of the acquired k-space; ``work`` is a C-contiguous
    scratch volume.  None allocates a new volume.  The rule is applied to
    the un-centred k-space in ``work``: the shift after the forward FFT and
    the one before the inverse FFT cancel, so neither is made.  If given,
    the ``(nx, S)`` array ``sampled_out`` receives ``k[:, sampled]`` after
    the rule.  ``mode`` and ``nu`` must have passed
    :meth:`SolverConfig.validate`.
    """
    work = _new_volume(pred_arr) if work is None else work
    _roll_into(work, pred_arr, inverse=True)
    np.fft.fft2(work, axes=_SPATIAL_AXES, norm="ortho", out=work)
    flat = work.reshape(-1)
    if mode == "replace":
        new = acq_sampled
    else:
        new = (flat[cols.entries] + nu * acq_sampled) / (1.0 + nu)
    flat[cols.entries] = new
    if sampled_out is not None:
        np.copyto(sampled_out, new)
    np.fft.ifftn(work, axes=_SPATIAL_AXES, norm="ortho", out=work)
    return _roll_into(_new_volume(pred_arr) if out is None else out, work)


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
    cols = _sampled_columns(sampled, pred.nx)
    return DynamicImage(_dc_arr(pred.data, acquired.data[:, sampled], cols, mode, nu))
