"""Linear operators of the measurement model.

The encoding operator is ``A = P F`` where ``F`` is the centered, unitary
2D Fourier transform applied to each temporal frame independently and ``P``
keeps the sampled phase-encode lines.  With the unitary normalization the
operator norm of ``A`` is 1 and the adjoint of ``A`` is ``F^H P``, which
keeps gradient step sizes near 1 stable without spectral estimation.

The loops and the public operators apply ``A`` and ``A^H`` on the S sampled
``(ky, t)`` columns only, and data consistency is the one correction
``x - w A^H (A x - y)``: ``w = 1`` replaces and ``w = nu / (1 + nu)`` blends.
"""

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    DynamicImage,
    KSpaceData,
    SamplingMask,
    SolverConfig,
    _new_volume,
    _split_rows,
)

_SPATIAL_AXES = (0, 1)


def _roll_into(out, arr, inverse=False, rows=slice(None)):
    """Write ``fftshift(arr)`` (``ifftshift`` if ``inverse``) over x and y into ``out``.

    Only the output x-rows in the slice ``rows`` are written.  The shift is
    an exact permutation, done as block copies; ``out`` must not overlap
    ``arr``.
    """
    nx, ny = arr.shape[:2]
    lo, hi, _ = rows.indices(nx)
    sx, sy = ((n - n // 2 if inverse else n // 2) % n for n in (nx, ny))
    ys = ((slice(sy, None), slice(None, ny - sy)), (slice(None, sy), slice(ny - sy, None)))
    # Output rows [a, b) come from input rows [a + d, b + d).
    for a, b, d in ((max(sx, lo), hi, -sx), (lo, min(sx, hi), nx - sx)):
        if a < b:
            for out_y, arr_y in ys:
                out[a:b, out_y] = arr[a + d : b + d, arr_y]
    return out


def _fft2c_arr(arr):
    """Centered unitary FFT of ``arr`` into a new volume."""
    work = _new_volume(arr)
    _roll_into(work, arr, inverse=True)
    np.fft.fft2(work, axes=_SPATIAL_AXES, norm="ortho", out=work)
    return _roll_into(_new_volume(arr), work)


def _ifft2c_arr(arr):
    """Exact inverse of :func:`_fft2c_arr`, into a new volume."""
    work = _new_volume(arr)
    _roll_into(work, arr, inverse=True)
    # np.fft.ifft2 ignores out= (numpy 2.4); ifftn over the same axes honours it.
    np.fft.ifftn(work, axes=_SPATIAL_AXES, norm="ortho", out=work)
    return _roll_into(_new_volume(arr), work)


def _sampled_columns(sampled, nx):
    """Where ``k[:, sampled]`` lies in the ``ifftshift`` over y of volumes ``nx`` wide.

    ``sampled`` is the ``(ny, nt)`` bool mask.  Returns the ``(nx, S)`` flat
    indices of the S sampled ``(ky, t)`` columns, in the order of
    ``k[:, sampled]``.
    """
    ny, nt = sampled.shape
    ky, t = np.nonzero(sampled)
    return np.arange(nx)[:, None] * (ny * nt) + (ky - ny // 2) % ny * nt + t


def _sampled_data(y: KSpaceData):
    """The indices of :func:`_sampled_columns` and ``y[:, sampled]``.

    The samples are C-contiguous, like the residuals made from them, so that
    every sum over a residual runs in one order.
    """
    sampled = y.mask.entries.astype(bool)
    return _sampled_columns(sampled, y.shape[0]), np.ascontiguousarray(y.data[:, sampled])


def _sampled_fft2c_arr(arr, cols, out, work):
    """``_fft2c_arr(arr)[:, sampled]`` into the ``(nx, S)`` array ``out``, with the same bits.

    ``cols`` comes from :func:`_sampled_columns`.  Like ``np.fft.fft2``, the
    y-axis transform runs first, over the whole volume in ``work``; the
    x-axis transform and the x shift then run on the S gathered columns
    only.  ``work`` must be a C-contiguous volume other than ``arr``.  The
    volume passes run on x-row slabs and the block passes on column slabs
    (:func:`~dynlr.core._split_rows`), each line's transform as a whole.
    """
    nx = arr.shape[0]

    def roll_and_fft_y(rows):
        _roll_into(work, arr, inverse=True, rows=rows)
        np.fft.fft(work[rows], axis=1, norm="ortho", out=work[rows])

    _split_rows(roll_and_fft_y, nx, work.nbytes)
    # The gathered block reuses the front of ``work``, whose data it no longer needs.
    block = work.reshape(-1)[: out.size].reshape(out.shape)
    np.take(work.reshape(-1), cols, out=out, mode="clip")
    s = nx // 2

    def fft_x_and_roll(c):
        np.fft.fft(out[:, c], axis=0, norm="ortho", out=block[:, c])
        out[s:, c] = block[: nx - s, c]
        out[:s, c] = block[nx - s :, c]

    _split_rows(fft_x_and_roll, out.shape[1], out.nbytes)
    return out


def _sampled_ifft2c_arr(c, cols, out, work):
    """:func:`_ifft2c_arr` of the volume that holds ``c`` at the sampled columns and 0 elsewhere.

    ``c`` is an ``(nx, S)`` array laid out as ``k[:, sampled]`` and ``cols``
    comes from :func:`_sampled_columns`.  The x shift and inverse x-axis
    FFT run on the S columns only, in the front of ``out``, before the
    y-axis one (``np.fft.ifft2`` runs y first; the last bits differ).
    ``out`` and ``work`` are distinct C-contiguous volumes, other than ``c``.
    The passes are split as in :func:`_sampled_fft2c_arr`.
    """
    nx = c.shape[0]
    s = nx // 2
    block = out.reshape(-1)[: c.size].reshape(c.shape)

    def roll_and_ifft_x(cs):
        block[: nx - s, cs] = c[s:, cs]
        block[nx - s :, cs] = c[:s, cs]
        np.fft.ifft(block[:, cs], axis=0, norm="ortho", out=block[:, cs])

    def zero(rows):
        work[rows].fill(0)

    def ifft_y(rows):
        np.fft.ifft(work[rows], axis=1, norm="ortho", out=work[rows])

    _split_rows(roll_and_ifft_x, c.shape[1], c.nbytes)
    _split_rows(zero, nx, work.nbytes)
    work.reshape(-1)[cols] = block
    _split_rows(ifft_y, nx, work.nbytes)
    # The x roll reads other rows of ``work`` than it writes, so it waits for the whole y pass.
    _split_rows(lambda rows: _roll_into(out, work, rows=rows), nx, out.nbytes)
    return out


def _residual(out, x, cols, acq, work):
    """``A x - y`` on the sampled columns into the ``(nx, S)`` array ``out``; ``work`` is scratch."""
    return np.subtract(_sampled_fft2c_arr(x, cols, out, work), acq, out=out)


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
    Applied to acquired data this is the zero-filled reconstruction.  It is
    the solvers' kernel, and matches ``ifft2c`` of the masked k-space to rounding.
    """
    cols, acq = _sampled_data(ksp)
    out, work = _new_volume(ksp.data), _new_volume(ksp.data)
    return DynamicImage(_sampled_ifft2c_arr(acq, cols, out, work))


def _dc_weight(mode, nu):
    """The weight ``w`` of the data-consistency correction: 1, or ``nu / (1 + nu)`` if weighted."""
    return 1.0 if mode == "replace" else nu / (1.0 + nu)


def _dc_arr(arr, acq, cols, w, out, c, g, work):
    """Data consistency ``out = arr - w A^H (A arr - y)``; ``out`` may be ``arr``.

    ``acq`` is ``y[:, sampled]``, ``cols`` comes from :func:`_sampled_columns`
    and ``w`` from :func:`_dc_weight`.  The ``(nx, S)`` array ``c`` receives
    the residual ``A arr - y`` and the volume ``g`` its adjoint
    ``A^H (A arr - y)``; the residual of the output is ``(1 - w) c`` to
    rounding.  ``g`` and ``work`` are C-contiguous volumes other than each
    other, than ``arr`` and, unless ``g`` is ``out``, than ``out``.
    """
    _sampled_ifft2c_arr(_residual(c, arr, cols, acq, work), cols, g, work)
    return np.subtract(arr, g if w == 1.0 else np.multiply(g, w, out=work), out=out)


def data_consistency(
    pred: DynamicImage,
    acquired: KSpaceData,
    mode: str = "replace",
    nu: float | None = None,
) -> DynamicImage:
    """Enforce agreement with the acquired k-space samples.

    Returns ``pred - w A^H (A pred - y)``, the DC-CNN layer that the sparse
    loops share, with ``w = 1`` (``mode="replace"``, the noiseless default)
    or ``w = nu / (1 + nu)`` (``mode="weighted"``, which requires ``nu``).
    In k-space, unsampled coefficients keep the predicted values and sampled
    ones become the acquired values or ``(pred + nu*acq) / (1 + nu)``, to
    rounding, not bit for bit.  ``nu = 0`` leaves the prediction untouched
    and a large ``nu`` approaches replace mode; ``mode`` and ``nu`` (finite,
    >= 0) take the ranges of ``SolverConfig.dc_mode`` and ``dc_nu``.
    """
    if pred.shape != acquired.shape:
        raise DimensionError(
            f"prediction shape {pred.shape} does not match acquired shape {acquired.shape}"
        )
    if mode == "weighted" and nu is None:
        raise ConfigError("weighted data consistency requires nu")
    SolverConfig(dc_mode=mode, dc_nu=1.0 if nu is None else nu).validate()
    cols, acq = _sampled_data(acquired)
    out, work = _new_volume(pred.data), _new_volume(pred.data)
    w = _dc_weight(mode, nu)
    return DynamicImage(_dc_arr(pred.data, acq, cols, w, out, np.empty_like(acq), out, work))
