"""Linear operators of the measurement model.

The encoding operator is ``A = P F`` where ``F`` is the centered, unitary
2D Fourier transform applied to each temporal frame independently and ``P``
keeps the sampled phase-encode lines.  With the unitary normalization the
operator norm of ``A`` is 1 and the adjoint of ``A`` is ``F^H P``, which
keeps gradient step sizes near 1 stable without spectral estimation.

One pair of kernels applies ``A`` and ``A^H`` on the S sampled ``(ky, t)``
columns, for the loops and every public operator (``fft2c`` and ``ifft2c``
sample every column), and data consistency is the one correction
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


def _roll_into(out, arr, rows, inverse=False):
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


def _sampled_columns(sampled):
    """Where ``k[x, sampled]`` lies in row x of the ``ifftshift`` over y, seen as ``(nx, ny*nt)``.

    ``sampled`` is the ``(ny, nt)`` bool mask.  Returns the S positions of
    the sampled ``(ky, t)`` columns, in the order of ``k[:, sampled]``; every
    x-row shares them.
    """
    ny, nt = sampled.shape
    ky, t = np.nonzero(sampled)
    return (ky - ny // 2) % ny * nt + t


def _sampled_data(y: KSpaceData):
    """The positions of :func:`_sampled_columns` and ``y[:, sampled]``.

    The samples are C-contiguous, like the residuals made from them, so that
    every sum over a residual runs in one order.
    """
    sampled = y.mask.entries.astype(bool)
    return _sampled_columns(sampled), np.ascontiguousarray(y.data[:, sampled])


def _sampled_fft2c_arr(arr, cols, out, work):
    """``fft2c(arr)[:, sampled]`` into the C-contiguous ``(nx, S)`` array ``out``.

    ``cols`` comes from :func:`_sampled_columns`.  Like ``np.fft.fft2``, the
    y-axis transform runs first, over the whole volume in ``work``, from
    which each x-row gathers its S columns; the x-axis transform and the x
    shift then run on the S columns only.  ``work`` must be a C-contiguous
    volume other than ``arr``.  The volume pass runs on x-row slabs and the
    block pass on column slabs (:func:`~dynlr.core._split_rows`), each
    line's transform as a whole.
    """
    nx = arr.shape[0]

    def roll_fft_y_and_gather(rows):
        w = _roll_into(work, arr, rows, inverse=True)[rows]
        np.fft.fft(w, axis=1, norm="ortho", out=w)
        np.take(w.reshape(len(w), -1), cols, axis=1, out=out[rows], mode="clip")

    _split_rows(roll_fft_y_and_gather, nx, work.nbytes)
    # The x-axis transform reuses the front of ``work``, whose data it no longer needs.
    block = work.reshape(-1)[: out.size].reshape(out.shape)
    s = nx // 2

    def fft_x_and_roll(c):
        np.fft.fft(out[:, c], axis=0, norm="ortho", out=block[:, c])
        out[s:, c] = block[: nx - s, c]
        out[:s, c] = block[nx - s :, c]

    _split_rows(fft_x_and_roll, out.shape[1], out.nbytes)
    return out


def _sampled_ifft2c_arr(c, cols, out, work):
    """``A^H c``, the centred inverse FFT of the volume that is ``c`` at the sampled columns and 0 elsewhere.

    ``c`` is a C-contiguous ``(nx, S)`` array laid out as ``k[:, sampled]``
    and ``cols`` comes from :func:`_sampled_columns`.  The x shift and
    inverse x-axis FFT run on the S columns only, in the front of ``out``;
    then each x-row of ``work`` is zeroed, takes its S columns and runs its
    inverse y-axis FFT.  With every column sampled this is ``ifft2c``.
    ``out`` and ``work`` are distinct C-contiguous volumes, other than
    ``c``.  The passes are split as in :func:`_sampled_fft2c_arr`.
    """
    nx = c.shape[0]
    s = nx // 2
    block = out.reshape(-1)[: c.size].reshape(c.shape)

    def roll_and_ifft_x(cs):
        block[: nx - s, cs] = c[s:, cs]
        block[nx - s :, cs] = c[:s, cs]
        np.fft.ifft(block[:, cs], axis=0, norm="ortho", out=block[:, cs])

    def scatter_and_ifft_y(rows):
        w = work[rows]
        w.fill(0)
        w.reshape(len(w), -1)[:, cols] = block[rows]
        np.fft.ifft(w, axis=1, norm="ortho", out=w)

    _split_rows(roll_and_ifft_x, c.shape[1], c.nbytes)
    _split_rows(scatter_and_ifft_y, nx, work.nbytes)
    # The x roll reads other rows of ``work`` than it writes, so it waits for the whole y pass.
    _split_rows(lambda rows: _roll_into(out, work, rows), nx, out.nbytes)
    return out


def _residual(out, x, cols, acq, work):
    """``A x - y`` on the sampled columns into the ``(nx, S)`` array ``out``; ``work`` is scratch."""
    return np.subtract(_sampled_fft2c_arr(x, cols, out, work), acq, out=out)


def fft2c(img: DynamicImage) -> DynamicImage:
    """Centered unitary 2D Fourier transform of every frame.

    The DC component sits at index ``(nx//2, ny//2)`` and the transform is
    scaled by ``1/sqrt(nx*ny)`` so that it preserves the L2 norm.  It is
    ``A`` with every column sampled, with the bits of ``np.fft.fft2``.
    """
    out = _new_volume(img.data)
    every = _sampled_columns(np.ones(img.shape[1:], dtype=bool))
    _sampled_fft2c_arr(img.data, every, out.reshape(img.nx, -1), _new_volume(out))
    return DynamicImage(out)


def ifft2c(ksp: DynamicImage) -> DynamicImage:
    """Inverse of :func:`fft2c`: ``A^H`` with every column sampled, which runs the x axis first."""
    c = np.ascontiguousarray(ksp.data).reshape(ksp.nx, -1)  # a read volume may be F-ordered
    every = _sampled_columns(np.ones(ksp.shape[1:], dtype=bool))
    out = _new_volume(ksp.data)
    return DynamicImage(_sampled_ifft2c_arr(c, every, out, _new_volume(out)))


def encode(img: DynamicImage, mask: SamplingMask) -> KSpaceData:
    """Forward measurement ``A x``: the sampled columns of :func:`fft2c`, and +0.0 elsewhere."""
    if mask.ny != img.shape[1] or mask.nt != img.shape[2]:
        raise DimensionError(f"mask (ny={mask.ny}, nt={mask.nt}) does not match volume shape {img.shape}")
    sampled = mask.entries.astype(bool)
    k = np.zeros(img.shape, dtype=np.complex128)
    c = np.empty((img.nx, int(sampled.sum())), dtype=np.complex128)
    k[:, sampled] = _sampled_fft2c_arr(img.data, _sampled_columns(sampled), c, _new_volume(k))
    return KSpaceData(k, mask)


def encode_adjoint(ksp: KSpaceData) -> DynamicImage:
    """Adjoint measurement ``A^H y``: mask the k-space, then inverse transform.

    Satisfies ``<A x, y> == <x, A^H y>`` for every image x and k-space y.
    Applied to acquired data this is the zero-filled reconstruction.  It is
    ``ifft2c`` of the masked k-space, without the x-axis transforms of the
    unsampled columns, which are zero.
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
