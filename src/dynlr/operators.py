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

Each kernel of the pair runs in two stages: an x stage on the ``(nx, S)``
block of sampled columns, in column slabs, and a row stage on x-row slabs
of the volume (:func:`_fft_rows`; :func:`_ifft_rows` and
:func:`_shift_y_into`).  A row stage works in one per-thread slab buffer
(:class:`~dynlr.core._SlabScratch`) and reads only the rows that its
shifts bring into its slab, so no kernel takes a whole-volume scratch and
no pass waits for another; the solver loops run the row stages inside
their own row passes.
"""

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    DynamicImage,
    KSpaceData,
    SamplingMask,
    SolverConfig,
    _finite,
    _new_volume,
    _SlabScratch,
    _split_rows,
)


def _row_pieces(rows, shift, n):
    """Where the rows ``rows`` of ``np.roll(arr, shift, axis)`` come from, for an axis of length ``n``.

    Returns ``(out, src)`` slice pairs: the rolled rows ``rows.start +
    out`` are ``arr``'s rows ``src``.  A roll is an exact permutation, so
    block copies along these pairs give its bits.
    """
    lo, hi, _ = rows.indices(n)
    s = shift % n
    return [
        (slice(a - lo, b - lo), slice(a + d, b + d))
        for a, b, d in ((max(s, lo), hi, -s), (lo, min(s, hi), n - s))
        if a < b
    ]


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


def _fft_rows(arr, cols, rows, buf, out):
    """The row stage of ``A``: the sampled columns of the rows ``rows`` into ``out[rows]``.

    The ``ifftshift`` of ``arr`` over x and y goes into ``buf``, a slab of
    ``len(rows)`` rows other than ``arr``; each row runs its y-axis FFT
    there, as ``np.fft.fft2`` runs the y axis first, and gathers its S
    columns at the positions ``cols`` of :func:`_sampled_columns`.  It reads
    the rows of ``arr`` that the x shift brings into ``rows``.
    """
    nx, ny = arr.shape[:2]
    ys = _row_pieces(slice(0, ny), -(ny // 2), ny)
    for out_x, arr_x in _row_pieces(rows, -(nx // 2), nx):
        for out_y, arr_y in ys:
            buf[out_x, out_y] = arr[arr_x, arr_y]
    np.fft.fft(buf, axis=1, norm="ortho", out=buf)
    np.take(buf.reshape(len(buf), -1), cols, axis=1, out=out[rows], mode="clip")


def _fft_x_stage(out, acq=None, scratch=None):
    """The x stage of ``A`` in place on the C-contiguous ``(nx, S)`` block ``out``, minus ``acq`` if given.

    Each column slab (:func:`~dynlr.core._split_rows`) runs its x-axis FFTs
    into the calling thread's buffer of ``scratch``, a
    :class:`~dynlr.core._SlabScratch` (None: a new one), from which the x
    shift writes them back.
    """
    nx, n_cols = out.shape
    s = nx // 2
    scratch = _SlabScratch(out) if scratch is None else scratch

    def fft_x_and_roll(cs):
        b = scratch.array((nx, cs.stop - cs.start))
        np.fft.fft(out[:, cs], axis=0, norm="ortho", out=b)
        out[s:, cs] = b[: nx - s]
        out[:s, cs] = b[nx - s :]
        if acq is not None:
            np.subtract(out[:, cs], acq[:, cs], out=out[:, cs])

    _split_rows(fft_x_and_roll, n_cols, out.nbytes)
    return out


def _sampled_fft2c_arr(arr, cols, out, acq=None, scratch=None):
    """``fft2c(arr)[:, sampled]``, minus ``acq`` if given, into the C-contiguous ``(nx, S)`` array ``out``.

    ``cols`` comes from :func:`_sampled_columns`.  The row stage
    (:func:`_fft_rows`) runs on x-row slabs, each in the calling thread's
    buffer of ``scratch``, a :class:`~dynlr.core._SlabScratch` for volumes
    shaped as ``arr`` (None: a new one); the x stage
    (:func:`_fft_x_stage`) then runs on the S columns only.  Each line's
    transform runs as a whole, so the slabs do not change a bit.
    """
    scratch = _SlabScratch(arr) if scratch is None else scratch
    _split_rows(lambda rows: _fft_rows(arr, cols, rows, scratch(rows), out), arr.shape[0], arr.nbytes)
    return _fft_x_stage(out, acq, scratch)


def _ifft_x_stage(c, block, scratch=None):
    """The x stage of ``A^H``: ``block`` is the inverse x-axis FFT of the ``ifftshift`` over x of ``c``.

    Both are C-contiguous ``(nx, S)`` arrays, and ``block`` may be ``c``.
    The columns run on slabs, each through the calling thread's buffer of
    ``scratch``, as in :func:`_fft_x_stage`.
    """
    nx, n_cols = c.shape
    s = nx // 2
    scratch = _SlabScratch(c) if scratch is None else scratch

    def roll_and_ifft_x(cs):
        b = scratch.array((nx, cs.stop - cs.start))
        b[: nx - s] = c[s:, cs]
        b[nx - s :] = c[:s, cs]
        np.fft.ifft(b, axis=0, norm="ortho", out=block[:, cs])

    _split_rows(roll_and_ifft_x, n_cols, c.nbytes)
    return block


def _ifft_rows(block, cols, rows, buf):
    """The row stage of ``A^H`` before its y shift: the rows ``rows`` into the slab ``buf``.

    ``block`` comes from :func:`_ifft_x_stage`.  The x shift is done by
    reading the rows of ``block`` that it brings into ``rows``; each row
    of ``buf`` is zeroed, takes its S columns at ``cols`` and runs its
    inverse y-axis FFT.  :func:`_shift_y_into` finishes the rows.
    """
    nx = block.shape[0]
    buf.fill(0)
    flat = buf.reshape(len(buf), -1)
    for out_x, src_x in _row_pieces(rows, nx // 2, nx):
        flat[out_x, cols] = block[src_x]
    np.fft.ifft(buf, axis=1, norm="ortho", out=buf)
    return buf


def _shift_y_into(dest, buf, add=False):
    """``dest = fftshift(buf)`` over y, or ``dest = fftshift(buf) + dest`` if ``add``; ``dest`` other than ``buf``.

    Both are C-contiguous slabs.  The sums run one x-row at a time, on
    contiguous pieces: numpy buffers a ufunc over a strided piece of a
    slab, in about 400 KB of its own.
    """
    ny = buf.shape[1]
    pieces = _row_pieces(slice(0, ny), ny // 2, ny)
    if not add:
        for out_y, src_y in pieces:
            dest[:, out_y] = buf[:, src_y]
        return
    for d, b in zip(dest, buf):
        for out_y, src_y in pieces:
            np.add(b[src_y], d[out_y], out=d[out_y])


def _sampled_ifft2c_arr(c, cols, out, block=None, scratch=None):
    """``A^H c``, the centred inverse FFT of the volume that is ``c`` at the sampled columns and 0 elsewhere.

    ``c`` is a C-contiguous ``(nx, S)`` array laid out as ``k[:, sampled]``
    and ``cols`` comes from :func:`_sampled_columns`.  The x stage
    (:func:`_ifft_x_stage`) runs on the S columns only, into ``block``, a
    C-contiguous ``(nx, S)`` array that may be ``c`` (which it then
    overwrites), or None for a new one.  The row stage
    (:func:`_ifft_rows`, :func:`_shift_y_into`) then writes each x-row slab
    of the C-contiguous volume ``out`` from the calling thread's buffer of
    ``scratch``, as in :func:`_sampled_fft2c_arr`; every row reads only
    ``block``, so no pass waits for another.  With every column sampled
    this is ``ifft2c``.
    """
    scratch = _SlabScratch(out) if scratch is None else scratch
    block = _ifft_x_stage(c, np.empty_like(c) if block is None else block, scratch)

    def rows_stage(rows):
        _shift_y_into(out[rows], _ifft_rows(block, cols, rows, scratch(rows)))

    _split_rows(rows_stage, out.shape[0], out.nbytes)
    return out


def _residual(out, x, cols, acq, scratch=None):
    """``A x - y`` on the sampled columns into the ``(nx, S)`` array ``out``; ``scratch`` as in :func:`_sampled_fft2c_arr`."""
    return _sampled_fft2c_arr(x, cols, out, acq, scratch)


def fft2c(img: DynamicImage) -> DynamicImage:
    """Centered unitary 2D Fourier transform of every frame.

    The DC component sits at index ``(nx//2, ny//2)`` and the transform is
    scaled by ``1/sqrt(nx*ny)`` so that it preserves the L2 norm.  It is
    ``A`` with every column sampled, with the bits of ``np.fft.fft2``.
    """
    out = _new_volume(img.data)
    every = _sampled_columns(np.ones(img.shape[1:], dtype=bool))
    _sampled_fft2c_arr(img.data, every, out.reshape(img.nx, -1))
    return DynamicImage(out)


def ifft2c(ksp: DynamicImage) -> DynamicImage:
    """Inverse of :func:`fft2c`: ``A^H`` with every column sampled, which runs the x axis first."""
    c = np.ascontiguousarray(ksp.data).reshape(ksp.nx, -1)  # a read volume may be F-ordered
    every = _sampled_columns(np.ones(ksp.shape[1:], dtype=bool))
    return DynamicImage(_sampled_ifft2c_arr(c, every, _new_volume(ksp.data)))


def encode(img: DynamicImage, mask: SamplingMask) -> KSpaceData:
    """Forward measurement ``A x``: the sampled columns of :func:`fft2c`, and +0.0 elsewhere."""
    if mask.ny != img.shape[1] or mask.nt != img.shape[2]:
        raise DimensionError(f"mask (ny={mask.ny}, nt={mask.nt}) does not match volume shape {img.shape}")
    sampled = mask.entries.astype(bool)
    k = np.zeros(img.shape, dtype=np.complex128)
    c = np.empty((img.nx, int(sampled.sum())), dtype=np.complex128)
    k[:, sampled] = _sampled_fft2c_arr(img.data, _sampled_columns(sampled), c)
    return KSpaceData(k, mask)


def encode_adjoint(ksp: KSpaceData) -> DynamicImage:
    """Adjoint measurement ``A^H y``: mask the k-space, then inverse transform.

    Satisfies ``<A x, y> == <x, A^H y>`` for every image x and k-space y.
    Applied to acquired data this is the zero-filled reconstruction.  It is
    ``ifft2c`` of the masked k-space, without the x-axis transforms of the
    unsampled columns, which are zero.
    """
    cols, acq = _sampled_data(ksp)
    return DynamicImage(_sampled_ifft2c_arr(acq, cols, _new_volume(ksp.data), acq))


def _dc_weight(mode, nu):
    """The weight ``w`` of the data-consistency correction: 1, or ``nu / (1 + nu)`` if weighted."""
    return 1.0 if mode == "replace" else nu / (1.0 + nu)


def _dc_arr(arr, c, cols, w, out, g, scratch=None):
    """Data consistency ``out = arr - w A^H c`` from the residual ``c = A arr - y``; ``out`` may be ``arr``.

    ``c`` is the C-contiguous ``(nx, S)`` residual (:func:`_residual`), which
    the adjoint's x stage overwrites in place; ``cols`` comes from
    :func:`_sampled_columns` and ``w`` from :func:`_dc_weight`.  The volume
    ``g`` receives ``A^H c``; the residual of the output is ``(1 - w) c`` to
    rounding.  ``g`` is a C-contiguous volume other than ``arr`` and, unless
    ``g`` is ``out``, than ``out``; ``scratch`` is as in
    :func:`_sampled_fft2c_arr`.  The adjoint's row stage writes each slab of
    ``g``, then the slab's correction, and checks that slab of ``out`` for
    finiteness.  Returns whether ``out`` is finite.
    """
    scratch = _SlabScratch(g) if scratch is None else scratch
    _ifft_x_stage(c, c, scratch)
    failed = []

    def correct(rows):
        buf = _ifft_rows(c, cols, rows, scratch(rows))
        gs = g[rows]
        _shift_y_into(gs, buf)
        if not _finite(np.subtract(arr[rows], gs if w == 1.0 else np.multiply(gs, w, out=buf), out=out[rows])):
            failed.append(rows)

    _split_rows(correct, g.shape[0], g.nbytes)
    return not failed


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
    out = _new_volume(pred.data)
    scratch = _SlabScratch(out)
    c = _residual(np.empty_like(acq), pred.data, cols, acq, scratch)
    _dc_arr(pred.data, c, cols, _dc_weight(mode, nu), out, out, scratch)
    return DynamicImage(out)
