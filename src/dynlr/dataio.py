"""Binary volume format: a text header plus raw little-endian data.

A volume is stored as a pair of files sharing a base path:

* ``<base>.hdr`` - three text lines: the magic string ``DYNLR1``, the line
  ``dims <nx> <ny> <nt>``, and the line ``dtype c64le``.
* ``<base>.dat`` - raw little-endian 32-bit float pairs (real then
  imaginary) with x varying fastest, then y, then t.

Round trips are lossless at float32 precision regardless of host byte
order.  Sampling masks are stored as 0/1-valued volumes with nx = 1.

Every file is written whole or not at all: to a new temporary file beside
it, which then takes its name (:func:`_write_whole`).  A volume removes its
old ``.hdr``, then its old ``.dat``, before its new files take their names,
``.hdr`` last, so a failed write leaves the old pair or no readable pair,
never a header that describes other data.
"""

import os
import sys

import numpy as np

from .core import DynamicImage, FormatError, SamplingMask, _INT_TOKEN, _parse_int

MAGIC = "DYNLR1"
_SUFFIXES = (".hdr", ".dat")


def _base_path(path):
    path = os.fspath(path)
    for suffix in _SUFFIXES:
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


def write_cplx(path, volume) -> None:
    """Write a complex volume to ``<path>.hdr`` / ``<path>.dat``, whole or not at all.

    Both files are written to temporary names first; then the old
    ``.hdr`` and ``.dat`` are removed, and the new ``.dat`` and ``.hdr``
    take their names, in that order.  A failure at any step removes the
    temporary files and leaves the old pair, or no readable pair.  The
    removals keep the renames from replacing a file, which on ext4 would
    write the new data out at once (``auto_da_alloc``), several times
    slower.  A volume that is not finite at complex64 precision (a part
    above about 3.4e38 in magnitude, or NaN or infinity) raises FormatError
    before any file is opened, since no reader would accept the file.
    """
    data = volume.data if isinstance(volume, DynamicImage) else np.asarray(volume)
    if data.ndim != 3:
        raise FormatError(f"can only write 3-dimensional volumes, got shape {data.shape}")
    nx, ny, nt = data.shape
    with np.errstate(over="ignore"):
        flat = data.ravel(order="F").astype("<c8")
    if not np.isfinite(flat).all():
        raise FormatError("volume has values that are not finite at complex64 precision")
    base = _base_path(path)
    written = []
    try:
        written.append(_write_new(base + ".dat", flat.tobytes()))
        header = f"{MAGIC}\ndims {nx} {ny} {nt}\ndtype c64le\n"
        written.append(_write_new(base + ".hdr", header.encode("ascii")))
        _remove(base + ".hdr")
        _remove(base + ".dat")
        os.replace(written[0], base + ".dat")
        os.replace(written[1], base + ".hdr")
    except BaseException:
        for tmp in written:
            _remove(tmp)
        raise


def _remove(path):
    """Remove the file ``path`` if there is one."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _write_new(path, data):
    """Write the bytes ``data`` to a new temporary file beside ``path``, and return its name.

    The temporary file is removed again if the write fails.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
    except BaseException:
        _remove(tmp)
        raise
    return tmp


def _write_whole(path, data):
    """Replace the file ``path`` with one that holds the bytes ``data``, or leave it as it was.

    ``data`` goes to a new temporary file beside ``path``
    (:func:`_write_new`), which then replaces it with ``os.replace``; the
    temporary file is removed if either step fails.
    """
    tmp = _write_new(path, data)
    try:
        os.replace(tmp, path)
    except BaseException:
        _remove(tmp)
        raise


def _parse_header(base):
    hdr_path = base + ".hdr"
    try:
        with open(hdr_path, "r", encoding="ascii") as fh:
            lines = [line.strip() for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        raise FormatError(f"cannot read header {hdr_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"header {hdr_path} is not ASCII: {exc}") from exc
    if len(lines) < 3:
        raise FormatError(f"header {hdr_path} is truncated")
    if lines[0] != MAGIC:
        raise FormatError(f"unknown magic {lines[0]!r} in {hdr_path} (expected {MAGIC!r})")
    dim_tokens = lines[1].split()
    if len(dim_tokens) != 4 or dim_tokens[0] != "dims":
        raise FormatError(f"bad dims line {lines[1]!r} in {hdr_path}")
    # The integer grammar of config values, grid tokens and numeric flags,
    # whose "-" a dimension does not take either.
    tokens = dim_tokens[1:]
    not_digits = FormatError(f"dims {' '.join(tokens)!r} in {hdr_path} are not decimal digits")
    try:
        nx, ny, nt = (_parse_int(tok) for tok in tokens)
    except ValueError as exc:
        if all(_INT_TOKEN.fullmatch(tok) for tok in tokens):  # int() refused one above its digit limit
            raise FormatError(f"dims in {hdr_path} have too many decimal digits") from exc
        raise not_digits from exc
    if any(tok.startswith("-") for tok in tokens):
        raise not_digits
    if min(nx, ny, nt) < 1:
        raise FormatError(f"non-positive dims {nx} {ny} {nt} in {hdr_path}")
    if 8 * nx * ny * nt > sys.maxsize:  # no file is that large, and the size may not print
        raise FormatError(f"dims {nx} {ny} {nt} in {hdr_path} declare more than {sys.maxsize} bytes")
    if lines[2] != "dtype c64le":
        raise FormatError(f"unsupported dtype line {lines[2]!r} in {hdr_path}")
    return nx, ny, nt


def read_cplx(path) -> DynamicImage:
    """Read a complex volume written by :func:`write_cplx`."""
    base = _base_path(path)
    nx, ny, nt = _parse_header(base)
    dat_path = base + ".dat"
    expected = nx * ny * nt
    try:
        size = os.path.getsize(dat_path)  # before reading, so that a wrong file is never read
        if size != 8 * expected:
            raise FormatError(
                f"data file {dat_path} holds {size} bytes but the header declares "
                f"{nx}x{ny}x{nt} = {expected} complex values ({8 * expected} bytes)"
            )
        raw = np.fromfile(dat_path, dtype="<c8")
    except OSError as exc:
        raise FormatError(f"cannot read data file {dat_path}: {exc}") from exc
    vol = raw.astype(np.complex128).reshape((nx, ny, nt), order="F")
    return DynamicImage(vol)


def write_mask(path, mask: SamplingMask) -> None:
    """Write a sampling mask as a 0/1-valued volume with nx = 1."""
    vol = mask.entries.astype(np.complex128)[None, :, :]
    write_cplx(path, vol)


def read_mask(path, acceleration: float | None = None) -> SamplingMask:
    """Read a mask written by :func:`write_mask`.

    The nominal acceleration is not stored in the file; unless given, it is
    set to the achieved acceleration of the loaded entries.
    """
    vol = read_cplx(path)
    if vol.nx != 1:
        raise FormatError(f"mask files must have nx = 1, got nx = {vol.nx}")
    data = vol.data[0]
    if np.abs(data.imag).max() > 0:
        raise FormatError("mask file contains non-real values")
    entries = data.real
    if not np.isin(entries, (0.0, 1.0)).all():
        raise FormatError("mask file contains values other than 0 and 1")
    entries = entries.astype(np.uint8)
    if acceleration is None:
        n = int(entries.sum())
        if n == 0:
            raise FormatError("mask file samples no lines")
        acceleration = entries.size / n
    return SamplingMask(entries, float(acceleration))
