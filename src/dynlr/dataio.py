"""Binary volume format: a text header plus raw little-endian data.

A volume is stored as a pair of files sharing a base path:

* ``<base>.hdr`` - three text lines: the magic string ``DYNLR1``, the line
  ``dims <nx> <ny> <nt>``, and the line ``dtype c64le``.
* ``<base>.dat`` - raw little-endian 32-bit float pairs (real then
  imaginary) with x varying fastest, then y, then t.

Round trips are lossless at float32 precision regardless of host byte
order.  Sampling masks are stored as 0/1-valued volumes with nx = 1.
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
    """Write a complex volume to ``<path>.hdr`` / ``<path>.dat``.

    A volume that is not finite at complex64 precision (a part above about
    3.4e38 in magnitude, or NaN or infinity) raises FormatError before
    either file is opened, since no reader would accept the file.
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
    with open(base + ".hdr", "w", encoding="ascii") as fh:
        fh.write(f"{MAGIC}\ndims {nx} {ny} {nt}\ndtype c64le\n")
    with open(base + ".dat", "wb") as fd:
        fd.write(flat.tobytes())


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
