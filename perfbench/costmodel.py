"""Computed kernel costs: operation counts and bytes from array sizes.

Nothing here is measured.  A 256x256x32 complex128 volume is 32 MiB, below
the 300 MiB shared L3 cache of the machine the benchmark was written on, so
a CPU run cannot tell how many of these bytes reach main memory.  The byte
figures are what the kernels read and write, labelled as computed, and no
bandwidth ratio is derived from them.
"""

import math

COMPLEX_BYTES = 16
# A complex multiply-add is 8 real flops and a complex add 2; LAPACK flop
# counts for complex matrices are conventionally taken as 4x the real count.
COMPLEX_FACTOR = 4.0


def fft2c_flops(nx, ny, nt):
    """``5 N log2 N`` real flops per frame of ``N = nx*ny`` points."""
    n = nx * ny
    return 5.0 * n * math.log2(n) * nt


def fft2c_bytes(nx, ny, nt):
    """Bytes read and written by the three full passes of ``fft2c``.

    ``ifftshift``, the out-of-place ``fft2`` and ``fftshift`` each read and
    write the whole complex128 volume once.
    """
    return 3 * 2 * COMPLEX_BYTES * nx * ny * nt


def thin_svd_flops(m, n):
    """R-SVD of an ``m x n`` complex matrix (``m >= n``) returning U1, S and V.

    ``6 m n^2 + 20 n^3`` real flops (Golub & Van Loan, Table 5.5.1), times
    the complex factor.
    """
    return COMPLEX_FACTOR * (6.0 * m * n * n + 20.0 * n**3)


def learned_svt_flops(nx, ny, nt):
    """Thin SVD of the ``(nx*ny) x nt`` Casorati matrix plus ``(U*s) @ Vh``."""
    m, n = nx * ny, nt
    recompose = 8.0 * m * n * n
    return thin_svd_flops(m, n) + recompose
