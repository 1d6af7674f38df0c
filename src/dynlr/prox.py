"""Proximal and thresholding operators.

Two families live here: elementwise complex soft-thresholding paired with a
unitary temporal sparsifying transform, and singular-value thresholding of
the Casorati matrix (soft shrinkage or hard-rank truncation) that realizes
the low-rank prior.

Both thresholdings of the Casorati matrix ``M`` are computed from its
``nt x nt`` Gram matrix ``M^H M`` rather than from a thin SVD, which would
form the ``(nx*ny) x nt`` factor ``U``.  An SVD is used only when the Gram
matrix would overflow or underflow.  Unlike the SVD, the Gram route gives
the same bits at 1 and 2 BLAS threads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DynamicImage, TRANSFORM_KINDS

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SparseTransform:
    """Unitary transform along the temporal axis.

    ``temporal_fourier`` is the discrete Fourier transform over t (bin 0 is
    the temporal DC component); ``temporal_haar`` is the orthonormal Haar
    wavelet transform, which requires nt to be a power of two.  Both satisfy
    ``adjoint(forward(x)) == x`` and preserve the L2 norm.
    """

    kind: str = "temporal_fourier"

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ConfigError(f"transform kind must be one of {TRANSFORM_KINDS}, got {self.kind!r}")


def _require_power_of_two(nt):
    if nt < 1 or nt & (nt - 1):
        raise ConfigError(f"temporal_haar requires nt to be a power of two, got nt = {nt}")


def _haar_forward_arr(arr):
    _require_power_of_two(arr.shape[2])
    out = arr.astype(np.complex128, copy=True)
    n = arr.shape[2]
    while n > 1:
        a = out[:, :, 0:n:2]
        b = out[:, :, 1:n:2]
        s = (a + b) * _INV_SQRT2
        d = (a - b) * _INV_SQRT2
        out[:, :, : n // 2] = s
        out[:, :, n // 2 : n] = d
        n //= 2
    return out


def _haar_adjoint_arr(arr):
    _require_power_of_two(arr.shape[2])
    out = arr.astype(np.complex128, copy=True)
    n = 2
    while n <= arr.shape[2]:
        s = out[:, :, : n // 2].copy()
        d = out[:, :, n // 2 : n].copy()
        out[:, :, 0:n:2] = (s + d) * _INV_SQRT2
        out[:, :, 1:n:2] = (s - d) * _INV_SQRT2
        n *= 2
    return out


def _transform_fwd_arr(arr, kind):
    if kind == "temporal_fourier":
        return np.fft.fft(arr, axis=2, norm="ortho")
    return _haar_forward_arr(arr)


def _transform_adj_arr(arr, kind):
    if kind == "temporal_fourier":
        return np.fft.ifft(arr, axis=2, norm="ortho")
    return _haar_adjoint_arr(arr)


def transform_forward(x: DynamicImage, d: SparseTransform) -> DynamicImage:
    """Apply the unitary temporal transform; spatial axes are untouched."""
    return DynamicImage(_transform_fwd_arr(x.data, d.kind))


def transform_adjoint(z: DynamicImage, d: SparseTransform) -> DynamicImage:
    """Adjoint (= inverse) of :func:`transform_forward`."""
    return DynamicImage(_transform_adj_arr(z.data, d.kind))


def _soft_arr(arr, tau):
    mag = np.abs(arr)
    scale = np.maximum(mag - tau, 0.0) / np.where(mag > 0, mag, 1.0)
    return arr * scale


def soft_threshold(z: DynamicImage, tau: float) -> DynamicImage:
    """Complex soft-thresholding, the proximal operator of ``tau * ||.||_1``.

    Each entry is shrunk in magnitude by ``tau`` with its phase preserved:
    ``out = z/|z| * max(|z| - tau, 0)``, and exactly zero where ``z`` is zero.
    """
    if not tau >= 0:
        raise ConfigError(f"threshold must be >= 0, got {tau}")
    return DynamicImage(_soft_arr(z.data, tau))


# Below this largest diagonal entry the Gram matrix is built from subnormal
# products and no longer carries full relative precision: entries of 1e-160
# already give a 2e-4 relative error against the SVD.
_GRAM_UNDERFLOW = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def _casorati(arr3d):
    """The C-order ``(nx*ny) x nt`` view of a volume, free for a C-contiguous one.

    It is a row permutation of the x-fastest Casorati matrix, so it has the
    same singular values, and SVT commutes with the permutation.
    """
    nx, ny, nt = arr3d.shape
    return arr3d.reshape(nx * ny, nt)


def _casorati_svd(arr3d):
    return np.linalg.svd(_casorati(arr3d), full_matrices=False)


def _svt_arr(arr3d, shrink):
    """Replace the Casorati singular values by ``shrink(sigma)``.

    Returns the volume and ``shrink(sigma)``, with ``sigma`` in descending
    order.  The matrix is tall and skinny, so the SVT is computed from its
    ``nt x nt`` Gram matrix ``G = M^H M = V diag(sigma**2) V^H`` as
    ``M V diag(g) V^H``, with gain ``g = shrink(sigma) / sigma`` (0 where
    sigma is 0), where ``M`` is :func:`_casorati` of the volume.  Unlike the
    LAPACK SVD, this route gives the same bits at 1 and 2 BLAS threads.

    When ``G`` or its trace overflows (entries above about 1e154) or ``G``
    underflows (largest diagonal entry below ``_GRAM_UNDERFLOW``), the SVD
    of the Casorati matrix is used instead.
    """
    m = _casorati(arr3d)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        gram = m.conj().T @ m
        diag = gram.diagonal().real
        # trace(G) = ||M||_F^2 bounds every eigenvalue, so a finite trace keeps sigma finite.
        finite = np.isfinite(gram).all() and np.isfinite(diag.sum())
    if finite and diag.max() >= _GRAM_UNDERFLOW:
        w, v = np.linalg.eigh(gram)
        sigma = np.sqrt(np.maximum(w[::-1], 0.0))
        v = v[:, ::-1]
        s_new = shrink(sigma)
        gain = np.divide(s_new, sigma, out=np.zeros_like(sigma), where=sigma > 0)
        return (m @ ((v * gain) @ v.conj().T)).reshape(arr3d.shape), s_new
    u, s, vh = _casorati_svd(arr3d)
    s_new = shrink(s)
    return ((u * s_new) @ vh).reshape(arr3d.shape), s_new


def _svt_soft_arr(arr3d, lambda2, rho, p):
    """Soft SVT; returns the volume and its thresholded singular values."""

    def shrink(s):
        with np.errstate(divide="ignore", invalid="ignore"):
            shrunk = np.where(s > 0, s - (lambda2 / rho) * s ** (p - 1.0), 0.0)
        return np.maximum(shrunk, 0.0)

    return _svt_arr(arr3d, shrink)


def _svt_hard_arr(arr3d, k):
    """Hard-rank SVT; returns the volume and its kept singular values."""

    def truncate(s):
        s_new = s.copy()
        s_new[k:] = 0.0
        return s_new

    return _svt_arr(arr3d, truncate)


def ist_svt(x: DynamicImage, lambda2: float, rho: float, p: float = 1.0) -> DynamicImage:
    """Soft singular-value thresholding of the Casorati matrix.

    Every singular value sigma is replaced by
    ``max(sigma - (lambda2/rho) * sigma**(p-1), 0)`` and the matrix is
    rebuilt from the thresholded values.  For ``p = 1`` this is the
    classical shrinkage with constant threshold ``lambda2/rho``, i.e. the
    proximal operator of ``(lambda2/rho) * ||.||_*``.  It is computed from
    the Gram matrix of the Casorati matrix (see the module docstring);
    directions whose Gram eigenvalue rounds to zero or below are dropped.

    Parameters
    ----------
    x : DynamicImage
        Input volume.
    lambda2 : float
        Low-rank weight, >= 0.  Zero returns the input unchanged up to
        floating-point reconstruction error.
    rho : float
        Penalty parameter, > 0.
    p : float
        Shrinkage exponent in (0, 1].
    """
    if not lambda2 >= 0:
        raise ConfigError(f"lambda2 must be >= 0, got {lambda2}")
    if not rho > 0:
        raise ConfigError(f"rho must be > 0, got {rho}")
    if not (0 < p <= 1):
        raise ConfigError(f"p must lie in (0, 1], got {p}")
    return DynamicImage(_svt_soft_arr(x.data, lambda2, rho, p)[0])


def learned_svt(x: DynamicImage, k: int) -> DynamicImage:
    """Hard-rank singular-value truncation of the Casorati matrix.

    The top ``k`` singular values are kept exactly and the remaining ones
    are set to zero, so the output has Casorati rank at most ``k``.  The
    operation is idempotent for a fixed ``k``.  The output is the Casorati
    matrix projected onto the top-``k`` eigenvectors of its Gram matrix (see
    the module docstring).
    """
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= x.nt):
        raise ConfigError(f"k must be an integer in [1, nt={x.nt}], got {k}")
    return DynamicImage(_svt_hard_arr(x.data, int(k))[0])


def _nuclear_arr(arr3d):
    return float(np.linalg.svd(_casorati(arr3d), compute_uv=False).sum())


def nuclear_norm(x: DynamicImage) -> float:
    """Sum of the singular values of the Casorati matrix."""
    return _nuclear_arr(x.data)


def casorati_rank(x: DynamicImage, rel_tol: float = 1e-12) -> int:
    """Numerical rank of the Casorati matrix.

    Singular values below ``rel_tol`` times the largest one count as zero.
    """
    s = np.linalg.svd(_casorati(x.data), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int((s > rel_tol * s[0]).sum())
