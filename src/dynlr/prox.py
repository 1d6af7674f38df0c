"""Proximal and thresholding operators.

Two families live here: elementwise complex soft-thresholding paired with a
unitary temporal sparsifying transform, and singular-value thresholding of
the Casorati matrix (soft shrinkage or hard-rank truncation) that realizes
the low-rank prior.

Both thresholdings of the Casorati matrix ``M`` are computed from its
``nt x nt`` Gram matrix ``M^H M``, one real product of the ``float64`` view
of ``M``, rather than from a thin SVD, which would form the ``(nx*ny) x nt``
factor ``U``.  An SVD is used only when the Gram matrix would overflow or
underflow.

Every public operator here that reaches BLAS or LAPACK (the SVTs, the
nuclear norm, the rank and the transforms) runs under
:func:`~dynlr.core._one_blas_thread`, as the solvers' loops do, so its
result has the bits of a one-thread BLAS run whatever thread count the
process has set, and equals the loops' kernels bit for bit.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    DynamicImage,
    SolverConfig,
    _finite,
    _new_volume,
    _one_blas_thread,
    _SlabScratch,
    _split_rows,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SparseTransform:
    """Unitary transform along the temporal axis.

    ``temporal_fourier`` is the discrete Fourier transform over t (bin 0 is
    the temporal DC component); ``temporal_haar`` is the orthonormal Haar
    wavelet transform, a real ``nt x nt`` matrix (coarsest coefficient first,
    nt a power of two) applied to the C-order Casorati view; each row of the
    view is transformed on its own, so its bits do not depend on how the
    rows are split.  Both satisfy ``adjoint(forward(x)) == x``
    and preserve the L2 norm.
    """

    kind: str = "temporal_fourier"

    def __post_init__(self):
        SolverConfig(transform=self.kind).validate()


def _require_power_of_two(nt):
    if nt < 1 or nt & (nt - 1):
        raise ConfigError(f"temporal_haar requires nt to be a power of two, got nt = {nt}")


def _casorati(arr3d):
    """The C-contiguous ``(nx*ny) x nt`` matrix of a volume: a free view of a C-contiguous one, else a copy.

    It is a row permutation of the x-fastest Casorati matrix, so it has the
    same singular values, and SVT and the Haar matrix commute with it.
    """
    nx, ny, nt = arr3d.shape
    return np.ascontiguousarray(arr3d).reshape(nx * ny, nt)


@functools.cache
def _haar_matrix(nt):
    """The real orthonormal ``nt x nt`` Haar matrix, coarsest row first; read-only.

    ``H_2n = [H_n kron (1, 1); I_n kron (1, -1)] / sqrt(2)``, ``H_1 = [[1]]``.
    """
    _require_power_of_two(nt)
    if nt == 1:
        h = np.ones((1, 1))
    else:
        half = _haar_matrix(nt // 2)
        h = np.vstack([np.kron(half, [1.0, 1.0]), np.kron(np.eye(nt // 2), [1.0, -1.0])]) * _INV_SQRT2
    h.setflags(write=False)
    return h


def _transform_fwd_arr(arr, kind, out=None):
    """The forward transform of ``arr`` into ``out``, a C-contiguous volume other than ``arr``.

    None allocates a new volume.
    """
    out = _new_volume(arr) if out is None else out
    if kind == "temporal_fourier":
        return np.fft.fft(arr, axis=2, norm="ortho", out=out)
    np.matmul(_casorati(arr), _haar_matrix(arr.shape[2]).T, out=_casorati(out))
    return out


def _transform_adj_arr(arr, kind, out=None):
    """The adjoint transform of ``arr`` into ``out``, as :func:`_transform_fwd_arr`."""
    out = _new_volume(arr) if out is None else out
    if kind == "temporal_fourier":
        return np.fft.ifft(arr, axis=2, norm="ortho", out=out)
    np.matmul(_casorati(arr), _haar_matrix(arr.shape[2]), out=_casorati(out))
    return out


def transform_forward(x: DynamicImage, d: SparseTransform) -> DynamicImage:
    """Apply the unitary temporal transform; spatial axes are untouched."""
    with _one_blas_thread():
        return DynamicImage(_transform_fwd_arr(x.data, d.kind))


def transform_adjoint(z: DynamicImage, d: SparseTransform) -> DynamicImage:
    """Adjoint (= inverse) of :func:`transform_forward`."""
    with _one_blas_thread():
        return DynamicImage(_transform_adj_arr(z.data, d.kind))


def _soft_arr(arr, tau, out=None, pair=None):
    """Soft-threshold ``arr`` into ``out``, which may be ``arr``.

    ``pair`` holds two real scratch volumes.  None allocates new arrays.
    """
    mag, scale = np.empty((2,) + arr.shape) if pair is None else pair
    np.abs(arr, out=mag)
    np.maximum(np.subtract(mag, tau, out=scale), 0.0, out=scale)
    # Where mag is 0 (or NaN) scale is left as it is, the same bits as dividing by 1.
    np.divide(scale, mag, out=scale, where=mag > 0)
    return np.multiply(arr, scale, out=out)


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


def _casorati_svd(arr3d):
    return np.linalg.svd(_casorati(arr3d), full_matrices=False)


def _shrink(sigma, cfg):
    """The low-rank rule of ``cfg`` applied to the descending singular values ``sigma``.

    Hard mode keeps the top ``rank_k`` values and zeroes the rest; soft mode
    replaces each by ``max(sigma - (lambda2/rho) * sigma**(p-1), 0)`` (0 at 0).
    """
    if cfg.lr_mode == "hard":
        s_new = sigma.copy()
        s_new[cfg.rank_k:] = 0.0
        return s_new
    with np.errstate(divide="ignore", invalid="ignore"):
        shrunk = np.where(sigma > 0, sigma - (cfg.lambda2 / cfg.rho) * sigma ** (cfg.p - 1.0), 0.0)
    return np.maximum(shrunk, 0.0)


def _svt_arr(arr3d, cfg, out=None, scratch=None):
    """Replace the Casorati singular values by ``_shrink(sigma, cfg)``.

    ``cfg`` is a :class:`SolverConfig` that passed ``validate_for(nt)``.
    Returns the volume, the new singular values, in the descending order
    of ``sigma``, and whether the volume is finite.  The matrix is tall and
    skinny, so the SVT is computed from its ``nt x nt`` Gram matrix
    ``G = M^H M = V diag(sigma**2) V^H`` as ``M V diag(g) V^H``, with gain
    ``g = _shrink(sigma) / sigma`` (0 where sigma is 0), where ``M`` is
    :func:`_casorati` of the volume.

    ``G`` comes from one real product ``q = R^T R`` of the free ``float64``
    view ``R`` of ``M``, whose columns alternate real and imaginary parts:
    ``Re G = q_ee + q_oo`` and ``Im G = q_eo - q_oe`` (even and odd rows and
    columns), exactly Hermitian.  The output product runs on x-row slabs
    (:func:`~dynlr.core._split_rows`), whose Casorati rows are
    ``rows.start*ny : rows.stop*ny``, and each slab of the output checks
    its own finiteness.  On one BLAS thread
    (:func:`~dynlr.core._one_blas_thread`, which the solvers and the public
    operators enter) a slab's product rows have the bits of the same rows
    of the whole product, so the result does not depend on the split width
    (checked with OpenBLAS 0.3.31 on 64x64x16, 129x67x32, 128x128x32 and
    256x256x32).

    When ``G`` or its trace overflows (entries above about 1e154) or ``G``
    underflows (largest diagonal entry below ``_GRAM_UNDERFLOW``), the SVD
    of the Casorati matrix is used instead.

    The result is written into ``out``, a C-contiguous complex volume, or
    None for a new one.  ``out`` may be ``arr3d``, which must then be
    C-contiguous: the Gram matrix (or the SVD) is formed first, and each
    slab's product rows go through the calling thread's buffer of
    ``scratch``, a :class:`~dynlr.core._SlabScratch` for volumes of this
    shape (None: a new one), before they overwrite the slab, with the bits
    of the product into a separate ``out``.
    """
    nx, ny = arr3d.shape[:2]
    m = _casorati(arr3d)
    r = m.view(np.float64)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        q = r.T @ r
        gram = (q[0::2, 0::2] + q[1::2, 1::2]) + 1j * (q[0::2, 1::2] - q[1::2, 0::2])
        diag = gram.diagonal().real
        # trace(G) = ||M||_F^2 bounds every eigenvalue, so a finite trace keeps sigma finite.
        finite = np.isfinite(gram).all() and np.isfinite(diag.sum())
    if out is None:
        out = _new_volume(arr3d)
    dest = _casorati(out)
    if finite and diag.max() >= _GRAM_UNDERFLOW:
        w, v = np.linalg.eigh(gram)
        sigma = np.sqrt(np.maximum(w[::-1], 0.0))
        v = v[:, ::-1]
        s_new = _shrink(sigma, cfg)
        gain = np.divide(s_new, sigma, out=np.zeros_like(sigma), where=sigma > 0)
        project = (v * gain) @ v.conj().T
        # In place, a slab's product goes through a buffer: its rows are its own input.
        in_place = out is arr3d
        if in_place and scratch is None:
            scratch = _SlabScratch(arr3d)
        failed = []

        def product(rows):
            span = slice(rows.start * ny, rows.stop * ny)
            if in_place:
                result = np.matmul(m[span], project, out=_casorati(scratch(rows)))
                dest[span] = result
            else:
                result = np.matmul(m[span], project, out=dest[span])
            if not _finite(result):
                failed.append(rows)

        _split_rows(product, nx, arr3d.nbytes)
        return out, s_new, not failed
    u, s, vh = _casorati_svd(arr3d)
    s_new = _shrink(s, cfg)
    return out, s_new, _finite(np.matmul(u * s_new, vh, out=dest))


def ist_svt(x: DynamicImage, lambda2: float, rho: float, p: float = 1.0) -> DynamicImage:
    """Soft singular-value thresholding of the Casorati matrix.

    Every singular value sigma is replaced by
    ``max(sigma - (lambda2/rho) * sigma**(p-1), 0)`` and the matrix is
    rebuilt from the thresholded values.  For ``p = 1`` this is the
    classical shrinkage with constant threshold ``lambda2/rho``, i.e. the
    proximal operator of ``(lambda2/rho) * ||.||_*``.  It is computed from
    the Gram matrix of the Casorati matrix (see the module docstring);
    directions whose Gram eigenvalue rounds to zero or below are dropped.
    The ranges are the soft-mode :class:`SolverConfig`'s, checked through it.

    Parameters
    ----------
    x : DynamicImage
        Input volume.
    lambda2 : float
        Low-rank weight, finite and >= 0.  Zero returns the input unchanged
        up to floating-point reconstruction error.
    rho : float
        Penalty parameter, finite and > 0.
    p : float
        Shrinkage exponent in (0, 1].
    """
    cfg = SolverConfig(lambda2=lambda2, rho=rho, p=p, lr_mode="soft").validate_for(x.nt)
    with _one_blas_thread():
        return DynamicImage(_svt_arr(x.data, cfg)[0])


def learned_svt(x: DynamicImage, k: int) -> DynamicImage:
    """Hard-rank singular-value truncation of the Casorati matrix.

    The top ``k`` singular values are kept exactly and the remaining ones
    are set to zero, so the output has Casorati rank at most ``k``.  The
    operation is idempotent for a fixed ``k``.  The output is the Casorati
    matrix projected onto the top-``k`` eigenvectors of its Gram matrix (see
    the module docstring).  ``k`` takes the hard-mode range of
    ``SolverConfig.rank_k``, ``[1, nt]``, checked through it.
    """
    cfg = SolverConfig(rank_k=k).validate_for(x.nt)
    with _one_blas_thread():
        return DynamicImage(_svt_arr(x.data, cfg)[0])


def _singular_values(arr3d):
    """The singular values of the Casorati matrix of ``arr3d``, largest first."""
    return np.linalg.svd(_casorati(arr3d), compute_uv=False)


def _nuclear_arr(arr3d):
    return float(_singular_values(arr3d).sum())


def nuclear_norm(x: DynamicImage) -> float:
    """Sum of the singular values of the Casorati matrix."""
    with _one_blas_thread():
        return _nuclear_arr(x.data)


def casorati_rank(x: DynamicImage, rel_tol: float = 1e-12) -> int:
    """Numerical rank of the Casorati matrix.

    Singular values at or below ``rel_tol`` times the largest one count as
    zero; ``rel_tol`` must be finite and >= 0.
    """
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ConfigError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    with _one_blas_thread():
        s = _singular_values(x.data)
    if s.size == 0 or s[0] == 0:
        return 0
    return int((s > rel_tol * s[0]).sum())
