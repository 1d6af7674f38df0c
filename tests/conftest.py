"""Shared helpers for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from dynlr import DynamicImage, KSpaceData, SamplingMask, encode, make_vd_mask


def rand_volume(rng, shape):
    """Random complex array with the given (nx, ny, nt) shape."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_image(rng, shape) -> DynamicImage:
    return DynamicImage(rand_volume(rng, shape))


def rand_mask(rng, ny, nt, density=0.4) -> SamplingMask:
    """Random binary mask with at least one sampled line per frame."""
    entries = (rng.random((ny, nt)) < density).astype(np.uint8)
    for t in range(nt):
        if entries[:, t].sum() == 0:
            entries[rng.integers(0, ny), t] = 1
    ones = entries.sum()
    return SamplingMask(entries, entries.size / ones)


def rand_kspace(rng, shape, mask=None) -> KSpaceData:
    """Random k-space container (not necessarily zero off-mask)."""
    nx, ny, nt = shape
    if mask is None:
        mask = rand_mask(rng, ny, nt)
    return KSpaceData(rand_volume(rng, shape), mask)


def measured_kspace(img: DynamicImage, acceleration, seed) -> KSpaceData:
    """Forward-model measurement of an image through a variable-density mask."""
    mask = make_vd_mask(img.ny, img.nt, acceleration, seed=seed)
    return encode(img, mask)


def svd_oracle(matrix):
    """Independent full SVD via a different LAPACK driver than the library path."""
    return scipy.linalg.svd(matrix, full_matrices=True, lapack_driver="gesvd")


def svt_oracle_soft(matrix, threshold, p=1.0):
    """Reference soft singular-value thresholding built on the independent SVD.

    Each singular value s becomes ``max(s - threshold * s**(p-1), 0)``.
    """
    u, s, vh = svd_oracle(matrix)
    with np.errstate(divide="ignore"):
        shrink = np.where(s > 0, threshold * s ** (p - 1.0), 0.0)
    s_new = np.maximum(s - shrink, 0.0)
    k = min(matrix.shape)
    return (u[:, :k] * s_new) @ vh[:k, :]


def svt_oracle_hard(matrix, k):
    """Reference hard-rank truncation built on the independent SVD."""
    u, s, vh = svd_oracle(matrix)
    s_new = s.copy()
    s_new[k:] = 0.0
    r = min(matrix.shape)
    return (u[:, :r] * s_new) @ vh[:r, :]


def rel_err(a, b):
    denom = np.linalg.norm(np.asarray(b).ravel())
    if denom == 0:
        return np.linalg.norm(np.asarray(a).ravel())
    return np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()) / denom


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _children_import_this_checkout(monkeypatch):
    """Put this checkout's ``src`` first on the PYTHONPATH that subprocesses inherit."""
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [_SRC, inherited])))
