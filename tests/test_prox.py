import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dynlr import (
    ConfigError,
    DynamicImage,
    SolverConfig,
    SparseTransform,
    casorati_rank,
    from_casorati,
    ist_svt,
    learned_svt,
    nuclear_norm,
    soft_threshold,
    to_casorati,
    transform_adjoint,
    transform_forward,
)
from dynlr import core, prox
from dynlr.core import CasoratiView

from conftest import rand_image, rand_volume, rel_err, svt_oracle_hard, svt_oracle_soft


def rank1_image(rng, shape, sigma=5.0):
    """Volume whose Casorati matrix is sigma * u v^H with unit u, v."""
    nx, ny, nt = shape
    u = rng.standard_normal(nx * ny) + 1j * rng.standard_normal(nx * ny)
    v = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    m = sigma * np.outer(u, v.conj())
    return from_casorati(CasoratiView(m), shape), u, v


class TestSparseTransform:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigError):
            SparseTransform("spatial_tv")

    @pytest.mark.parametrize("kind,shape", [("temporal_fourier", (8, 8, 8)), ("temporal_haar", (4, 4, 8))])
    def test_unitary(self, rng, kind, shape):
        d = SparseTransform(kind)
        x = rand_image(rng, shape)
        z = transform_forward(x, d)
        n_in, n_out = np.linalg.norm(x.data), np.linalg.norm(z.data)
        assert abs(n_out - n_in) < 1e-10 * n_in

    @pytest.mark.parametrize("kind,shape", [("temporal_fourier", (8, 8, 4)), ("temporal_haar", (4, 4, 8))])
    def test_round_trip(self, rng, kind, shape):
        d = SparseTransform(kind)
        x = rand_image(rng, shape)
        back = transform_adjoint(transform_forward(x, d), d)
        assert rel_err(back.data, x.data) < 1e-10

    @pytest.mark.parametrize("kind", ["temporal_fourier", "temporal_haar"])
    def test_adjoint_identity(self, rng, kind):
        d = SparseTransform(kind)
        x = rand_image(rng, (4, 4, 8))
        z = rand_image(rng, (4, 4, 8))
        lhs = np.vdot(transform_forward(x, d).data, z.data)
        rhs = np.vdot(x.data, transform_adjoint(z, d).data)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_fourier_constant_in_time_concentrates_in_dc_bin(self, rng):
        frame = rand_image(rng, (6, 6, 1)).data
        x = DynamicImage(np.repeat(frame, 4, axis=2))
        z = transform_forward(x, SparseTransform("temporal_fourier"))
        assert np.abs(z.data[:, :, 1:]).max() < 1e-12 * np.abs(z.data[:, :, 0]).max()

    def test_haar_requires_power_of_two(self, rng):
        d = SparseTransform("temporal_haar")
        x = rand_image(rng, (4, 4, 3))
        with pytest.raises(ConfigError):
            transform_forward(x, d)
        with pytest.raises(ConfigError):
            transform_adjoint(x, d)

    def test_spatial_axes_untouched(self, rng):
        # transforming along t must not mix voxels at different (x, y)
        d = SparseTransform("temporal_fourier")
        x = rand_image(rng, (4, 4, 8))
        z = transform_forward(x, d)
        single = transform_forward(DynamicImage(x.data[:1, :1, :]), d)
        assert np.allclose(z.data[0, 0, :], single.data[0, 0, :], atol=1e-13)


class TestHaarMatrix:
    def test_pinned_entries(self):
        r = 1.0 / np.sqrt(2.0)
        expected = np.array([
            [0.5, 0.5, 0.5, 0.5],
            [0.5, 0.5, -0.5, -0.5],
            [r, -r, 0.0, 0.0],
            [0.0, 0.0, r, -r],
        ])
        assert np.abs(prox._haar_matrix(4) - expected).max() < 1e-15
        assert np.array_equal(prox._haar_matrix(1), [[1.0]])

    @pytest.mark.parametrize("nt", [1, 2, 4, 8, 16, 32, 64])
    def test_orthonormal(self, nt):
        h = prox._haar_matrix(nt)
        assert h.shape == (nt, nt) and h.dtype == np.float64
        assert np.abs(h @ h.T - np.eye(nt)).max() < 1e-14

    def test_cached_read_only(self):
        h = prox._haar_matrix(8)
        assert prox._haar_matrix(8) is h
        assert not h.flags.writeable

    def test_forward_rows_are_matrix_rows(self, rng):
        # coefficient j of a voxel is row j of the matrix applied to its time series
        x = rand_image(rng, (3, 5, 8))
        z = transform_forward(x, SparseTransform("temporal_haar"))
        expected = np.einsum("jt,xyt->xyj", prox._haar_matrix(8), x.data)
        assert np.abs(z.data - expected).max() < 1e-13 * np.abs(expected).max()


class TestSoftThreshold:
    def test_real_scalar_shrinkage(self):
        x = DynamicImage(np.full((1, 1, 1), 0.5 + 0j))
        out = soft_threshold(x, 0.2)
        assert abs(out.data[0, 0, 0] - 0.3) < 1e-15

    def test_zero_threshold_is_identity(self, rng):
        x = rand_image(rng, (4, 4, 2))
        assert np.array_equal(soft_threshold(x, 0.0).data, x.data)

    def test_zero_input_stays_zero(self):
        x = DynamicImage(np.zeros((2, 2, 2), dtype=complex))
        assert np.all(soft_threshold(x, 1.0).data == 0)

    def test_kills_below_threshold(self, rng):
        x = rand_image(rng, (4, 4, 2))
        big = 10 * np.abs(x.data).max()
        assert np.all(soft_threshold(x, big).data == 0)

    def test_matches_grid_search_prox_oracle(self):
        # prox of tau*|u| at z: argmin over u of |u - z|^2 / 2 + tau*|u|
        z = 3.0 + 4.0j
        tau = 1.0
        out = soft_threshold(DynamicImage(np.full((1, 1, 1), z)), tau).data[0, 0, 0]
        re = np.arange(2.2, 2.6, 0.001)
        im = np.arange(3.0, 3.4, 0.001)
        grid = re[:, None] + 1j * im[None, :]
        cost = 0.5 * np.abs(grid - z) ** 2 + tau * np.abs(grid)
        best = grid.ravel()[np.argmin(cost.ravel())]
        assert abs(out - best) < 1e-3
        # closed form for reference: shrink magnitude 5 -> 4, keep phase
        assert abs(out - 0.8 * z) < 1e-12

    def test_non_expansive(self, rng):
        for _ in range(20):
            a = rand_image(rng, (4, 4, 3))
            b = rand_image(rng, (4, 4, 3))
            sa = soft_threshold(a, 0.7).data
            sb = soft_threshold(b, 0.7).data
            assert np.linalg.norm(sa - sb) <= np.linalg.norm(a.data - b.data) + 1e-12

    def test_negative_threshold_rejected(self, rng):
        with pytest.raises(ConfigError):
            soft_threshold(rand_image(rng, (2, 2, 2)), -0.1)


class TestIstSvt:
    def test_zero_lambda_is_identity(self, rng):
        x = rand_image(rng, (6, 6, 4))
        out = ist_svt(x, 0.0, 1.0, 1.0)
        assert rel_err(out.data, x.data) < 1e-10

    def test_rank1_shrinks_by_threshold(self, rng):
        x, u, v = rank1_image(rng, (8, 8, 4), sigma=5.0)
        out = ist_svt(x, lambda2=2.0, rho=1.0, p=1.0)
        expected = 3.0 * np.outer(u, v.conj())
        assert rel_err(to_casorati(out).matrix, expected) < 1e-10

    def test_matches_independent_svd_oracle(self, rng):
        x = rand_image(rng, (8, 8, 8))  # 64 x 8 Casorati
        out = ist_svt(x, lambda2=0.5, rho=1.0, p=1.0)
        expected = svt_oracle_soft(to_casorati(x).matrix, 0.5)
        assert np.abs(to_casorati(out).matrix - expected).max() < 1e-8

    def test_never_increases_nuclear_norm(self, rng):
        for _ in range(10):
            x = rand_image(rng, (5, 5, 4))
            out = ist_svt(x, 0.3, 1.0, 1.0)
            assert nuclear_norm(out) <= nuclear_norm(x) + 1e-10

    def test_prox_property_on_vector_shaped_volume(self, rng):
        # for a 1x1xNt volume the Casorati matrix is a row vector, so the
        # nuclear prox reduces to a scalar problem in the vector norm
        x = rand_image(rng, (1, 1, 8))
        lam2, rho = 0.7, 1.3
        out = ist_svt(x, lam2, rho, 1.0)
        norm_x = np.linalg.norm(x.data)
        c_grid = np.arange(0.0, 2.0 * norm_x, 1e-4)
        cost = 0.5 * rho * (c_grid - norm_x) ** 2 + lam2 * c_grid
        c_best = c_grid[np.argmin(cost)]
        expected = c_best * x.data / norm_x
        assert np.abs(out.data - expected).max() < 1e-3

    def test_p_below_one_matches_shrinkage_rule(self, rng):
        x = rand_image(rng, (6, 6, 4))
        s_in = np.linalg.svd(to_casorati(x).matrix, compute_uv=False)
        out = ist_svt(x, lambda2=0.1, rho=1.0, p=0.5)
        s_out = np.linalg.svd(to_casorati(out).matrix, compute_uv=False)
        expected = np.maximum(s_in - 0.1 * s_in ** (-0.5), 0.0)
        assert np.allclose(np.sort(s_out), np.sort(expected), atol=1e-8)

    def test_invalid_parameters_rejected(self, rng):
        x = rand_image(rng, (4, 4, 2))
        with pytest.raises(ConfigError):
            ist_svt(x, 0.1, 0.0, 1.0)
        with pytest.raises(ConfigError):
            ist_svt(x, -0.1, 1.0, 1.0)
        with pytest.raises(ConfigError):
            ist_svt(x, 0.1, 1.0, 1.5)


class TestLearnedSvt:
    def test_full_rank_is_identity(self, rng):
        x = rand_image(rng, (6, 6, 4))
        assert rel_err(learned_svt(x, 4).data, x.data) < 1e-8

    def test_k1_is_best_rank_one_approximation(self, rng):
        x = rand_image(rng, (8, 4, 4))  # 32 x 4 Casorati
        out = learned_svt(x, 1)
        expected = svt_oracle_hard(to_casorati(x).matrix, 1)
        assert np.abs(to_casorati(out).matrix - expected).max() < 1e-8

    def test_low_rank_input_is_fixed_point(self, rng):
        x, _, _ = rank1_image(rng, (8, 8, 4))
        assert rel_err(learned_svt(x, 2).data, x.data) < 1e-8

    def test_output_rank_at_most_k(self, rng):
        for k in [1, 2, 3]:
            x = rand_image(rng, (8, 8, 6))
            out = learned_svt(x, k)
            s = np.linalg.svd(to_casorati(out).matrix, compute_uv=False)
            assert np.all(s[k:] < 1e-8 * s[0])
            assert casorati_rank(out) <= k

    def test_idempotent(self, rng):
        x = rand_image(rng, (8, 8, 6))
        once = learned_svt(x, 2)
        twice = learned_svt(once, 2)
        assert np.abs(twice.data - once.data).max() < 1e-8

    def test_k_out_of_range_rejected(self, rng):
        x = rand_image(rng, (4, 4, 4))
        with pytest.raises(ConfigError):
            learned_svt(x, 0)
        with pytest.raises(ConfigError):
            learned_svt(x, 5)


class TestNuclearNorm:
    def test_zero_volume(self):
        assert nuclear_norm(DynamicImage(np.zeros((4, 4, 2), dtype=complex))) == 0.0

    def test_rank_one(self, rng):
        x, _, _ = rank1_image(rng, (8, 8, 4), sigma=5.0)
        assert abs(nuclear_norm(x) - 5.0) < 1e-10

    def test_at_least_frobenius(self, rng):
        x = rand_image(rng, (16, 16, 4))
        assert nuclear_norm(x) >= np.linalg.norm(x.data) - 1e-10


# Scales beyond about 1e154 overflow the Gram matrix and scales below about
# 1e-146 underflow it, so every scale but 1 takes the SVD fallback.
SCALES = [1.0, 1e-160, 1e-170, 1e170]


@st.composite
def spectra(draw):
    """Shape, a descending spectrum of at most min(nx*ny, nt) values, and a seed.

    Consecutive singular values differ by a ratio in [0.4, 0.8], so the SVT is
    well conditioned and the oracle comparison well posed.  Ranks below
    ``min(nx*ny, nt)`` give rank-deficient Casorati matrices.
    """
    nx = draw(st.integers(1, 7))
    ny = draw(st.integers(1, 7))
    nt = draw(st.integers(1, 12))
    rank = draw(st.integers(1, min(nx * ny, nt)))
    ratio = draw(st.floats(0.4, 0.8))
    s_max = draw(st.floats(1.0, 10.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return (nx, ny, nt), s_max * ratio ** np.arange(rank), seed


def casorati_with_spectrum(shape, s, seed):
    """Casorati matrix of the given volume shape with singular values ``s``."""
    nx, ny, nt = shape
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rand_volume(rng, (nx * ny, s.size)))
    v, _ = np.linalg.qr(rand_volume(rng, (nt, s.size)))
    return (u * s) @ v.conj().T


def svt_without_warnings(op, x, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return op(x, *args)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
ODD_AND_WIDE = [((1, 1, 8), np.array([3.0]), 0), ((3, 1, 7), np.array([4.0, 2.0, 1.0]), 1)]


class TestSvtProperties:
    """Both SVTs against the independent SVD oracle, in units rescaled by ``scale``."""

    @pytest.mark.parametrize("scale", SCALES)
    @PROPERTY_SETTINGS
    @given(case=spectra(), k_frac=st.floats(0.0, 1.0))
    @example(case=ODD_AND_WIDE[0], k_frac=1.0)
    @example(case=ODD_AND_WIDE[1], k_frac=0.5)
    def test_learned_svt_matches_oracle_and_bounds_rank(self, scale, case, k_frac):
        shape, s, seed = case
        m = casorati_with_spectrum(shape, s, seed)
        k = max(1, round(k_frac * shape[2]))
        x = from_casorati(CasoratiView(scale * m), shape)
        out = to_casorati(svt_without_warnings(learned_svt, x, k)).matrix / scale
        assert np.abs(out - svt_oracle_hard(m, k)).max() < 1e-8
        s_out = np.linalg.svd(out, compute_uv=False)
        assert np.all(s_out[k:] < 1e-8 * s_out[0])

    @pytest.mark.parametrize("scale", SCALES)
    @PROPERTY_SETTINGS
    @given(case=spectra(), frac=st.floats(0.0, 0.9), p=st.floats(0.25, 1.0))
    @example(case=ODD_AND_WIDE[0], frac=0.5, p=1.0)
    @example(case=ODD_AND_WIDE[1], frac=0.3, p=0.5)
    def test_ist_svt_matches_oracle(self, scale, case, frac, p):
        shape, s, seed = case
        m = casorati_with_spectrum(shape, s, seed)
        # Threshold tau on the unscaled matrix; scaling by c needs tau * c**(2 - p).
        tau = frac * s[0] ** (2.0 - p)
        x = from_casorati(CasoratiView(scale * m), shape)
        out = svt_without_warnings(ist_svt, x, tau * scale ** (2.0 - p), 1.0, p)
        out = to_casorati(out).matrix / scale
        assert np.abs(out - svt_oracle_soft(m, tau, p)).max() < 1e-8

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 4), (2, 1, 9), (7, 7, 3)])
    def test_all_zero_volume_gives_zero(self, shape):
        x = DynamicImage(np.zeros(shape, dtype=complex))
        assert np.all(svt_without_warnings(learned_svt, x, 1).data == 0)
        assert np.all(svt_without_warnings(ist_svt, x, 0.5, 1.0, 0.5).data == 0)

    @pytest.mark.parametrize("scale", SCALES)
    def test_svd_runs_only_as_the_fallback(self, rng, monkeypatch, scale):
        calls = []
        svd = prox._casorati_svd
        monkeypatch.setattr(prox, "_casorati_svd", lambda arr: calls.append(arr) or svd(arr))
        x = DynamicImage(scale * rand_image(rng, (6, 5, 4)).data)
        learned_svt(x, 2)
        ist_svt(x, 0.1 * scale, 1.0, 1.0)
        assert len(calls) == (0 if scale == 1.0 else 2)

    # 129x67x32 is above the row split's floor, on slabs that no whole number
    # of slabs covers; the SVD fallback runs at the smallest scale.
    @pytest.mark.parametrize("shape", [(64, 64, 16), (129, 67, 32)])
    @pytest.mark.parametrize("cfg", [
        SolverConfig(rank_k=3), SolverConfig(lr_mode="soft", lambda2=5.0, rho=1.0, p=0.5),
    ], ids=["hard", "soft"])
    @pytest.mark.parametrize("scale", [1.0, 1e-170])
    def test_in_place_equals_out_of_place(self, rng, shape, cfg, scale):
        data = scale * rand_volume(rng, shape)
        cfg = cfg.validate_for(shape[2])
        with core._one_blas_thread():
            out, s_out, finite_out = prox._svt_arr(data, cfg)
            arr = data.copy()
            same, s_in, finite_in = prox._svt_arr(arr, cfg, arr)
        assert same is arr and finite_in and finite_out
        assert arr.tobytes() == out.tobytes()
        assert s_in.tobytes() == s_out.tobytes()

    # read_cplx returns F-ordered volumes, and the Gram matrix is formed from
    # the float64 view of the C-order Casorati matrix; 129x67x32 is above the
    # row split's floor.
    @pytest.mark.parametrize("shape", [(64, 64, 16), (129, 67, 32)])
    @pytest.mark.parametrize("layout", ["fortran", "frame-major"])
    def test_memory_layout_leaves_the_bits(self, rng, shape, layout):
        data = rand_volume(rng, shape)
        if layout == "fortran":
            other = np.asfortranarray(data)
        else:
            other = np.moveaxis(np.moveaxis(data, 2, 0).copy(), 0, 2)
        x, y = DynamicImage(data), DynamicImage(other)
        assert x.data.flags.c_contiguous and not y.data.flags.c_contiguous
        for op, args in ((learned_svt, (3,)), (ist_svt, (5.0, 1.0, 1.0))):
            assert op(y, *args).data.tobytes() == op(x, *args).data.tobytes()


class TestCasoratiRank:
    def test_counts_rank_of_a_rank1_volume(self, rng):
        x, _, _ = rank1_image(rng, (5, 3, 4))
        assert casorati_rank(x) == 1
        assert casorati_rank(x, rel_tol=0.0) >= 1

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -math.inf, -1e-12])
    def test_rejects_non_finite_or_negative_tolerance(self, rng, rel_tol):
        with pytest.raises(ConfigError, match="rel_tol"):
            casorati_rank(rand_image(rng, (5, 3, 4)), rel_tol=rel_tol)


_SIDES = st.integers(1, 9)
_SEEDS = st.integers(0, 2**32 - 1)
_EPS = np.finfo(np.float64).eps


class TestRandomShapeProperties:
    """Transform and threshold invariants over random shapes, odd nx and ny included."""

    @PROPERTY_SETTINGS
    @given(
        nx=_SIDES, ny=_SIDES, nt=st.integers(1, 12), log2_nt=st.integers(0, 4),
        kind=st.sampled_from(["temporal_fourier", "temporal_haar"]), seed=_SEEDS,
    )
    def test_transforms_are_unitary(self, nx, ny, nt, log2_nt, kind, seed):
        shape = (nx, ny, 2**log2_nt if kind == "temporal_haar" else nt)
        rng = np.random.default_rng(seed)
        x, z = rand_image(rng, shape), rand_image(rng, shape)
        d = SparseTransform(kind)
        fx = transform_forward(x, d)
        inner = np.vdot(fx.data, transform_forward(z, d).data)
        assert abs(inner - np.vdot(x.data, z.data)) <= 64 * _EPS * np.linalg.norm(x.data) * np.linalg.norm(z.data)
        assert rel_err(transform_adjoint(fx, d).data, x.data) <= 64 * _EPS
        assert rel_err(transform_forward(transform_adjoint(x, d), d).data, x.data) <= 64 * _EPS

    @PROPERTY_SETTINGS
    @given(
        nx=_SIDES, ny=_SIDES, nt=st.integers(1, 6), tau=st.floats(0.0, 3.0), zeros=st.booleans(), seed=_SEEDS,
    )
    def test_soft_threshold_satisfies_moreau_identity(self, nx, ny, nt, tau, zeros, seed):
        # prox of tau ||.||_1 plus the projection onto the l-inf ball of radius tau is the identity.
        rng = np.random.default_rng(seed)
        z = rand_volume(rng, (nx, ny, nt))
        if zeros:
            z[rng.random(z.shape) < 0.3] = 0
        mag = np.abs(z)
        projection = np.where(mag <= tau, z, tau * z / np.where(mag > 0, mag, 1.0))
        shrunk = soft_threshold(DynamicImage(z), tau).data
        assert np.abs(shrunk + projection - z).max() <= 4 * _EPS * max(1.0, mag.max())

    @PROPERTY_SETTINGS
    @given(nx=_SIDES, ny=_SIDES, nt=st.integers(3, 100).filter(lambda n: n & (n - 1)), seed=_SEEDS)
    def test_haar_rejects_nt_not_a_power_of_two(self, nx, ny, nt, seed):
        x = rand_image(np.random.default_rng(seed), (nx, ny, nt))
        d = SparseTransform("temporal_haar")
        with pytest.raises(ConfigError, match="power of two"):
            transform_forward(x, d)
        with pytest.raises(ConfigError, match="power of two"):
            transform_adjoint(x, d)
