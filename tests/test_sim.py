import numpy as np
import pytest

from dynlr import (
    ConfigError,
    SparseTransform,
    casorati_rank,
    make_phantom,
    make_vd_mask,
    nuclear_norm,
    to_casorati,
    transform_forward,
)
from dynlr.sim import central_lines

from conftest import svd_oracle


class TestCentralLines:
    def test_even_ny(self):
        assert list(central_lines(16)) == [6, 7, 8, 9]
        assert list(central_lines(192)) == [94, 95, 96, 97]

    def test_odd_ny(self):
        assert list(central_lines(9)) == [2, 3, 4, 5]

    @pytest.mark.parametrize("ny", [1, 2, 3, 8, 9])
    def test_every_count_up_to_ny_stays_inside(self, ny):
        for count in range(ny + 1):
            lines = central_lines(ny, count)
            assert lines.size == count
            assert np.all((lines >= 0) & (lines < ny))
        assert list(central_lines(ny, ny)) == list(range(ny))

    @pytest.mark.parametrize("ny, count", [(8, 20), (2, 4), (8, 9), (8, -1), (8, 2.5), (8, True)])
    def test_count_outside_zero_to_ny_is_config_error(self, ny, count):
        with pytest.raises(ConfigError, match="count"):
            central_lines(ny, count)


_BAD_INTEGER_CALLS = [
    ("central_lines-ny-float", lambda: central_lines(8.0, 2)),
    ("vd_mask-nt-float", lambda: make_vd_mask(16, 4.0, 2)),
    ("vd_mask-ny-float", lambda: make_vd_mask(16.0, 4, 2)),
    ("vd_mask-ny-bool", lambda: make_vd_mask(True, 4, 1)),
    ("vd_mask-seed-negative", lambda: make_vd_mask(8, 8, 2, seed=-1)),
    ("vd_mask-seed-float", lambda: make_vd_mask(8, 8, 2, seed=1.5)),
    ("phantom-nx-float", lambda: make_phantom(8.0, 8, 8)),
    ("phantom-nt-float", lambda: make_phantom(8, 8, 8.0, kind="rank_r_sparse")),
    ("phantom-ny-bool", lambda: make_phantom(8, True, 8)),
    ("phantom-seed-negative", lambda: make_phantom(8, 8, 8, seed=-1)),
    ("phantom-seed-negative-rank", lambda: make_phantom(8, 8, 8, kind="rank_r_sparse", seed=-1)),
    ("phantom-seed-float", lambda: make_phantom(8, 8, 8, seed=2.0)),
    ("phantom-rank-float", lambda: make_phantom(8, 8, 8, kind="rank_r_sparse", rank=2.5)),
    ("phantom-rank-bool", lambda: make_phantom(8, 8, 8, kind="rank_r_sparse", rank=True)),
    ("phantom-sparsity-float", lambda: make_phantom(8, 8, 8, kind="rank_r_sparse", sparsity=1.5)),
]


class TestIntegerArguments:
    """Every integer argument of the generators is an integer (not a bool) in range, or a ConfigError."""

    @pytest.mark.parametrize(
        "call", [c for _, c in _BAD_INTEGER_CALLS], ids=[name for name, _ in _BAD_INTEGER_CALLS]
    )
    def test_bad_value_is_config_error(self, call):
        with pytest.raises(ConfigError):
            call()

    def test_numpy_integers_accepted(self):
        n, seed = np.int64(8), np.int64(3)
        assert list(central_lines(n, np.int64(2))) == [3, 4]
        assert np.array_equal(make_vd_mask(n, n, 2, seed=seed).entries, make_vd_mask(8, 8, 2, seed=3).entries)
        a = make_phantom(n, n, n, kind="rank_r_sparse", seed=seed, rank=np.int64(2), sparsity=np.int64(2))
        b = make_phantom(8, 8, 8, kind="rank_r_sparse", seed=3, rank=2, sparsity=2)
        assert np.array_equal(a.data, b.data)


class TestMakeVdMask:
    def test_acceleration_one_samples_everything(self):
        mask = make_vd_mask(16, 4, 1.0, seed=0)
        assert np.all(mask.entries == 1)

    def test_full_size_operating_point(self):
        # 192 lines, 16 frames, 8-fold: 24 lines per frame, 4 central always on
        mask = make_vd_mask(192, 16, 8.0, seed=7)
        assert mask.entries.shape == (192, 16)
        per_frame = mask.entries.sum(axis=0)
        assert np.all(per_frame == 24)
        assert np.all(mask.entries[central_lines(192)] == 1)
        assert mask.achieved_acceleration == 8.0

    def test_entries_binary_and_budget_exact(self):
        mask = make_vd_mask(64, 8, 4.0, seed=3)
        assert set(np.unique(mask.entries)) <= {0, 1}
        assert np.all(mask.entries.sum(axis=0) == 16)

    def test_seed_determinism(self):
        a = make_vd_mask(64, 8, 4.0, seed=11)
        b = make_vd_mask(64, 8, 4.0, seed=11)
        c = make_vd_mask(64, 8, 4.0, seed=12)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    def test_frames_vary_by_default(self):
        mask = make_vd_mask(64, 8, 4.0, seed=1)
        frames = {mask.entries[:, t].tobytes() for t in range(8)}
        assert len(frames) > 1

    def test_static_pattern_option(self):
        mask = make_vd_mask(64, 8, 4.0, seed=1, per_frame=False)
        for t in range(1, 8):
            assert np.array_equal(mask.entries[:, t], mask.entries[:, 0])

    def test_center_always_sampled_small_monte_carlo(self):
        for seed in range(50):
            mask = make_vd_mask(64, 2, 8.0, seed=seed)
            assert np.all(mask.entries[central_lines(64)] == 1)

    def test_achieved_acceleration_within_tolerance(self):
        for accel in [2.0, 4.0, 8.0]:
            mask = make_vd_mask(64, 4, accel, seed=5)
            assert abs(mask.achieved_acceleration - accel) <= 0.1 * accel

    def test_budget_below_central_block_rejected(self):
        with pytest.raises(ConfigError):
            make_vd_mask(64, 4, 32.0, seed=0)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigError):
            make_vd_mask(64, 4, 0.5, seed=0)
        with pytest.raises(ConfigError):
            make_vd_mask(4, 4, 2.0, seed=0)
        with pytest.raises(ConfigError):
            make_vd_mask(64, 0, 2.0, seed=0)


class TestRankRSparsePhantom:
    def test_rank_and_sparsity_1_1(self):
        img = make_phantom(16, 16, 8, kind="rank_r_sparse", seed=1, rank=1, sparsity=1)
        s = np.linalg.svd(to_casorati(img).matrix, compute_uv=False)
        assert s[1] < 1e-10 * s[0]
        spectra = transform_forward(img, SparseTransform("temporal_fourier")).data
        mags = np.abs(spectra)
        nonzero = (mags > 1e-10 * mags.max()).sum(axis=2)
        assert np.all(nonzero == 1)

    def test_pixel_support_bounded_by_rank_times_sparsity(self):
        img = make_phantom(16, 16, 16, kind="rank_r_sparse", seed=4, rank=2, sparsity=2)
        spectra = transform_forward(img, SparseTransform("temporal_fourier")).data
        mags = np.abs(spectra)
        nonzero = (mags > 1e-10 * mags.max()).sum(axis=2)
        assert np.all(nonzero <= 4)

    def test_nuclear_norm_matches_independent_svd(self):
        img = make_phantom(16, 16, 16, kind="rank_r_sparse", seed=2, rank=3, sparsity=2)
        assert casorati_rank(img) == 3
        _, s, _ = svd_oracle(to_casorati(img).matrix)
        assert abs(nuclear_norm(img) - s[:3].sum()) < 1e-8 * s[0]
        assert s[3] < 1e-10 * s[0]

    def test_seed_determinism(self):
        a = make_phantom(16, 16, 8, kind="rank_r_sparse", seed=9, rank=2, sparsity=2)
        b = make_phantom(16, 16, 8, kind="rank_r_sparse", seed=9, rank=2, sparsity=2)
        assert np.array_equal(a.data, b.data)

    def test_peak_magnitude_is_one(self):
        img = make_phantom(16, 16, 8, kind="rank_r_sparse", seed=3, rank=2, sparsity=2)
        assert abs(np.abs(img.data).max() - 1.0) < 1e-12

    def test_phase_is_nontrivial(self):
        img = make_phantom(16, 16, 8, kind="rank_r_sparse", seed=3, rank=1, sparsity=1)
        assert np.abs(img.data.imag).max() > 1e-3

    def test_invalid_rank_rejected(self):
        with pytest.raises(ConfigError):
            make_phantom(16, 16, 8, kind="rank_r_sparse", rank=9, sparsity=1)
        with pytest.raises(ConfigError):
            make_phantom(16, 16, 8, kind="rank_r_sparse", rank=2, sparsity=5)


class TestBeatingRingsPhantom:
    def test_peak_magnitude_and_distinct_frames(self):
        img = make_phantom(32, 32, 8, kind="beating_rings", seed=0)
        assert abs(np.abs(img.data).max() - 1.0) < 1e-12
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.linalg.norm(img.data[:, :, i] - img.data[:, :, j]) > 1e-6

    def test_seed_determinism(self):
        a = make_phantom(32, 32, 8, kind="beating_rings", seed=5)
        b = make_phantom(32, 32, 8, kind="beating_rings", seed=5)
        assert np.array_equal(a.data, b.data)


class TestPhantomContract:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError) as err:
            make_phantom(16, 16, 8, kind="nosuch")
        assert "beating_rings" in str(err.value)
        assert "rank_r_sparse" in str(err.value)

    def test_too_small_dims_rejected(self):
        with pytest.raises(ConfigError):
            make_phantom(4, 16, 8)
