import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynlr import (
    CasoratiView,
    ConfigError,
    DataError,
    DimensionError,
    DynamicImage,
    KSpaceData,
    SamplingMask,
    SolverConfig,
    from_casorati,
    to_casorati,
)

from conftest import rand_image, rand_volume


class TestDynamicImage:
    def test_rejects_nan(self):
        data = np.ones((2, 2, 2), dtype=complex)
        data[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            DynamicImage(data)

    def test_rejects_inf(self):
        data = np.ones((2, 2, 2), dtype=complex)
        data[1, 1, 1] = np.inf * 1j
        with pytest.raises(DataError):
            DynamicImage(data)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DimensionError):
            DynamicImage(np.ones((2, 2)))

    def test_is_immutable(self, rng):
        img = rand_image(rng, (3, 3, 2))
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 0

    def test_does_not_alias_input(self):
        raw = np.ones((2, 2, 2), dtype=complex)
        img = DynamicImage(raw)
        raw[0, 0, 0] = 99
        assert img.data[0, 0, 0] == 1

    def test_shape_properties(self, rng):
        img = rand_image(rng, (4, 5, 6))
        assert (img.nx, img.ny, img.nt) == (4, 5, 6)
        assert img.shape == (4, 5, 6)


class TestSamplingMask:
    def test_rejects_non_binary(self):
        with pytest.raises(DataError):
            SamplingMask(np.full((4, 2), 0.5), 2.0)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DimensionError):
            SamplingMask(np.ones((4, 2, 2)), 2.0)

    def test_rejects_non_positive_acceleration(self):
        with pytest.raises(DataError):
            SamplingMask(np.ones((4, 2)), 0.0)

    def test_achieved_acceleration(self):
        entries = np.zeros((8, 2), dtype=np.uint8)
        entries[2:6, :] = 1
        mask = SamplingMask(entries, 2.0)
        assert mask.achieved_acceleration == 2.0
        assert mask.n_sampled == 8


class TestKSpaceData:
    def test_mask_dims_must_match(self, rng):
        mask = SamplingMask(np.ones((4, 2)), 1.0)
        with pytest.raises(DimensionError):
            KSpaceData(rand_volume(rng, (4, 5, 2)), mask)

    def test_valid_construction(self, rng):
        mask = SamplingMask(np.ones((5, 2)), 1.0)
        ksp = KSpaceData(rand_volume(rng, (4, 5, 2)), mask)
        assert ksp.shape == (4, 5, 2)


class TestCasorati:
    def test_degenerate_1x1x3(self):
        a, b, c = 1 + 2j, 3 - 1j, -0.5j
        img = DynamicImage(np.array([a, b, c]).reshape(1, 1, 3))
        view = to_casorati(img)
        assert view.shape == (1, 3)
        assert np.array_equal(view.matrix, np.array([[a, b, c]]))

    def test_2x1x2_column_layout(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        data = np.zeros((2, 1, 2), dtype=complex)
        data[:, 0, 0] = [a, b]
        data[:, 0, 1] = [c, d]
        view = to_casorati(DynamicImage(data))
        assert np.array_equal(view.matrix[:, 0], np.array([a, b]))
        assert np.array_equal(view.matrix[:, 1], np.array([c, d]))

    def test_column_is_frame_flattened_x_fastest(self, rng):
        img = rand_image(rng, (3, 4, 2))
        view = to_casorati(img)
        # entry (x + nx*y, t) == voxel (x, y, t)
        for t in range(2):
            for y in range(4):
                for x in range(3):
                    assert view.matrix[x + 3 * y, t] == img.data[x, y, t]

    def test_round_trip_is_bit_exact(self, rng):
        img = rand_image(rng, (8, 8, 4))
        back = from_casorati(to_casorati(img), (8, 8, 4))
        assert np.array_equal(back.data, img.data)

    def test_round_trip_many_shapes(self, rng):
        for shape in [(1, 1, 1), (1, 7, 3), (5, 1, 2), (6, 3, 1), (4, 5, 6)]:
            img = rand_image(rng, shape)
            back = from_casorati(to_casorati(img), shape)
            assert np.array_equal(back.data, img.data)

    def test_from_casorati_degenerate(self):
        a, b, c = 2.0, 4.0, 8.0
        img = from_casorati(CasoratiView(np.array([[a, b, c]])), (1, 1, 3))
        assert list(img.data[0, 0, :]) == [a, b, c]

    def test_from_casorati_shape_mismatch(self, rng):
        view = CasoratiView(rand_volume(rng, (3, 3)))
        with pytest.raises(DimensionError):
            from_casorati(view, (2, 2, 3))


class TestCasoratiRoundTripProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 6)), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_over_random_shapes(self, shape, seed):
        nx, ny, nt = shape
        img = rand_image(np.random.default_rng(seed), shape)
        view = to_casorati(img)
        # entry (x + nx*y, t) is voxel (x, y, t)
        assert np.array_equal(view.matrix, img.data.reshape(nx * ny, nt, order="F"))
        assert np.array_equal(from_casorati(view, shape).data, img.data)


class TestSolverConfig:
    def test_defaults_are_valid(self):
        SolverConfig().validate()

    @pytest.mark.parametrize(
        "changes",
        [
            {"lambda1": -1.0},
            {"lambda2": -0.1},
            {"rho": -1e-9},
            {"eta1": -0.5},
            {"eta2": 0.0},
            {"rank_k": 0},
            {"rank_k": 2.5},
            {"p": 0.0},
            {"p": 1.5},
            {"iterations": 0},
            {"placement": "L4"},
            {"dc_mode": "magic"},
            {"dc_nu": -1.0},
            {"lr_mode": "medium"},
            {"transform": "spatial_wavelet"},
            {"t_step_input": "t"},
        ],
    )
    def test_rejects_bad_fields(self, changes):
        with pytest.raises(ConfigError):
            SolverConfig(**changes).validate()

    def test_rank_k_bounded_by_nt(self):
        cfg = SolverConfig(rank_k=8)
        cfg.validate_for(8)
        with pytest.raises(ConfigError):
            cfg.validate_for(6)

    def test_replaced_returns_modified_copy(self):
        cfg = SolverConfig()
        other = cfg.replaced(lambda1=0.5)
        assert other.lambda1 == 0.5
        assert cfg.lambda1 != 0.5
