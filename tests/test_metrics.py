import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dynlr import (
    DataError,
    DimensionError,
    DynamicImage,
    make_phantom,
    mse,
    mse_per_element,
    psnr,
    ssim,
)

from scipy.ndimage import correlate

from conftest import rand_image, rand_volume


def naive_mse(ref, rec):
    total = 0.0
    nx, ny, nt = ref.shape
    for x in range(nx):
        for y in range(ny):
            for t in range(nt):
                total += abs(ref.data[x, y, t] - rec.data[x, y, t]) ** 2
    return total


def dense_ssim(ref, rec):
    """SSIM with the dense 11x11 Gaussian window, written from the definition."""
    g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2.0 * 1.5**2))
    win = np.outer(g, g)
    win /= win.sum()
    drange = np.abs(ref.data).max()
    c1, c2 = (0.01 * drange) ** 2, (0.03 * drange) ** 2
    values = []
    for t in range(ref.nt):
        a, b = np.abs(ref.data[:, :, t]), np.abs(rec.data[:, :, t])
        mu_a = correlate(a, win, mode="nearest")
        mu_b = correlate(b, win, mode="nearest")
        s_aa = correlate(a * a, win, mode="nearest") - mu_a * mu_a
        s_bb = correlate(b * b, win, mode="nearest") - mu_b * mu_b
        s_ab = correlate(a * b, win, mode="nearest") - mu_a * mu_b
        ssim_map = ((2 * mu_a * mu_b + c1) * (2 * s_ab + c2)) / (
            (mu_a**2 + mu_b**2 + c1) * (s_aa + s_bb + c2)
        )
        values.append(ssim_map[5:-5, 5:-5].mean())
    return float(np.mean(values))


def naive_psnr(ref, rec):
    peak = max(abs(v) for v in ref.data.ravel())
    n = ref.data.size
    err = math.sqrt(naive_mse(ref, rec))
    return 20 * math.log10(peak * math.sqrt(n) / err)


class TestMse:
    def test_identical_is_zero(self, rng):
        img = rand_image(rng, (4, 4, 2))
        assert mse(img, img) == 0.0

    def test_unit_entries(self):
        ref = DynamicImage(np.zeros((2, 2, 1), dtype=complex))
        rec = DynamicImage(np.ones((2, 2, 1), dtype=complex))
        assert mse(ref, rec) == 4.0

    def test_matches_naive_loop(self, rng):
        ref = rand_image(rng, (5, 4, 3))
        rec = rand_image(rng, (5, 4, 3))
        assert abs(mse(ref, rec) - naive_mse(ref, rec)) < 1e-12 * naive_mse(ref, rec)

    def test_symmetric(self, rng):
        a = rand_image(rng, (4, 4, 2))
        b = rand_image(rng, (4, 4, 2))
        assert mse(a, b) == mse(b, a)

    def test_per_element(self, rng):
        a = rand_image(rng, (4, 4, 2))
        b = rand_image(rng, (4, 4, 2))
        assert abs(mse_per_element(a, b) - mse(a, b) / 32) < 1e-15

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            mse(rand_image(rng, (4, 4, 2)), rand_image(rng, (4, 4, 3)))


class TestPsnr:
    def test_identical_gives_inf(self, rng):
        img = rand_image(rng, (4, 4, 2))
        assert psnr(img, img) == math.inf

    def test_hand_computed_case(self):
        # peak 1, N = 4, ||diff|| = 2 -> 0 dB
        ref = DynamicImage(np.ones((2, 2, 1), dtype=complex))
        rec = DynamicImage(np.zeros((2, 2, 1), dtype=complex))
        assert abs(psnr(ref, rec)) < 1e-12

    def test_matches_naive_formula(self, rng):
        ref = rand_image(rng, (6, 5, 2))
        rec = rand_image(rng, (6, 5, 2))
        assert abs(psnr(ref, rec) - naive_psnr(ref, rec)) < 1e-10

    def test_zero_reference_rejected(self, rng):
        zero = DynamicImage(np.zeros((4, 4, 2), dtype=complex))
        with pytest.raises(DataError):
            psnr(zero, rand_image(rng, (4, 4, 2)))

    def test_decreases_with_noise_amplitude(self, rng):
        ref = make_phantom(16, 16, 8, kind="beating_rings")
        noise = rand_volume(rng, (16, 16, 8))
        values = [
            psnr(ref, DynamicImage(ref.data + amp * noise)) for amp in (0.01, 0.1, 1.0)
        ]
        assert values[0] > values[1] > values[2]


def whole_volume_mse_psnr(ref, rec):
    """``mse`` and ``psnr`` from one whole-volume difference, as numpy lays it out, in one scaled sum."""
    diff = ref.data - rec.data
    e = math.frexp(float(np.abs(diff).max()))[1]
    scaled = np.ldexp(diff.real, -e) ** 2 + np.ldexp(diff.imag, -e) ** 2
    err2 = float(scaled.sum())
    err = math.ldexp(math.sqrt(err2), e)
    peak = float(np.abs(ref.data).max())
    return math.ldexp(err2, 2 * e), 20.0 * math.log10(peak * math.sqrt(ref.data.size) / err)


class TestSlabScoring:
    """``mse`` and ``psnr`` score on x-row slabs with the bits of one whole-volume sum.

    The squares are summed in the layout that numpy gives ``ref.data -
    rec.data``: C for C-ordered inputs, F for F-ordered ones (such as
    volumes that ``read_cplx`` returns), and numpy's choice for a mix.
    129x67x32 is above the row split's floor, 20x12x6 under it.
    """

    @pytest.mark.parametrize("shape", [(20, 12, 6), (129, 67, 32)])
    @pytest.mark.parametrize("layouts", ["C/C", "F/F", "F/C"])
    def test_bits_of_the_whole_volume_sum(self, rng, shape, layouts):
        ref, rec = (rand_volume(rng, shape) for _ in range(2))
        ref_order, rec_order = layouts.split("/")
        ref = DynamicImage(np.asfortranarray(ref) if ref_order == "F" else ref)
        rec = DynamicImage(np.asfortranarray(rec) if rec_order == "F" else rec)
        assert ref.data.flags.f_contiguous == (ref_order == "F")
        assert rec.data.flags.f_contiguous == (rec_order == "F")
        assert (mse(ref, rec), psnr(ref, rec)) == whole_volume_mse_psnr(ref, rec)

    def test_fortran_inputs_score_in_no_more_memory(self, rng):
        """Two F-ordered volumes, as ``read_cplx`` returns them, run on contiguous slabs: numpy buffers none of the passes."""

        def peak(ref, rec):
            mse(ref, rec)
            tracemalloc.start()
            try:
                mse(ref, rec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ref, rec = (rand_volume(rng, (129, 67, 32)) for _ in range(2))
        c_peak = peak(DynamicImage(ref), DynamicImage(rec))
        assert peak(DynamicImage(np.asfortranarray(ref)), DynamicImage(np.asfortranarray(rec))) <= c_peak


class TestSsim:
    def test_identical_is_exactly_one(self, rng):
        img = rand_image(rng, (16, 12, 3))
        assert ssim(img, img) == 1.0

    def test_global_phase_invariance(self, rng):
        img = rand_image(rng, (16, 16, 2))
        rotated = DynamicImage(img.data * np.exp(1j * 0.83))
        assert abs(ssim(img, rotated) - 1.0) < 1e-9
        other = rand_image(rng, (16, 16, 2))
        assert abs(ssim(img, other) - ssim(img, DynamicImage(other.data * np.exp(-1j * 2.1)))) < 1e-9

    def test_constant_images_luminance_closed_form(self):
        c1_val, c2_val = 0.8, 0.5
        ref = DynamicImage(np.full((16, 16, 1), c1_val, dtype=complex))
        rec = DynamicImage(np.full((16, 16, 1), c2_val, dtype=complex))
        big_c1 = (0.01 * c1_val) ** 2
        expected = (2 * c1_val * c2_val + big_c1) / (c1_val**2 + c2_val**2 + big_c1)
        assert abs(ssim(ref, rec) - expected) < 1e-12

    def test_range(self, rng):
        for _ in range(5):
            a = rand_image(rng, (16, 16, 2))
            b = rand_image(rng, (16, 16, 2))
            value = ssim(a, b)
            assert -1.0 <= value <= 1.0

    def test_below_one_for_different_images(self, rng):
        a = rand_image(rng, (16, 16, 2))
        b = DynamicImage(a.data + 0.5 * rand_volume(rng, (16, 16, 2)))
        assert ssim(a, b) < 1.0

    @pytest.mark.parametrize("shape", [(13, 17, 3), (11, 11, 2), (11, 24, 2), (31, 12, 4)])
    def test_separable_window_matches_dense_reference(self, rng, shape):
        a = rand_image(rng, shape)
        b = DynamicImage(a.data + 0.7 * rand_volume(rng, shape))
        assert abs(ssim(a, b) - dense_ssim(a, b)) < 1e-12
        assert ssim(b, b) == 1.0

    def test_small_frames_rejected(self, rng):
        with pytest.raises(DimensionError):
            ssim(rand_image(rng, (8, 16, 2)), rand_image(rng, (8, 16, 2)))

    def test_zero_reference_rejected(self):
        zero = DynamicImage(np.zeros((16, 16, 1), dtype=complex))
        with pytest.raises(DataError):
            ssim(zero, zero)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            ssim(rand_image(rng, (16, 16, 2)), rand_image(rng, (16, 16, 3)))


class TestAnyFiniteScale:
    """PSNR and SSIM are defined, without numpy warnings, for every finite input."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e100, 1e160, 1e200, 1e300])
    def test_identical_volumes(self, rng, scale):
        a = DynamicImage(rand_volume(rng, (16, 16, 4)) * scale)
        assert ssim(a, a) == 1.0
        assert psnr(a, a) == math.inf
        assert mse(a, a) == 0.0

    @pytest.mark.parametrize("k", [-1000, -500, -100, -1, 1, 100, 500, 1000])
    def test_power_of_two_scale_keeps_the_bits(self, rng, k):
        a, b = rand_volume(rng, (16, 16, 4)), rand_volume(rng, (16, 16, 4))
        ref, rec = DynamicImage(a), DynamicImage(a + 0.1 * b)
        ref_k, rec_k = DynamicImage(np.ldexp(1.0, k) * ref.data), DynamicImage(np.ldexp(1.0, k) * rec.data)
        assert ssim(ref_k, rec_k) == ssim(ref, rec)
        assert psnr(ref_k, rec_k) == psnr(ref, rec)
        if abs(k) <= 500:
            assert mse(ref_k, rec_k) == math.ldexp(mse(ref, rec), 2 * k)

    def test_overflowing_squared_error(self, rng):
        a = rand_volume(rng, (16, 16, 4))
        ref, rec = DynamicImage(1e160 * a), DynamicImage(-1e160 * a)
        assert mse(ref, rec) == math.inf
        assert psnr(ref, rec) == pytest.approx(psnr(DynamicImage(a), DynamicImage(-a)), rel=1e-13)

    @pytest.mark.parametrize("brighter", [1e10, 1e200, 1e300])
    def test_reconstruction_far_brighter_than_reference(self, rng, brighter):
        ref = DynamicImage(rand_volume(rng, (16, 16, 4)))
        rec = DynamicImage(brighter * ref.data)
        assert 0.0 <= ssim(ref, rec) < 1e-3
        assert psnr(ref, rec) < -20 * math.log10(brighter) + 10
        assert math.isfinite(ssim(rec, ref)) and math.isfinite(psnr(rec, ref))
