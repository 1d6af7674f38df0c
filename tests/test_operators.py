import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynlr import (
    ConfigError,
    DimensionError,
    DynamicImage,
    KSpaceData,
    SamplingMask,
    data_consistency,
    encode,
    encode_adjoint,
    fft2c,
    ifft2c,
    make_vd_mask,
)
from dynlr import core
from dynlr.operators import _sampled_columns, _sampled_fft2c_arr, _sampled_ifft2c_arr
from dynlr.sim import central_lines

from conftest import rand_image, rand_kspace, rand_mask, rand_volume, rel_err


class TestFFT:
    def test_zero_maps_to_zero(self):
        img = DynamicImage(np.zeros((4, 4, 2), dtype=complex))
        assert np.all(fft2c(img).data == 0)
        assert np.all(ifft2c(img).data == 0)

    def test_center_delta_gives_flat_magnitude(self):
        data = np.zeros((4, 4, 1), dtype=complex)
        data[2, 2, 0] = 1.0
        k = fft2c(DynamicImage(data))
        assert np.allclose(np.abs(k.data), 0.25, atol=1e-14)

    def test_constant_gives_center_delta(self):
        c = 0.7 - 0.2j
        k = ifft2c(DynamicImage(np.full((8, 6, 1), c)))
        expected = np.zeros((8, 6, 1), dtype=complex)
        expected[4, 3, 0] = c * np.sqrt(48)
        assert np.abs(k.data - expected).max() < 1e-12

    def test_parseval(self, rng):
        img = rand_image(rng, (16, 16, 4))
        assert abs(np.linalg.norm(fft2c(img).data) - np.linalg.norm(img.data)) < 1e-10 * np.linalg.norm(img.data)

    def test_round_trip(self, rng):
        img = rand_image(rng, (8, 8, 2))
        assert rel_err(ifft2c(fft2c(img)).data, img.data) < 1e-10
        assert rel_err(fft2c(ifft2c(img)).data, img.data) < 1e-10

    @pytest.mark.parametrize("shape", [(8, 6, 2), (7, 5, 3), (1, 4, 2), (3, 1, 1)])
    def test_same_bits_as_numpy_shifted_fft(self, rng, shape):
        # The shifts are block copies into a scratch volume; they must be the
        # exact permutations np.fft.fftshift/ifftshift make, odd sizes included.
        # The inverse runs the x axis first, as the sampled adjoint does.
        img = rand_image(rng, shape)
        axes = (0, 1)
        shifted = np.fft.ifftshift(img.data, axes=axes)
        fwd = np.fft.fftshift(np.fft.fft2(shifted, axes=axes, norm="ortho"), axes=axes)
        inv_x = np.fft.ifft(shifted, axis=0, norm="ortho")
        inv = np.fft.fftshift(np.fft.ifft(inv_x, axis=1, norm="ortho"), axes=axes)
        assert np.array_equal(fft2c(img).data, fwd)
        assert np.array_equal(ifft2c(img).data, inv)

    def test_frames_transform_independently(self, rng):
        img = rand_image(rng, (8, 8, 3))
        k = fft2c(img)
        for t in range(3):
            frame = DynamicImage(img.data[:, :, t : t + 1])
            assert np.allclose(fft2c(frame).data[:, :, 0], k.data[:, :, t], atol=1e-12)


class TestEncode:
    def test_fully_sampled_equals_fft(self, rng):
        img = rand_image(rng, (8, 8, 2))
        mask = SamplingMask(np.ones((8, 2)), 1.0)
        assert np.array_equal(encode(img, mask).data, fft2c(img).data)

    def test_masking_zeroes_unsampled(self, rng):
        img = rand_image(rng, (8, 16, 2))
        entries = np.zeros((16, 2), dtype=np.uint8)
        entries[central_lines(16)] = 1
        mask = SamplingMask(entries, 4.0)
        ksp = encode(img, mask)
        off = np.setdiff1d(np.arange(16), central_lines(16))
        assert np.all(ksp.data[:, off, :] == 0)
        assert np.abs(ksp.data[:, central_lines(16), :]).min() > 0

    def test_non_expansive(self, rng):
        img = rand_image(rng, (8, 8, 4))
        mask = rand_mask(rng, 8, 4)
        assert np.linalg.norm(encode(img, mask).data) <= np.linalg.norm(img.data) + 1e-12

    def test_dimension_mismatch(self, rng):
        img = rand_image(rng, (8, 8, 4))
        with pytest.raises(DimensionError):
            encode(img, rand_mask(rng, 6, 4))

    def test_linearity(self, rng):
        x = rand_image(rng, (8, 8, 2))
        z = rand_image(rng, (8, 8, 2))
        mask = rand_mask(rng, 8, 2)
        a, b = 1.3 - 0.4j, -0.2 + 2.1j
        lhs = encode(DynamicImage(a * x.data + b * z.data), mask).data
        rhs = a * encode(x, mask).data + b * encode(z, mask).data
        assert rel_err(lhs, rhs) < 1e-10


class TestAdjoint:
    def test_adjoint_identity(self, rng):
        img = rand_image(rng, (16, 16, 4))
        mask = make_vd_mask(16, 4, 4.0, seed=5)
        y = rand_kspace(rng, (16, 16, 4), mask)
        ax = encode(img, mask)
        ahy = encode_adjoint(y)
        lhs = np.vdot(ax.data, y.data)
        rhs = np.vdot(img.data, ahy.data)
        defect = abs(lhs - rhs) / (np.linalg.norm(ax.data) * np.linalg.norm(y.data))
        assert defect < 1e-10

    def test_zero_kspace_gives_zero_image(self, rng):
        mask = rand_mask(rng, 8, 2)
        y = KSpaceData(np.zeros((8, 8, 2), dtype=complex), mask)
        assert np.all(encode_adjoint(y).data == 0)

    def test_fully_sampled_round_trip(self, rng):
        img = rand_image(rng, (8, 8, 2))
        mask = SamplingMask(np.ones((8, 2)), 1.0)
        back = encode_adjoint(encode(img, mask))
        assert rel_err(back.data, img.data) < 1e-10

    def test_sampled_coefficients_survive_recomposition(self, rng):
        # encode -> adjoint -> encode preserves sampled k-space coefficients
        img = rand_image(rng, (16, 16, 4))
        mask = make_vd_mask(16, 4, 2.0, seed=8)
        first = encode(img, mask)
        again = encode(encode_adjoint(first), mask)
        sampled = mask.entries.astype(bool)
        assert np.abs(again.data[:, sampled] - first.data[:, sampled]).max() < 1e-12

    def test_masks_stray_offgrid_values(self, rng):
        # adjoint must ignore k-space content on unsampled lines
        entries = np.zeros((8, 1), dtype=np.uint8)
        entries[4] = 1
        mask = SamplingMask(entries, 8.0)
        y = rand_kspace(rng, (8, 8, 1), mask)
        direct = encode_adjoint(y)
        zeroed = y.data.copy()
        zeroed[:, entries[:, 0] == 0, :] = 0
        assert np.array_equal(direct.data, encode_adjoint(KSpaceData(zeroed, mask)).data)


_AXES = (0, 1)
_EPS = np.finfo(float).eps


def numpy_fft2c(x):
    """``fft2c`` in numpy calls."""
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(x, axes=_AXES), axes=_AXES, norm="ortho"), axes=_AXES)


def numpy_sampled_adjoint(c, sampled):
    """``A^H`` of the sampled columns ``c``, x axis first, in numpy calls."""
    full = np.zeros((c.shape[0],) + sampled.shape, dtype=complex)
    full[:, sampled] = c
    k = np.fft.ifft(np.fft.ifftshift(full, axes=_AXES), axis=0, norm="ortho")
    return np.fft.fftshift(np.fft.ifft(k, axis=1, norm="ortho"), axes=_AXES)


def _sampled_case(shape, density, blank_frame, seed):
    """A random volume, and a mask that may leave frames, or everything, unsampled."""
    nx, ny, nt = shape
    rng = np.random.default_rng(seed)
    sampled = rng.random((ny, nt)) < density
    if blank_frame:
        sampled[:, rng.integers(nt)] = False
    return rng, rand_image(rng, shape), sampled


_SAMPLED_CASES = dict(
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 4)),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    blank_frame=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


class TestDataConsistency:
    def test_fixed_point_in_replace_mode(self, rng):
        img = rand_image(rng, (8, 8, 2))
        mask = rand_mask(rng, 8, 2)
        acquired = encode(img, mask)
        out = data_consistency(img, acquired, mode="replace")
        assert rel_err(out.data, img.data) < 1e-10

    def test_zero_prediction_gives_zero_filled(self, rng):
        img = rand_image(rng, (8, 8, 2))
        mask = rand_mask(rng, 8, 2)
        acquired = encode(img, mask)
        pred = DynamicImage(np.zeros((8, 8, 2), dtype=complex))
        out = data_consistency(pred, acquired, mode="replace")
        assert rel_err(out.data, encode_adjoint(acquired).data) < 1e-12

    def test_weighted_large_nu_approaches_replace(self, rng):
        pred = rand_image(rng, (8, 8, 2))
        acquired = rand_kspace(rng, (8, 8, 2))
        rep = data_consistency(pred, acquired, mode="replace")
        wei = data_consistency(pred, acquired, mode="weighted", nu=1e12)
        assert rel_err(wei.data, rep.data) < 1e-6

    def test_weighted_zero_nu_is_identity(self, rng):
        pred = rand_image(rng, (8, 8, 2))
        acquired = rand_kspace(rng, (8, 8, 2))
        out = data_consistency(pred, acquired, mode="weighted", nu=0.0)
        assert rel_err(out.data, pred.data) < 1e-12

    def test_weighted_matches_blend_formula(self, rng):
        pred = rand_image(rng, (8, 8, 2))
        acquired = rand_kspace(rng, (8, 8, 2))
        nu = 2.5
        out = data_consistency(pred, acquired, mode="weighted", nu=nu)
        # independent recomputation straight from the definition
        k = fft2c(pred).data.copy()
        sampled = acquired.mask.entries.astype(bool)
        k[:, sampled] = (k[:, sampled] + nu * acquired.data[:, sampled]) / (1 + nu)
        expected = ifft2c(DynamicImage(k)).data
        assert rel_err(out.data, expected) < 1e-12

    def test_replace_is_idempotent(self, rng):
        pred = rand_image(rng, (8, 8, 2))
        acquired = rand_kspace(rng, (8, 8, 2))
        once = data_consistency(pred, acquired, mode="replace")
        twice = data_consistency(once, acquired, mode="replace")
        assert np.abs(twice.data - once.data).max() < 1e-12

    def test_replace_restores_sampled_coefficients(self, rng):
        pred = rand_image(rng, (8, 8, 2))
        acquired = rand_kspace(rng, (8, 8, 2))
        out = data_consistency(pred, acquired, mode="replace")
        k = fft2c(out).data
        sampled = acquired.mask.entries.astype(bool)
        assert np.abs(k[:, sampled] - acquired.data[:, sampled]).max() < 1e-12

    def test_unknown_mode_rejected(self, rng):
        pred = rand_image(rng, (8, 8, 2))
        acquired = rand_kspace(rng, (8, 8, 2))
        with pytest.raises(ConfigError):
            data_consistency(pred, acquired, mode="blend")
        with pytest.raises(ConfigError):
            data_consistency(pred, acquired, mode="weighted")

    def test_dimension_mismatch(self, rng):
        pred = rand_image(rng, (8, 8, 3))
        acquired = rand_kspace(rng, (8, 8, 2))
        with pytest.raises(DimensionError):
            data_consistency(pred, acquired)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(**_SAMPLED_CASES, weighted=st.booleans(), nu=st.floats(0.0, 10.0))
    def test_is_the_kspace_rule_between_the_public_transforms(
        self, shape, density, blank_frame, seed, weighted, nu
    ):
        """``data_consistency`` is ``x - w A^H (A x - y)`` bit for bit, and the k-space rule to rounding.

        The correction is spelled out in numpy calls, the adjoint x axis
        first.  The rule ``ifft2c(rule(fft2c(x)))`` is the same map in exact
        arithmetic; it differs by at most 16 eps relative, odd sizes, empty
        masks and blank frames included.
        """
        rng, pred, sampled = _sampled_case(shape, density, blank_frame, seed)
        acquired = KSpaceData(rand_volume(rng, shape), SamplingMask(sampled, 1.0))
        mode = "weighted" if weighted else "replace"
        out = data_consistency(pred, acquired, mode, nu if weighted else None)
        w = nu / (1.0 + nu) if weighted else 1.0
        c = np.ascontiguousarray(numpy_fft2c(pred.data)[:, sampled]) - acquired.data[:, sampled]
        assert np.array_equal(out.data, pred.data - w * numpy_sampled_adjoint(c, sampled))
        k = fft2c(pred).data.copy()
        if weighted:
            k[:, sampled] = (k[:, sampled] + nu * acquired.data[:, sampled]) / (1.0 + nu)
        else:
            k[:, sampled] = acquired.data[:, sampled]
        assert rel_err(out.data, ifft2c(DynamicImage(k)).data) <= 16 * _EPS


class TestSampledKernels:
    """The sampled-column kernels against the public operators, over odd sizes and sparse masks."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**_SAMPLED_CASES)
    def test_forward_is_fft2c_at_the_sampled_columns(self, shape, density, blank_frame, seed):
        _, img, sampled = _sampled_case(shape, density, blank_frame, seed)
        out = np.empty((shape[0], int(sampled.sum())), dtype=complex)
        ours = _sampled_fft2c_arr(img.data, _sampled_columns(sampled), out)
        assert ours.tobytes() == fft2c(img).data[:, sampled].tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**_SAMPLED_CASES)
    def test_adjoint_is_ifft2c_of_the_zero_filled_columns(self, shape, density, blank_frame, seed):
        """Bit for bit the x-first order in numpy calls, and ``ifft2c`` of the zero-filled volume to 4 eps."""
        rng, _, sampled = _sampled_case(shape, density, blank_frame, seed)
        c = rand_volume(rng, (shape[0], int(sampled.sum())))
        ours = _sampled_ifft2c_arr(c, _sampled_columns(sampled), np.empty(shape, complex))
        assert ours.tobytes() == numpy_sampled_adjoint(c, sampled).tobytes()
        full = np.zeros(shape, dtype=complex)
        full[:, sampled] = c
        assert rel_err(ours, ifft2c(DynamicImage(full)).data) <= 4 * _EPS

    @pytest.mark.parametrize("density", [0.3, 0.98])
    def test_split_kernels_keep_the_bits(self, density):
        """Both kernels above the split floor, on 129 x-rows, which no whole number of slabs covers.

        At density 0.98 the ``(nx, S)`` block is above the floor too, so its
        column passes run on slabs as well.
        """
        shape = (129, 67, 32)
        rng, img, sampled = _sampled_case(shape, density, False, 5)
        cols = _sampled_columns(sampled)
        out = np.empty((shape[0], int(sampled.sum())), dtype=complex)
        assert img.data.nbytes > core._SPLIT_FLOOR
        assert (out.nbytes > core._SPLIT_FLOOR) == (density > 0.5)
        ours = _sampled_fft2c_arr(img.data, cols, out)
        assert ours.tobytes() == numpy_fft2c(img.data)[:, sampled].tobytes()
        c = rand_volume(rng, out.shape)
        ours = _sampled_ifft2c_arr(c, cols, np.empty(shape, complex))
        assert ours.tobytes() == numpy_sampled_adjoint(c, sampled).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**_SAMPLED_CASES, f_order=st.booleans())
    def test_public_transforms_run_the_kernels(self, shape, density, blank_frame, seed, f_order):
        """``fft2c``, ``ifft2c`` and ``encode`` bit for bit, on C- and on F-ordered volumes.

        ``read_cplx`` returns F-ordered volumes.  ``fft2c`` is ``np.fft.fft2``'s
        order, ``ifft2c`` the x-first adjoint with every column sampled, and
        ``encode`` writes +0.0 at the unsampled entries.
        """
        _, img, sampled = _sampled_case(shape, density, blank_frame, seed)
        if f_order:
            img = DynamicImage(np.asfortranarray(img.data))
            assert img.data.flags.f_contiguous
        every = np.ones(shape[1:], dtype=bool)
        k = numpy_fft2c(img.data)
        assert fft2c(img).data.tobytes() == k.tobytes()
        assert ifft2c(img).data.tobytes() == numpy_sampled_adjoint(img.data[:, every], every).tobytes()
        ours = encode(img, SamplingMask(sampled, 1.0)).data
        assert ours[:, sampled].tobytes() == k[:, sampled].tobytes()
        assert ours[:, ~sampled].tobytes() == bytes(ours[:, ~sampled].nbytes)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**_SAMPLED_CASES)
    def test_encode_and_its_adjoint_are_adjoint(self, shape, density, blank_frame, seed):
        rng, img, sampled = _sampled_case(shape, density, blank_frame, seed)
        mask = SamplingMask(sampled, 1.0)
        ksp = KSpaceData(rand_volume(rng, shape), mask)
        lhs = np.vdot(encode(img, mask).data, ksp.data)
        rhs = np.vdot(img.data, encode_adjoint(ksp).data)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**_SAMPLED_CASES)
    def test_fft2c_is_unitary(self, shape, density, blank_frame, seed):
        _, img, _ = _sampled_case(shape, density, blank_frame, seed)
        k = fft2c(img)
        assert abs(np.linalg.norm(k.data) - np.linalg.norm(img.data)) <= 1e-12 * np.linalg.norm(img.data)
        assert rel_err(ifft2c(k).data, img.data) <= 1e-13
