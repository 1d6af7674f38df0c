import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
    NumericError,
    SamplingMask,
    SolverConfig,
    casorati_rank,
    core,
    default_config,
    from_casorati,
    ist_svt,
    learned_svt,
    nuclear_norm,
    prox,
    run_solver,
    to_casorati,
)
from dynlr.prox import SparseTransform, transform_adjoint, transform_forward
from dynlr.solvers import objective_slr

from conftest import measured_kspace, rand_image, rand_volume


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

    # C-ordered, F-ordered, frame-major and strided inputs, each with one bad part.
    @pytest.mark.parametrize("layout", ["C", "F", "frame-major", "strided"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)])
    def test_rejects_non_finite_in_any_layout(self, layout, bad):
        data = np.ones((6, 5, 4), dtype=complex)
        data[4, 3, 2] = bad
        arr = {
            "C": data,
            "F": np.asfortranarray(data),
            "frame-major": np.moveaxis(np.moveaxis(data, 2, 0).copy(), 0, 2),
            "strided": np.repeat(data, 2, axis=1)[:, ::2],
        }[layout]
        with pytest.raises(DataError, match="non-finite"):
            DynamicImage(arr)
        DynamicImage(np.where(np.isfinite(arr), arr, 0))

    def test_finite_check_makes_no_mask(self, rng):
        """The check reads the copy's memory in place: the copy is the only volume allocated."""
        data = rand_volume(rng, (64, 64, 16))
        tracemalloc.start()
        try:
            DynamicImage(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.01 * data.nbytes

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

    @staticmethod
    def volume_and_mask(rng, shape=(6, 7, 4)):
        nx, ny, nt = shape
        entries = (rng.random((ny, nt)) < 0.4).astype(np.uint8)
        entries[0, 0] = 1
        return rand_volume(rng, shape), SamplingMask(entries, 2.5)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_samples_are_the_gather_of_the_volume_bit_for_bit(self, rng, order):
        """``samples`` is ``data[:, mask]``, C-contiguous and read-only, for C- and F-ordered volumes (``read_cplx`` gives F)."""
        dense, mask = self.volume_and_mask(rng)
        dense[1, 2, 3] = complex(-0.0, 5e-324)  # a signed zero and a subnormal keep their bits
        ksp = KSpaceData(np.asarray(dense, order=order), mask)
        expected = np.ascontiguousarray(dense[:, mask.entries.astype(bool)])
        assert ksp.samples.shape == (6, mask.n_sampled)
        assert ksp.samples.tobytes() == expected.tobytes()
        assert ksp.samples.flags.c_contiguous and not ksp.samples.flags.writeable
        with pytest.raises(ValueError):
            ksp.samples[0, 0] = 0

    def test_data_is_zero_filled_and_read_only(self, rng):
        dense, mask = self.volume_and_mask(rng)
        sampled = mask.entries.astype(bool)
        dense[:, ~sampled] = complex(-0.0, -0.0)  # off-mask entries are not kept, signed zeros neither
        dense[0, ~sampled] = 7 - 3j
        ksp = KSpaceData(dense, mask)
        data = ksp.data
        assert data.shape == ksp.shape == dense.shape and data.dtype == np.complex128
        assert not data.flags.writeable
        assert data[:, sampled].tobytes() == ksp.samples.tobytes()
        off = data[:, ~sampled]
        assert np.all(off == 0) and not np.signbit(off.real).any() and not np.signbit(off.imag).any()
        assert data is not ksp.data  # built on each access

    @pytest.mark.parametrize(
        "data, entries, error, match",
        [
            (np.ones((3, 4, 2)), np.ones((4, 2)), None, None),
            (np.ones((3, 4)), np.ones((4, 2)), DimensionError, "KSpaceData must be 3-dimensional, got shape"),
            (np.ones((0, 4, 2)), np.ones((4, 2)), DimensionError, "at least one element per axis"),
            (np.ones((3, 4, 2)), np.ones((4, 3)), DimensionError, "does not match k-space shape"),
            ("nan off the mask", np.eye(4, 2), DataError, "KSpaceData contains non-finite values"),
            ("inf on the mask", np.eye(4, 2), DataError, "KSpaceData contains non-finite values"),
        ],
        ids=["valid", "ndim", "empty", "mask-shape", "nan-off-mask", "inf-on-mask"],
    )
    def test_construction_errors(self, data, entries, error, match):
        if isinstance(data, str):
            bad, where = (np.nan, (1, 1, 0)) if data.startswith("nan") else (np.inf * 1j, (1, 0, 0))
            data = np.ones((3, 4, 2), dtype=complex)
            data[where] = bad
        mask = SamplingMask(entries, 2.0)
        if error is None:
            assert KSpaceData(data, mask).shape == data.shape
        else:
            with pytest.raises(error, match=match):
                KSpaceData(data, mask)

    def test_pickle_round_trip_carries_the_samples(self, rng):
        dense, mask = self.volume_and_mask(rng, (32, 16, 8))
        ksp = KSpaceData(dense, mask)
        blob = pickle.dumps(ksp)
        back = pickle.loads(blob)
        assert back.samples.tobytes() == ksp.samples.tobytes()
        assert not back.samples.flags.writeable and back.samples.flags.c_contiguous
        assert np.array_equal(back.mask.entries, mask.entries) and back.shape == ksp.shape
        assert back.data.tobytes() == ksp.data.tobytes()
        assert len(blob) < ksp.samples.nbytes + dense.nbytes // 8  # the samples, not a volume


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


@pytest.fixture
def blas_count():
    """The thread-count getter of numpy's OpenBLAS, with the count set to 2 for the test and restored after it."""
    control = core._find_blas_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    get, set_ = control
    before = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS cannot run 2 threads here")
        yield get
    finally:
        set_(before)


def _blas_problem():
    img = DynamicImage(np.random.default_rng(3).standard_normal((32, 32, 8)) + 0j)
    return img, measured_kspace(img, 4.0, seed=5)


class TestOneBlasThread:
    """Inside a solve or a public operator BLAS runs on one thread, and the count is restored afterwards."""

    def test_solve_runs_on_one_thread_and_restores_the_count(self, blas_count):
        _, y = _blas_problem()
        seen = []
        run_solver("slr", y, default_config(y, rank_k=2, iterations=2),
                   callback=lambda n, x, **_: seen.append(blas_count()))
        assert seen == [1, 1]
        assert blas_count() == 2

    def test_solve_that_raises_restores_the_count(self, blas_count):
        _, y = _blas_problem()
        with pytest.raises(NumericError):
            run_solver("slr", y, SolverConfig(rho=1.0, eta1=1e300, rank_k=2, iterations=5))
        assert blas_count() == 2

    @pytest.mark.parametrize("op", [
        lambda x, y: learned_svt(x, 2),
        lambda x, y: ist_svt(x, 0.1, 1.0),
        lambda x, y: nuclear_norm(x),
        lambda x, y: casorati_rank(x),
        lambda x, y: transform_forward(x, SparseTransform("temporal_haar")),
        lambda x, y: transform_adjoint(x, SparseTransform("temporal_haar")),
        lambda x, y: objective_slr(x, x, x, y, SolverConfig()),
    ], ids=["learned_svt", "ist_svt", "nuclear_norm", "casorati_rank", "transform_forward",
            "transform_adjoint", "objective_slr"])
    def test_public_op_runs_on_one_thread_and_restores_the_count(self, blas_count, monkeypatch, op):
        x, y = _blas_problem()
        seen = []
        casorati = prox._casorati  # every BLAS operand of prox is a Casorati view

        def counting_casorati(arr3d):
            seen.append(blas_count())
            return casorati(arr3d)

        monkeypatch.setattr(prox, "_casorati", counting_casorati)
        op(x, y)
        assert seen and set(seen) == {1}
        assert blas_count() == 2

    def test_two_solves_at_once_restore_the_count(self, blas_count):
        """The first solve ends while the second runs: the second stays on one thread, and the last exit restores 2."""
        _, y = _blas_problem()
        cfg = default_config(y, rank_k=2, iterations=2)
        both_inside, first_done = threading.Barrier(2, timeout=60), threading.Event()
        seen, errors = {}, []

        def solve(name):
            def callback(n, x, **_):
                if n == 1:
                    both_inside.wait()
                elif name == "second":
                    assert first_done.wait(60)
                seen.setdefault(name, []).append(blas_count())

            try:
                run_solver("slr", y, cfg, callback=callback)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
            if name == "first":
                first_done.set()

        threads = [threading.Thread(target=solve, args=(name,)) for name in ("first", "second")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert errors == []
        assert seen == {"first": [1, 1], "second": [1, 1]}
        assert blas_count() == 2

    def test_guard_does_nothing_without_a_blas_control(self, blas_count, monkeypatch):
        monkeypatch.setattr(core, "_find_blas_control", lambda: None)
        monkeypatch.setattr(core, "_blas_control", ())
        _, y = _blas_problem()
        seen = []
        run_solver("slr", y, default_config(y, rank_k=2, iterations=1),
                   callback=lambda n, x, **_: seen.append(blas_count()))
        with core._one_blas_thread():
            seen.append(blas_count())
        assert seen == [2, 2]
        assert core._blas_control is None and core._blas_depth == 0


def test_import_does_not_look_up_blas():
    probe = "import dynlr; print(dynlr.core._blas_control == ())"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120
    )
    assert result.stdout == "True\n"


def test_split_pass_does_not_wait_for_a_pool_thread_that_has_not_started(monkeypatch):
    """With the only pool thread busy, the calling thread runs every slab and the pass returns at once."""
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(core, "_pool", pool)
    monkeypatch.setattr(core, "_split_width", 2)
    release = threading.Event()
    busy = pool.submit(release.wait, 10)
    try:
        slabs = []
        started = time.perf_counter()
        core._split_rows(slabs.append, 64, core._SPLIT_FLOOR)
        elapsed = time.perf_counter() - started
    finally:
        release.set()
        busy.result(10)
        pool.shutdown()
    assert slabs == [slice(a, a + 8) for a in range(0, 64, 8)]
    assert elapsed < 5
