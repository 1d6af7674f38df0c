import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dynlr
from dynlr import (
    ConfigError,
    DynamicImage,
    KSpaceData,
    NumericError,
    SamplingMask,
    SolverConfig,
    SparseTransform,
    casorati_rank,
    default_config,
    encode,
    encode_adjoint,
    ifft2c,
    fft2c,
    make_phantom,
    make_vd_mask,
    nuclear_norm,
    objective_slr,
    psnr,
    run_solver,
    solve_ista_lr,
    solve_ista_sparse,
    solve_slr,
    transform_forward,
    tune_hyperparams,
)

from conftest import rand_image, rand_kspace, rel_err


def small_problem(seed_img=2, seed_mask=4, accel=4.0, rank=2, sparsity=2):
    img = make_phantom(32, 32, 8, kind="rank_r_sparse", seed=seed_img, rank=rank, sparsity=sparsity)
    mask = make_vd_mask(32, 8, accel, seed=seed_mask)
    return img, encode(img, mask)


def sampled_residual(image, y):
    k = fft2c(image).data * y.mask.entries[None, :, :]
    return np.abs(k - y.data).max() / np.abs(y.data).max()


def gradient_descent_oracle(y, eta, iterations):
    """Plain gradient descent on the data term, written from the definitions."""
    axes = (0, 1)
    m3 = y.mask.entries[None, :, :].astype(float)

    def fwd(a):
        return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(a, axes=axes), axes=axes, norm="ortho"), axes=axes)

    def inv(a):
        return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(a, axes=axes), axes=axes, norm="ortho"), axes=axes)

    ym = y.data * m3
    x = inv(ym)
    out = []
    for _ in range(iterations):
        x = x - eta * inv(fwd(x) * m3 - ym)
        out.append(x.copy())
    return out


class TestObjective:
    def test_all_zero_is_zero(self):
        zero = DynamicImage(np.zeros((4, 4, 2), dtype=complex))
        mask = SamplingMask(np.ones((4, 2)), 1.0)
        y = KSpaceData(np.zeros((4, 4, 2), dtype=complex), mask)
        breakdown = objective_slr(zero, zero, zero, y, SolverConfig())
        assert breakdown.total == 0.0
        assert breakdown.data_fidelity == 0.0
        assert breakdown.sparse_term == 0.0
        assert breakdown.nuclear_term == 0.0
        assert breakdown.multiplier_term == 0.0
        assert breakdown.penalty_term == 0.0

    def test_reduces_to_least_squares(self, rng):
        x = rand_image(rng, (8, 8, 2))
        t = rand_image(rng, (8, 8, 2))
        beta = rand_image(rng, (8, 8, 2))
        y = rand_kspace(rng, (8, 8, 2))
        cfg = SolverConfig(lambda1=0.0, lambda2=0.0, rho=0.0)
        breakdown = objective_slr(x, t, beta, y, cfg)
        resid = encode(x, y.mask).data - y.data * y.mask.entries[None, :, :]
        assert abs(breakdown.total - 0.5 * np.linalg.norm(resid) ** 2) < 1e-10

    def test_matches_independent_recomputation(self, rng):
        x = rand_image(rng, (8, 8, 4))
        t = rand_image(rng, (8, 8, 4))
        beta = rand_image(rng, (8, 8, 4))
        y = rand_kspace(rng, (8, 8, 4))
        cfg = SolverConfig(lambda1=0.3, lambda2=0.7, rho=1.1)
        breakdown = objective_slr(x, t, beta, y, cfg)
        # term-by-term recomputation through the public operator API
        m3 = y.mask.entries[None, :, :]
        fid = 0.5 * np.linalg.norm(encode(x, y.mask).data - y.data * m3) ** 2
        coeffs = np.fft.fft(x.data, axis=2, norm="ortho")
        sparse = 0.3 * np.abs(coeffs).sum()
        nuc = 0.7 * nuclear_norm(t)
        diff = t.data - x.data
        mult = -1.1 * np.real(np.sum(np.conj(beta.data) * diff))
        pen = 0.55 * np.linalg.norm(diff) ** 2
        expected = fid + sparse + nuc + mult + pen
        assert abs(breakdown.total - expected) < 1e-10 * max(1.0, abs(expected))

    def test_shape_mismatch_rejected(self, rng):
        x = rand_image(rng, (8, 8, 4))
        other = rand_image(rng, (8, 8, 2))
        y = rand_kspace(rng, (8, 8, 4))
        with pytest.raises(Exception):
            objective_slr(x, other, x, y, SolverConfig())


class TestIstaSparse:
    def test_fully_sampled_no_regularization_recovers_exactly(self, rng):
        img = rand_image(rng, (8, 8, 2))
        mask = SamplingMask(np.ones((8, 2)), 1.0)
        y = encode(img, mask)
        cfg = SolverConfig(lambda1=0.0, iterations=3)
        report = solve_ista_sparse(y, cfg)
        assert rel_err(report.image.data, ifft2c(DynamicImage(y.data)).data) < 1e-8

    def test_huge_threshold_without_dc_drives_to_zero(self):
        img, y = small_problem()
        cfg = SolverConfig(lambda1=1e6, iterations=5, dc_mode="weighted", dc_nu=0.0)
        report = solve_ista_sparse(y, cfg)
        assert np.all(report.image.data == 0)

    def test_tuned_beats_zero_filled(self):
        img, y = small_problem()
        zf_psnr = psnr(img, encode_adjoint(y))
        peak = np.abs(encode_adjoint(y).data).max()
        cfg = tune_hyperparams(
            y, img, {"lambda1": [2e-3 * peak, 5e-3 * peak, 1e-2 * peak], "iterations": [30]}, "ista"
        )
        report = solve_ista_sparse(y, cfg, reference=img)
        # regression margin: first tuner run gave +2.95 dB on this instance
        assert report.metrics["psnr"] > zf_psnr + 2.0

    def test_final_sampled_kspace_consistent(self):
        _, y = small_problem()
        cfg = default_config(y, iterations=10)
        report = solve_ista_sparse(y, cfg)
        assert sampled_residual(report.image, y) < 1e-10

    def test_trace_has_one_record_per_iteration(self):
        _, y = small_problem()
        report = solve_ista_sparse(y, default_config(y, iterations=7))
        assert [r.iteration for r in report.trace] == list(range(1, 8))
        assert all(np.isfinite(r.objective) for r in report.trace)
        assert all(r.split_gap is None for r in report.trace)

    def test_low_rank_fields_are_ignored(self):
        _, y = small_problem()
        cfg = default_config(y, iterations=5)
        unused = cfg.replaced(rank_k=y.shape[2] + 3, lr_mode="soft", rho=0.0, placement="L1", lambda2=5.0)
        a, b = solve_ista_sparse(y, cfg), solve_ista_sparse(y, unused)
        assert np.array_equal(a.image.data, b.image.data)
        assert a.trace == b.trace

    def test_metrics_only_with_reference(self):
        img, y = small_problem()
        assert solve_ista_sparse(y, default_config(y)).metrics is None
        report = solve_ista_sparse(y, default_config(y), reference=img)
        assert set(report.metrics) == {"mse", "psnr", "ssim"}


class TestSlr:
    def test_fully_sampled_no_regularization_recovers_exactly(self, rng):
        img = rand_image(rng, (8, 8, 2))
        mask = SamplingMask(np.ones((8, 2)), 1.0)
        y = encode(img, mask)
        cfg = SolverConfig(lambda1=0.0, lambda2=0.0, rho=0.0, rank_k=2, iterations=3)
        report = solve_slr(y, cfg)
        assert rel_err(report.image.data, ifft2c(DynamicImage(y.data)).data) < 1e-8

    def test_degenerate_config_matches_gradient_descent(self):
        _, y = small_problem()
        cfg = SolverConfig(lambda1=0.0, lambda2=0.0, rho=0.0, rank_k=8, iterations=6)
        iterates = []
        solve_slr(y, cfg, callback=lambda n, x, **_: iterates.append(x.data))
        oracle = gradient_descent_oracle(y, cfg.eta2, 6)
        for ours, ref in zip(iterates, oracle):
            assert rel_err(ours, ref) < 1e-10

    def test_beats_ista_on_rank1_sparse_phantom(self):
        img, y = small_problem(seed_img=6, seed_mask=9, rank=1, sparsity=1)
        peak = np.abs(encode_adjoint(y).data).max()
        cfg_ista = tune_hyperparams(
            y, img, {"lambda1": [2e-3 * peak, 5e-3 * peak, 1e-2 * peak], "iterations": [30]}, "ista"
        )
        cfg_slr = tune_hyperparams(
            y,
            img,
            {"lambda1": [1e-3 * peak, 5e-3 * peak], "rho": [0.05, 0.2], "rank_k": [1], "iterations": [50]},
            "slr",
        )
        p_ista = solve_ista_sparse(y, cfg_ista, reference=img).metrics["psnr"]
        p_slr = solve_slr(y, cfg_slr, reference=img).metrics["psnr"]
        # first tuner run on this instance: ista 25.80, slr 27.30
        assert p_slr >= p_ista + 0.5

    def test_hard_mode_surrogate_rank_bounded(self):
        _, y = small_problem()
        cfg = default_config(y, iterations=6, rank_k=2)
        ranks = []
        solve_slr(y, cfg, callback=lambda n, x, t, beta: ranks.append(casorati_rank(t)))
        assert ranks and all(r <= 2 for r in ranks)

    def test_soft_mode_runs_and_differs_from_hard(self):
        _, y = small_problem()
        base = default_config(y, iterations=6, rank_k=2)
        hard = solve_slr(y, base)
        soft = solve_slr(y, base.replaced(lr_mode="soft"))
        assert not np.array_equal(hard.image.data, soft.image.data)

    def test_soft_mode_requires_positive_rho(self):
        _, y = small_problem()
        with pytest.raises(ConfigError):
            solve_slr(y, default_config(y, lr_mode="soft", rho=0.0))

    def test_t_step_input_switch_changes_iterates(self):
        _, y = small_problem()
        cfg = default_config(y, iterations=6, rank_k=2, rho=0.5)
        a = solve_slr(y, cfg)
        b = solve_slr(y, cfg.replaced(t_step_input="x"))
        assert not np.array_equal(a.image.data, b.image.data)

    def test_rank_k_exceeding_nt_rejected(self):
        _, y = small_problem()
        with pytest.raises(ConfigError):
            solve_slr(y, default_config(y, rank_k=20))

    def test_trace_records_split_gap(self):
        _, y = small_problem()
        report = solve_slr(y, default_config(y, iterations=5))
        assert all(r.split_gap is not None and np.isfinite(r.split_gap) for r in report.trace)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_guard_names_objective_overflow(self):
        _, y = small_problem()
        cfg = SolverConfig(rho=1e4, eta2=1e4, rank_k=2, iterations=50)
        with pytest.raises(NumericError) as err:
            solve_slr(y, cfg)
        assert err.value.step == "objective"
        assert err.value.iteration is not None

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_error_carries_completed_records(self):
        _, y = small_problem()
        cfg = SolverConfig(rho=1e4, eta2=1e4, rank_k=2, iterations=50)
        with pytest.raises(NumericError) as err:
            solve_slr(y, cfg)
        records = err.value.trace
        assert [r.iteration for r in records] == list(range(1, err.value.iteration))
        assert all(np.isfinite(r.objective) for r in records)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_guard_names_gradient_step(self):
        _, y = small_problem()
        cfg = SolverConfig(rho=10.0, eta2=1.5e308, rank_k=2, iterations=5)
        with pytest.raises(NumericError) as err:
            solve_slr(y, cfg)
        assert err.value.step == "gradient"
        assert err.value.iteration == 1

    @pytest.mark.parametrize(
        "cfg, step, iteration",
        [
            (SolverConfig(rho=1e4, eta2=1e4, rank_k=2, iterations=50), "objective", 21),
            (SolverConfig(rho=10.0, eta2=1.5e308, rank_k=2, iterations=5), "gradient", 1),
        ],
    )
    def test_numeric_failure_raises_without_numpy_warnings(self, cfg, step, iteration):
        _, y = small_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as err:
                solve_slr(y, cfg)
        assert (err.value.step, err.value.iteration) == (step, iteration)


class TestIstaLr:
    @pytest.mark.parametrize("placement", ["L1", "L2", "L3"])
    def test_full_rank_module_matches_plain_ista(self, placement):
        _, y = small_problem()
        cfg = default_config(y, iterations=6, rank_k=8, placement=placement)
        ista_iterates, lr_iterates = [], []
        solve_ista_sparse(y, cfg, callback=lambda n, x: ista_iterates.append(x.data))
        solve_ista_lr(y, cfg, callback=lambda n, x: lr_iterates.append(x.data))
        for a, b in zip(ista_iterates, lr_iterates):
            assert rel_err(b, a) < 1e-10

    def test_degenerate_config_matches_gradient_descent(self):
        _, y = small_problem()
        cfg = SolverConfig(lambda1=0.0, lambda2=0.0, rho=0.0, rank_k=8, iterations=6)
        iterates = []
        solve_ista_lr(y, cfg, callback=lambda n, x: iterates.append(x.data))
        for ours, ref in zip(iterates, gradient_descent_oracle(y, cfg.eta2, 6)):
            assert rel_err(ours, ref) < 1e-10

    def test_l2_consistent_l3_not(self):
        img, y = small_problem()
        cfg = default_config(y, iterations=10, rank_k=2)
        r2 = solve_ista_lr(y, cfg.replaced(placement="L2"))
        r3 = solve_ista_lr(y, cfg.replaced(placement="L3"))
        assert sampled_residual(r2.image, y) < 1e-12
        assert sampled_residual(r3.image, y) > 1e-9

    @pytest.mark.parametrize("placement", ["L1", "L2", "L3"])
    def test_zero_data_gives_zero_output(self, placement):
        mask = make_vd_mask(16, 4, 2.0, seed=1)
        y = KSpaceData(np.zeros((16, 16, 4), dtype=complex), mask)
        cfg = SolverConfig(rank_k=2, iterations=4, placement=placement)
        report = solve_ista_lr(y, cfg)
        assert np.all(report.image.data == 0)

    def test_invalid_placement_rejected(self):
        _, y = small_problem()
        with pytest.raises(ConfigError):
            solve_ista_lr(y, default_config(y).replaced(placement="L9"))


class TestTraceTermsMatchRecomputation:
    """Trace terms reused from the iteration agree with recomputation through public ops."""

    @staticmethod
    def assert_close(recorded, recomputed):
        assert abs(recorded - recomputed) <= 1e-12 * abs(recomputed)

    def assert_sparse_term(self, record, x, cfg):
        coeffs = transform_forward(x, SparseTransform(cfg.transform)).data
        self.assert_close(record.sparse_term, cfg.lambda1 * float(np.abs(coeffs).sum()))

    @pytest.mark.parametrize("lr_mode", ["hard", "soft"])
    def test_slr(self, lr_mode):
        _, y = small_problem()
        cfg = default_config(y, iterations=6, rank_k=2, lr_mode=lr_mode)
        states = []
        report = solve_slr(y, cfg, callback=lambda n, x, t, beta: states.append((x, t, beta)))
        assert len(states) == len(report.trace) == 6
        for record, (x, t, beta) in zip(report.trace, states):
            terms = objective_slr(x, t, beta, y, cfg)
            assert record.nuclear_term > 0
            self.assert_close(record.nuclear_term, cfg.lambda2 * nuclear_norm(t))
            self.assert_sparse_term(record, x, cfg)
            self.assert_close(record.objective, terms.total)
            assert record.data_fidelity == terms.data_fidelity
            gap = x.data - t.data
            assert record.split_gap == np.sqrt(np.sum(gap.real**2 + gap.imag**2))

    @pytest.mark.parametrize("lr_mode", ["hard", "soft"])
    def test_ista_lr_l3(self, lr_mode):
        _, y = small_problem()
        cfg = default_config(y, iterations=6, rank_k=2, placement="L3", lr_mode=lr_mode)
        iterates = []
        report = solve_ista_lr(y, cfg, callback=lambda n, x: iterates.append(x))
        assert len(iterates) == len(report.trace) == 6
        for record, x in zip(report.trace, iterates):
            nuclear = cfg.lambda2 * nuclear_norm(x)
            assert record.nuclear_term > 0
            self.assert_close(record.nuclear_term, nuclear)
            self.assert_sparse_term(record, x, cfg)
            self.assert_close(record.objective, record.data_fidelity + record.sparse_term + nuclear)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Prints the final-image SHA-256 of four low-rank solves on the 64x64x16
# standard instance (phantom seed 21, mask seed 13, 8x).
_LOW_RANK_IMAGE_HASHES = """
import hashlib, json
from dynlr import default_config, encode, make_phantom, make_vd_mask, run_solver

img = make_phantom(64, 64, 16, kind="rank_r_sparse", seed=21, rank=2, sparsity=2)
y = encode(img, make_vd_mask(64, 16, 8.0, seed=13))
runs = [
    ("slr", {"lr_mode": "hard"}),
    ("slr", {"lr_mode": "soft"}),
    ("ista-lr", {"placement": "L1", "lr_mode": "soft"}),
    ("ista-lr", {"placement": "L3", "lr_mode": "soft"}),
]
images = [run_solver(name, y, default_config(y, rank_k=2, iterations=20, **kw)).image for name, kw in runs]
print(json.dumps([hashlib.sha256(im.data.tobytes()).hexdigest() for im in images]))
"""


def low_rank_image_hashes(blas_threads):
    """Run the four solves in a fresh interpreter; ``None`` leaves BLAS at its default."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    if blas_threads is not None:
        env.update(dict.fromkeys(_BLAS_THREAD_VARS, str(blas_threads)))
    src = str(Path(dynlr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _LOW_RANK_IMAGE_HASHES],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout)


class TestDeterminismAndDiagnostics:
    def test_final_images_independent_of_blas_threads(self):
        assert low_rank_image_hashes(1) == low_rank_image_hashes(None)

    def test_bit_identical_reruns(self):
        img, y = small_problem()
        cfg = default_config(y, iterations=8, rank_k=2)
        a = solve_slr(y, cfg, reference=img)
        b = solve_slr(y, cfg, reference=img)
        assert np.array_equal(a.image.data, b.image.data)
        assert a.trace == b.trace
        assert a.metrics == b.metrics

    @pytest.mark.parametrize("solver", ["ista", "slr", "ista-lr"])
    def test_final_fidelity_bounded_by_zero_image(self, solver):
        # the data term of the final iterate never exceeds that of the zero
        # image (1/2 ||y||^2), the no-information baseline
        _, y = small_problem()
        cfg = default_config(y, iterations=12, rank_k=2)
        report = run_solver(solver, y, cfg)
        assert report.trace[-1].data_fidelity <= 0.5 * np.linalg.norm(y.data) ** 2

    def test_residual_trend_declines(self):
        img, y = small_problem()
        peak = np.abs(encode_adjoint(y).data).max()
        for solver, cfg in [
            ("ista", default_config(y, iterations=30, lambda1=5e-3 * peak)),
            ("slr", default_config(y, iterations=30, lambda1=2e-3 * peak, rank_k=2, rho=0.2)),
            ("ista-lr", default_config(y, iterations=30, lambda1=2e-3 * peak, rank_k=2)),
        ]:
            report = run_solver(solver, y, cfg)
            assert report.trace[-1].rel_change < report.trace[0].rel_change

    def test_seconds_and_config_recorded(self):
        _, y = small_problem()
        cfg = default_config(y, iterations=3)
        report = solve_ista_sparse(y, cfg)
        assert report.seconds > 0
        assert report.config == cfg

    def test_unknown_solver_name(self):
        _, y = small_problem()
        with pytest.raises(ConfigError):
            run_solver("admm", y, default_config(y))


class TestTuner:
    def test_single_config_returned(self):
        img, y = small_problem()
        cfg = tune_hyperparams(y, img, {"lambda1": [0.123]}, "ista")
        assert cfg.lambda1 == 0.123

    def test_noiseless_fully_sampled_prefers_no_threshold(self, rng):
        img = rand_image(rng, (8, 8, 2))
        mask = SamplingMask(np.ones((8, 2)), 1.0)
        y = encode(img, mask)
        cfg = tune_hyperparams(y, img, {"lambda1": [0.0, 1e6]}, "ista", base=SolverConfig(iterations=4))
        assert cfg.lambda1 == 0.0

    def test_deterministic(self):
        img, y = small_problem()
        space = {"lambda1": [1e-4, 1e-3], "iterations": [5, 10]}
        a = tune_hyperparams(y, img, space, "ista")
        b = tune_hyperparams(y, img, space, "ista")
        assert a == b

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverging_grid_points_skipped(self):
        img, y = small_problem()
        cfg = tune_hyperparams(
            y, img, {"rho": [1e4, 0.1], "eta2": [1e4, 1.0]}, "slr",
            base=SolverConfig(rank_k=2, iterations=40),
        )
        assert cfg.rho == 0.1 or cfg.eta2 == 1.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_all_diverging_grid_raises(self):
        img, y = small_problem()
        with pytest.raises(NumericError):
            tune_hyperparams(
                y, img, {"rho": [1e4], "eta2": [1e4]}, "slr",
                base=SolverConfig(rank_k=2, iterations=60),
            )

    def test_empty_search_space_rejected(self):
        img, y = small_problem()
        with pytest.raises(ConfigError):
            tune_hyperparams(y, img, {}, "ista")
        with pytest.raises(ConfigError):
            tune_hyperparams(y, img, {"lambda1": []}, "ista")

    def test_reference_shape_checked(self, rng):
        _, y = small_problem()
        with pytest.raises(Exception):
            tune_hyperparams(y, rand_image(rng, (8, 8, 2)), {"lambda1": [0.1]}, "ista")
