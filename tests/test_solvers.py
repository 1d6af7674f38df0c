import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dynlr
from dynlr import (
    ConfigError,
    DimensionError,
    DynamicImage,
    KSpaceData,
    NumericError,
    SamplingMask,
    SolverConfig,
    SparseTransform,
    casorati_rank,
    data_consistency,
    default_config,
    encode,
    encode_adjoint,
    ifft2c,
    fft2c,
    ist_svt,
    learned_svt,
    make_phantom,
    make_vd_mask,
    nuclear_norm,
    objective_slr,
    psnr,
    run_solver,
    solve_ista_lr,
    solve_ista_sparse,
    soft_threshold,
    solve_slr,
    transform_adjoint,
    transform_forward,
    tune_hyperparams,
)
from dynlr import core, solvers
from dynlr.solvers import _BLAS_THREAD_VARS, _split_pass

from conftest import rand_image, rand_kspace, rel_err


def small_problem(seed_img=2, seed_mask=4, accel=4.0, rank=2, sparsity=2):
    img = make_phantom(32, 32, 8, kind="rank_r_sparse", seed=seed_img, rank=rank, sparsity=sparsity)
    mask = make_vd_mask(32, 8, accel, seed=seed_mask)
    return img, encode(img, mask)


@pytest.fixture
def tuner_on_workers(monkeypatch):
    """Run every tuner grid of two or more trajectories on workers, however small."""
    monkeypatch.setattr(solvers, "_WORKER_FLOOR", 0)


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

    @pytest.mark.usefixtures("tuner_on_workers")
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

    @pytest.mark.usefixtures("tuner_on_workers")
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


_SPARSE_DIVERGES = SolverConfig(rank_k=2, iterations=60, eta2=1e6, dc_mode="weighted", dc_nu=0.0)
_FAILURES = [
    ("ista", _SPARSE_DIVERGES, "objective", 27),
    ("ista-lr", _SPARSE_DIVERGES.replaced(placement="L1"), "objective", 27),
    ("ista-lr", _SPARSE_DIVERGES.replaced(placement="L2"), "objective", 27),
    ("ista-lr", _SPARSE_DIVERGES.replaced(placement="L3"), "objective", 27),
    ("slr", SolverConfig(rho=1e4, eta2=1e4, rank_k=2, iterations=50), "objective", 21),
    ("slr", SolverConfig(rho=10.0, eta2=1.5e308, rank_k=2, iterations=5), "gradient", 1),
]


@pytest.mark.parametrize(
    "solver, cfg, step, failed_at", _FAILURES,
    ids=[f"{s}-{c.placement if s == 'ista-lr' else step}" for s, c, step, _ in _FAILURES],
)
def test_failure_contract(solver, cfg, step, failed_at):
    """Every loop raises at the failing step, with the records and callbacks before it, and no warning."""
    _, y = small_problem()
    called = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            run_solver(solver, y, cfg, callback=lambda n, x, **_: called.append(n))
    completed = list(range(1, failed_at))
    assert (err.value.step, err.value.iteration) == (step, failed_at)
    assert [r.iteration for r in err.value.trace] == completed
    assert called == completed


# Solves on 129x67x32 (phantom seed 21, mask seed 13, 8x), which run their
# steps on x-row slabs.  Each entry's step and iteration are those that
# checks of the whole volume after each step give.  In the first, some slabs
# fail the gradient step and others only the sparse step that follows it.
# The sparse loop's entries are weighted (nu = 4) and fused the same way:
# the gradient step and its check run inside the sparse pass, and data
# consistency checks each slab.  In the last two the per-slab sums of a
# trace term are finite but their total is not.
_SPARSE_SPLIT = SolverConfig(dc_mode="weighted", dc_nu=4.0, rank_k=2, iterations=8, lambda1=0.0)
_SPLIT_FAILURES = [
    ("slr", SolverConfig(rho=10.0, eta2=2e307, lambda1=1e-3, rank_k=2, iterations=3), "gradient", 1),
    ("slr", SolverConfig(rho=10.0, eta2=1e307, lambda1=1e-3, rank_k=2, iterations=3), "sparse", 1),
    ("slr", SolverConfig(rho=1.0, eta2=1e306, lambda1=1e-3, rank_k=2, iterations=3), "low-rank", 1),
    ("slr", SolverConfig(rho=1.0, eta1=1e300, rank_k=2, iterations=5), "multiplier", 3),
    ("slr", SolverConfig(rho=1e4, eta2=1e4, rank_k=2, iterations=50), "objective", 19),
    ("ista", _SPARSE_SPLIT.replaced(eta2=1e168), "gradient", 3),
    ("ista", _SPARSE_SPLIT.replaced(eta2=1e162), "sparse", 3),
    ("ista", _SPARSE_SPLIT.replaced(eta2=1e307, lambda1=1e-3), "data-consistency", 2),
    ("ista-lr", _SPARSE_SPLIT.replaced(placement="L1", eta2=1e307, lambda1=1e-3), "low-rank", 2),
    ("ista-lr", _SPARSE_SPLIT.replaced(placement="L2", eta2=5e307), "data-consistency", 2),
    ("ista-lr", _SPARSE_SPLIT.replaced(placement="L3", eta2=1e162), "gradient", 2),
    ("ista-lr", _SPARSE_SPLIT.replaced(placement="L3", eta2=1e308, lambda1=1e-3), "sparse", 2),
    ("ista-lr", _SPARSE_SPLIT.replaced(placement="L1", eta2=1e306), "objective", 2),
    ("ista-lr", _SPARSE_SPLIT.replaced(placement="L2", eta2=1e306), "objective", 2),
]


@pytest.mark.parametrize(
    "solver, cfg, step, failed_at", _SPLIT_FAILURES,
    ids=[step if s == "slr" else f"{s}-{c.placement + '-' if s == 'ista-lr' else ''}{step}"
         for s, c, step, _ in _SPLIT_FAILURES],
)
def test_failure_contract_above_the_split_floor(solver, cfg, step, failed_at):
    """The first failing step in program order is raised, and no thread warns."""
    img = make_phantom(129, 67, 32, kind="rank_r_sparse", seed=21, rank=2, sparsity=2)
    y = encode(img, make_vd_mask(67, 32, 8.0, seed=13))
    assert y.data.nbytes >= core._SPLIT_FLOOR
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            run_solver(solver, y, cfg)
    assert (err.value.step, err.value.iteration) == (step, failed_at)
    assert [r.iteration for r in err.value.trace] == list(range(1, failed_at))


class TestFiniteCheck:
    """The loops' per-slab finite check sees a non-finite value in either part of a complex volume."""

    @pytest.mark.parametrize(
        "bad", [complex(0.0, np.nan), complex(np.inf, 0.0), complex(-np.inf, 1.0), complex(np.nan, 0.0),
                complex(1.0, -np.inf)],
        ids=["nan-imag", "inf-real", "neg-inf-real", "nan-real", "neg-inf-imag"],
    )
    @pytest.mark.parametrize("shape", [(64, 64, 16), (33, 17, 8)])
    def test_one_bad_part_raises_naming_step_and_iteration(self, shape, bad):
        arr = np.ones(shape, dtype=complex)
        arr[shape[0] // 2, -1, -1] = bad

        def check(rows, sums, failed):
            if not core._finite(arr[rows]):
                failed.add("sparse")

        with pytest.raises(NumericError) as err:
            _split_pass(check, arr, 7, "sparse")
        assert (err.value.step, err.value.iteration) == ("sparse", 7)


class TestSparseLoopKeepsKspace:
    """The sparse loop takes its residual from the k-space of its data-consistency step.

    In replace mode that residual is exactly 0, so the gradient step is the
    identity; weighted data consistency keeps a nonzero residual.
    """

    @pytest.mark.parametrize("shape", [(64, 64, 16), (33, 17, 8)])
    @pytest.mark.parametrize("transform", ["temporal_fourier", "temporal_haar"])
    @pytest.mark.parametrize(
        "solver, overrides",
        [("ista", {}), ("ista-lr", {"placement": "L1"}), ("ista-lr", {"placement": "L2"})],
        ids=["ista", "ista-lr-L1", "ista-lr-L2"],
    )
    def test_replace_mode_fidelity_is_exactly_zero(self, shape, transform, solver, overrides):
        nx, ny, nt = shape
        img = make_phantom(nx, ny, nt, kind="rank_r_sparse", seed=21, rank=2, sparsity=2)
        y = encode(img, make_vd_mask(ny, nt, 4.0, seed=13))
        cfg = default_config(y, rank_k=2, iterations=8, transform=transform, **overrides)
        report = run_solver(solver, y, cfg)
        assert [r.data_fidelity for r in report.trace] == [0.0] * 8
        weighted = run_solver(solver, y, cfg.replaced(dc_mode="weighted", dc_nu=4.0))
        assert all(r.data_fidelity > 0 for r in weighted.trace)

    @pytest.mark.parametrize("transform", ["temporal_fourier", "temporal_haar"])
    def test_replace_mode_ista_depends_on_eta2_only_through_the_threshold(self, transform):
        img = make_phantom(64, 64, 16, kind="rank_r_sparse", seed=21, rank=2, sparsity=2)
        y = encode(img, make_vd_mask(64, 16, 4.0, seed=13))
        cfg = default_config(y, iterations=20, transform=transform)
        lam = cfg.lambda1
        images = [
            solve_ista_sparse(y, cfg.replaced(lambda1=lam1, eta2=eta2)).image.data
            for lam1, eta2 in [(lam, 1.0), (2 * lam, 0.5), (lam / 4, 4.0)]
        ]
        assert np.array_equal(images[0], images[1])
        assert np.array_equal(images[0], images[2])


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


# Prints, for each solve, its label and the SHA-256 of its final image, of
# its report metrics and of each trace field over all iterations.  Eight
# solves run on the 64x64x16 standard instance (phantom seed 21, mask seed
# 13, 8x): low-rank solves, slr with either low-rank step input, and the
# weighted data-consistency correction with and without a low-rank step.
# The last six run on 129x67x32, above the row split's size floor, whose
# 129 x-rows are not a whole number of slabs: the weighted sparse loop
# without a low-rank step and with one at L3, L1 and L2 (whose gradient
# steps rebuild A^H c from the block that data consistency left), then two
# slr solves.  The first argument, if any, is the split width.
_SOLVE_HASHES = """
import dataclasses, hashlib, json, sys
from dynlr import IterationRecord, core, default_config, encode, make_phantom, make_vd_mask, run_solver

if len(sys.argv) > 1:
    core._set_split_width(int(sys.argv[1]))

def problem(nx, ny, nt):
    img = make_phantom(nx, ny, nt, kind="rank_r_sparse", seed=21, rank=2, sparsity=2)
    return img, encode(img, make_vd_mask(ny, nt, 8.0, seed=13))

def sha(data):
    return hashlib.sha256(data).hexdigest()

standard, odd = problem(64, 64, 16), problem(129, 67, 32)
runs = [
    (standard, 20, "slr", {"lr_mode": "hard"}),
    (standard, 20, "slr", {"lr_mode": "soft"}),
    (standard, 20, "slr", {"lr_mode": "soft", "transform": "temporal_haar", "t_step_input": "x"}),
    (standard, 20, "ista-lr", {"placement": "L1", "lr_mode": "soft"}),
    (standard, 20, "ista-lr", {"placement": "L3", "lr_mode": "soft"}),
    (standard, 20, "ista-lr", {"placement": "L3", "lr_mode": "soft", "transform": "temporal_haar"}),
    (standard, 20, "ista-lr", {"placement": "L3", "lr_mode": "soft", "transform": "temporal_haar",
                               "dc_mode": "weighted", "dc_nu": 4.0}),
    (standard, 20, "ista", {"dc_mode": "weighted", "dc_nu": 4.0}),
    (odd, 4, "ista", {"dc_mode": "weighted", "dc_nu": 4.0}),
    (odd, 4, "ista-lr", {"placement": "L3", "lr_mode": "soft", "transform": "temporal_haar",
                         "dc_mode": "weighted", "dc_nu": 4.0}),
    (odd, 4, "ista-lr", {"placement": "L1", "lr_mode": "soft", "transform": "temporal_haar",
                         "dc_mode": "weighted", "dc_nu": 4.0}),
    (odd, 4, "ista-lr", {"placement": "L2", "lr_mode": "soft", "transform": "temporal_haar",
                         "dc_mode": "weighted", "dc_nu": 4.0}),
    (odd, 4, "slr", {"lr_mode": "soft", "transform": "temporal_haar"}),
    (odd, 4, "slr", {"lr_mode": "soft"}),
]
results = []
for (img, y), iterations, name, kw in runs:
    report = run_solver(name, y, default_config(y, rank_k=2, iterations=iterations, **kw), reference=img)
    parts = {"image": sha(report.image.data.tobytes()), "metrics": sha(repr(sorted(report.metrics.items())).encode())}
    for field in dataclasses.fields(IterationRecord):
        parts[field.name] = sha(repr([getattr(r, field.name) for r in report.trace]).encode())
    label = " ".join([name, kw.get("placement", ""), "x".join(map(str, img.shape)) if img is odd[0] else ""])
    results.append([" ".join(label.split()), parts])
print(json.dumps(results))
"""


@functools.cache
def solve_hashes(blas_threads=None, split_width=None):
    """Run the fourteen solves in a fresh interpreter; ``None`` leaves BLAS or the split at its default."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    if blas_threads is not None:
        env.update(dict.fromkeys(_BLAS_THREAD_VARS, str(blas_threads)))
    src = str(Path(dynlr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    width = [] if split_width is None else [str(split_width)]
    out = subprocess.run(
        [sys.executable, "-c", _SOLVE_HASHES, *width],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout)


# A script that solves above the split floor, forks, and solves again in the
# child, which must finish: the child has none of the parent's pool threads.
# A child that hangs is ended by an alarm, and the script prints its status.
_SOLVE_AFTER_FORK = """
import os, signal
from dynlr import default_config, encode, make_phantom, make_vd_mask, run_solver

img = make_phantom(129, 67, 32, kind="rank_r_sparse", seed=21, rank=2, sparsity=2)
y = encode(img, make_vd_mask(67, 32, 8.0, seed=13))
cfg = default_config(y, rank_k=2, iterations=2)
before = run_solver("slr", y, cfg).image.data.tobytes()
pid = os.fork()
if pid == 0:
    signal.alarm(60)
    same = run_solver("slr", y, cfg).image.data.tobytes() == before
    os._exit(0 if same else 1)
print(os.waitpid(pid, 0)[1])
"""


class TestDeterminismAndDiagnostics:
    @pytest.mark.parametrize("solver", ["ista", "slr", "ista-lr"])
    def test_mismatched_reference_fails_before_first_iteration(self, solver):
        img, y = small_problem()
        wrong = DynamicImage(img.data[: img.nx // 2])
        calls = []
        with pytest.raises(DimensionError, match="reference shape"):
            run_solver(solver, y, default_config(y, iterations=2, rank_k=2), reference=wrong,
                       callback=lambda n, x, **_: calls.append(n))
        assert calls == []

    def test_results_independent_of_blas_threads(self):
        assert solve_hashes(blas_threads=1) == solve_hashes(blas_threads=2)

    def test_odd_shape_slr_independent_of_blas_threads(self):
        assert solve_hashes(blas_threads=1)[-1] == solve_hashes(blas_threads=2)[-1]

    def test_results_independent_of_split_width(self):
        assert solve_hashes(split_width=1) == solve_hashes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_solve_in_forked_child_after_solve_in_parent(self):
        out = subprocess.run(
            [sys.executable, "-c", _SOLVE_AFTER_FORK], capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout == "0\n"

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

    @pytest.mark.usefixtures("tuner_on_workers")
    def test_deterministic(self):
        img, y = small_problem()
        space = {"lambda1": [1e-4, 1e-3], "iterations": [5, 10]}
        a = tune_hyperparams(y, img, space, "ista")
        b = tune_hyperparams(y, img, space, "ista")
        assert a == b

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.usefixtures("tuner_on_workers")
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


def norm2(arr):
    return np.sum(arr.real**2 + arr.imag**2)


def slab_sum(part, volume):
    """The loops' sum of a volume's term: ``math.fsum`` of ``part(rows)`` over the slabs of ``core._slabs``."""
    return math.fsum(part(rows) for rows in core._slabs(volume.shape[0], volume.nbytes))


def dc_correction(x, y, w):
    """Data consistency of ``x`` spelled out: ``x - w g``, with ``g = A^H c`` and ``c = A x - y``.

    Returns the corrected image and ``(c, g)``, ``c`` on the sampled
    columns and C-contiguous, as the loops keep it.
    """
    sampled = y.mask.entries.astype(bool)
    c = np.ascontiguousarray(fft2c(x).data[:, sampled]) - y.data[:, sampled]
    full = np.zeros(y.shape, dtype=complex)
    full[:, sampled] = c
    g = encode_adjoint(KSpaceData(full, y.mask)).data
    return DynamicImage(x.data - w * g), (c, g)


def oracle_iteration(solver, y, cfg, state, kept):
    """The iteration after ``state``, one public operator per step.

    ``state`` is ``(x, t, beta)`` for slr and ``(x,)`` otherwise.  ``kept``
    is the pair ``(c, g)`` that the sparse loop keeps from its
    data-consistency step (zeros before the first iteration), or None where
    the gradient step transforms ``x`` afresh.  The steps follow the order
    the solvers document.  Returns the next state and ``kept``, and the
    trace terms that public functions recompute exactly: all but the
    nuclear term of a low-rank step, which comes from its Gram eigenvalues.
    The volume sums run over the x-row slabs, as the loops sum them
    (:func:`slab_sum`); under the split floor that is one sum.
    """
    x = state[0]
    transform = SparseTransform(cfg.transform)
    placement = cfg.placement if solver == "ista-lr" else None
    sampled = y.mask.entries.astype(bool)
    w = 1.0 if cfg.dc_mode == "replace" else cfg.dc_nu / (1.0 + cfg.dc_nu)

    def low_rank(v):
        if cfg.lr_mode == "hard":
            return learned_svt(v, cfg.rank_k)
        return ist_svt(v, cfg.lambda2, cfg.rho, cfg.p)

    if kept is None:
        grad = encode_adjoint(KSpaceData(encode(x, y.mask).data - y.data, y.mask)).data
        if solver == "slr":
            t, beta = state[1:]
            grad = grad + cfg.rho * (x.data + beta.data - t.data)
        r = DynamicImage(x.data - cfg.eta2 * grad)
    else:
        # The residual of x is (1 - w) c and its gradient (1 - w) g.
        r = DynamicImage(x.data - cfg.eta2 * (1.0 - w) * kept[1])
    if placement == "L1":
        r = low_rank(r)
    z = soft_threshold(transform_forward(r, transform), cfg.lambda1 * cfg.eta2)
    x_new = transform_adjoint(z, transform)
    terms = {}
    if solver == "slr":
        v = x_new.data + beta.data if cfg.t_step_input == "x_plus_beta" else x_new.data
        t_new = low_rank(DynamicImage(v))
        beta_new = DynamicImage(beta.data + cfg.eta1 * (x_new.data - t_new.data))
        state = (x_new, t_new, beta_new)
        gap = x_new.data - t_new.data
        terms["split_gap"] = np.sqrt(slab_sum(lambda rows: norm2(gap[rows]), gap))
    else:
        if placement == "L2":
            x_new = low_rank(x_new)
        if kept is None:
            x_new = data_consistency(x_new, y, cfg.dc_mode, cfg.dc_nu)
        else:
            x_new, kept = dc_correction(x_new, y, w)
        if placement == "L3":
            x_new = low_rank(x_new)
        state = (x_new,)
        z = transform_forward(x_new, transform)
        if placement in (None, "L1", "L2"):
            terms["nuclear_term"] = 0.0 if placement is None else cfg.lambda2 * nuclear_norm(x_new)
    if kept is None:
        resid = np.ascontiguousarray(encode(x_new, y.mask).data[:, sampled]) - y.data[:, sampled]
    else:
        resid = kept[0] * (1.0 - w)
    # Summed over the C-contiguous sampled columns, in the solvers' order.
    terms["data_fidelity"] = 0.5 * norm2(resid)
    terms["sparse_term"] = cfg.lambda1 * slab_sum(lambda rows: np.abs(z.data[rows]).sum(), z.data)
    diff = x_new.data - x.data
    terms["rel_change"] = (
        np.sqrt(slab_sum(lambda rows: norm2(diff[rows]), diff))
        / np.sqrt(slab_sum(lambda rows: norm2(x.data[rows]), x.data))
    )
    return state, kept, terms


_ORACLE_RUNS = [
    ("ista", {}),
    ("ista", {"transform": "temporal_haar", "dc_mode": "weighted", "dc_nu": 4.0}),
    ("slr", {"lr_mode": "hard"}),
    ("slr", {"lr_mode": "soft", "transform": "temporal_haar"}),
    ("slr", {"lr_mode": "hard", "t_step_input": "x"}),
] + [
    ("ista-lr", {"placement": placement, "lr_mode": "hard"}) for placement in ("L1", "L2", "L3")
] + [
    ("ista-lr", {"placement": placement, "lr_mode": "soft", "dc_mode": "weighted", "dc_nu": 4.0})
    for placement in ("L1", "L2", "L3")
]
_ORACLE_IDS = ["-".join([s, *map(str, kw.values())]) for s, kw in _ORACLE_RUNS]


class TestIterationOracle:
    """Each iteration equals its recomputation through the public operators, bit for bit.

    The loops write into a fixed set of buffers; the public operators
    allocate their results.  Both must give the same images and trace terms.
    """

    @pytest.mark.parametrize("shape", [(64, 64, 16), (33, 17, 8)])
    @pytest.mark.parametrize("solver, overrides", _ORACLE_RUNS, ids=_ORACLE_IDS)
    def test_next_iterate_bitwise(self, shape, solver, overrides):
        nx, ny, nt = shape
        img = make_phantom(nx, ny, nt, kind="rank_r_sparse", seed=21, rank=2, sparsity=2)
        y = encode(img, make_vd_mask(ny, nt, 4.0, seed=13))
        cfg = default_config(y, rank_k=2, iterations=4, **overrides)
        zero = DynamicImage(np.zeros(shape, dtype=complex))
        states = [(encode_adjoint(y), zero, zero) if solver == "slr" else (encode_adjoint(y),)]
        report = run_solver(
            solver, y, cfg, callback=lambda n, x, **tb: states.append((x, *tb.values()))
        )
        assert len(states) == len(report.trace) + 1 == 5
        # The oracle runs from the zero-filled start on its own states; the
        # sparse loop, unless at L3, counts that start as consistent.
        expected = states[0]
        keeps_residual = solver == "ista" or (solver == "ista-lr" and cfg.placement != "L3")
        n_sampled = int(y.mask.entries.sum())
        kept = (np.zeros((nx, n_sampled), complex), np.zeros(shape, complex)) if keeps_residual else None
        for after, record in zip(states[1:], report.trace):
            expected, kept, terms = oracle_iteration(solver, y, cfg, expected, kept)
            for ours, oracle in zip(after, expected, strict=True):
                assert np.array_equal(ours.data, oracle.data)
            assert {name: getattr(record, name) for name in terms} == terms

    # ista weighted Haar, ista-lr L1 hard and ista-lr L3 soft weighted, whose
    # row passes run on slabs: 129x67x32 is above the split floor
    @pytest.mark.parametrize(
        "solver, overrides", [_ORACLE_RUNS[i] for i in (1, 5, 10)], ids=[_ORACLE_IDS[i] for i in (1, 5, 10)]
    )
    def test_next_iterate_bitwise_above_split_floor(self, solver, overrides):
        self.test_next_iterate_bitwise((129, 67, 32), solver, overrides)


_STANDARD, _ODD = (64, 64, 16), (129, 67, 32)
_L3_HAAR = {"placement": "L3", "lr_mode": "soft", "transform": "temporal_haar", "dc_mode": "weighted", "dc_nu": 4.0}
_MEMORY_RUNS = [
    ("ista", {}, _STANDARD, 2.49),
    ("ista-lr", {**_L3_HAAR, "placement": "L1"}, _STANDARD, 2.49),
    ("ista-lr", _L3_HAAR, _STANDARD, 2.49),
    ("ista-lr", _L3_HAAR, _ODD, 2.51),
    ("slr", {"lr_mode": "hard"}, _STANDARD, 3.49),
    ("slr", {"lr_mode": "soft"}, _STANDARD, 3.49),
    ("slr", {"lr_mode": "soft", "transform": "temporal_haar"}, _ODD, 3.51),
    ("ista-lr", {**_L3_HAAR, "placement": "L1"}, _ODD, 2.51),
    ("ista-lr", {**_L3_HAAR, "placement": "L2"}, _ODD, 2.51),
]


class TestLoopMemory:
    """The loops reuse one set of volumes instead of allocating new ones per step.

    The bounds are tracemalloc peaks in volumes of the k-space: a fixed part
    plus one slab buffer (:class:`~dynlr.core._SlabScratch`) for each thread
    that the row split runs, a whole volume under the split floor and about
    ``_SLAB_BYTES`` above it.  ``slr`` holds three volumes (``x``, ``t`` and
    ``beta``), the sparse loop two (``x`` and ``r``), and each the ``(nx,
    S)`` residual and samples; the fixed part is the peak less the slab
    buffers, plus 0.1.  On 64x64x16, with their one whole-volume buffer,
    ``slr`` peaks at 4.38 to 4.39 and the sparse loop at 3.38; on 129x67x32,
    above the floor, on two threads, ``slr`` at 3.64 and the sparse loop at
    2.64 at every placement (2.52 on one thread; 2.50 at 128x128x32, L3).
    The sparse loop had 3.64 with a third volume for ``A^H c``, 4.38 to 4.40
    with a fourth for scratch, 5.51 with real scratch volumes for its sums
    and 7.02 while every step allocated its result.  ``slr`` had 5.40 on
    64x64x16 and 5.33 on 129x67x32 with five volumes, 7.51 with real
    scratch volumes for its sums and 10.01 while every step allocated.  The
    peaks are the same through the report: the scratch, ``x``, ``t`` and
    ``beta`` are freed before it is scored, and the scoring holds less.
    """

    @staticmethod
    def peak_volumes(solver, overrides, shape, with_reference):
        nx, ny, nt = shape
        img = make_phantom(nx, ny, nt, kind="rank_r_sparse", seed=21, rank=2, sparsity=2)
        y = encode(img, make_vd_mask(ny, nt, 8.0, seed=13))
        cfg = default_config(y, rank_k=2, iterations=5, **overrides)
        reference = img if with_reference else None
        run_solver(solver, y, cfg, reference)  # fills the caches, such as the Haar matrix
        tracemalloc.start()
        try:
            run_solver(solver, y, cfg, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / y.data.nbytes

    @staticmethod
    def bound(shape, fixed):
        """``fixed`` plus one slab buffer for each thread that a pass over the volume can run."""
        slabs = core._slabs(shape[0], math.prod(shape) * 16)
        threads = min(core._split_width or core._usable_cpus(), len(slabs))
        return fixed + threads * slabs[0].stop / shape[0]

    @pytest.mark.parametrize("solver, overrides, shape, fixed", _MEMORY_RUNS)
    def test_peak_traced_memory_in_volumes(self, solver, overrides, shape, fixed):
        assert self.peak_volumes(solver, overrides, shape, with_reference=False) <= self.bound(shape, fixed)

    @pytest.mark.parametrize("solver, overrides, shape, fixed", _MEMORY_RUNS)
    def test_peak_traced_memory_through_the_report(self, solver, overrides, shape, fixed):
        assert self.peak_volumes(solver, overrides, shape, with_reference=True) <= self.bound(shape, fixed)


_TRANSFORMS = ("temporal_fourier", "temporal_haar")
_WEIGHTED = {"dc_mode": "weighted", "dc_nu": 4.0}
_EQUIVARIANCE_RUNS = [
    ("ista", {"transform": kind, **dc}) for kind in _TRANSFORMS for dc in ({}, _WEIGHTED)
] + [
    ("slr", {"transform": kind, "lr_mode": mode}) for kind in _TRANSFORMS for mode in ("hard", "soft")
] + [
    ("ista-lr", {"transform": kind, "lr_mode": mode, "placement": placement, **_WEIGHTED})
    for kind in _TRANSFORMS
    for mode in ("hard", "soft")
    for placement in ("L1", "L3")
]


class TestSolverEquivariance:
    """A circular spatial shift and a global phase commute with every solver.

    The shift is a phase ramp in k-space that the mask leaves alone, and
    every step (gradient, temporal transform and soft threshold, SVT of the
    row-permuted Casorati matrix, data consistency) commutes with both maps,
    so ``solve(encode(op(x))) == op(solve(encode(x)))`` up to rounding.
    """

    @pytest.mark.parametrize("shape", [(64, 64, 16), (33, 17, 8)])
    @pytest.mark.parametrize(
        "solver, overrides", _EQUIVARIANCE_RUNS,
        ids=["-".join([s, *map(str, kw.values())]) for s, kw in _EQUIVARIANCE_RUNS],
    )
    def test_shift_and_phase_commute_with_solve(self, shape, solver, overrides):
        nx, ny, nt = shape
        img = make_phantom(nx, ny, nt, kind="rank_r_sparse", seed=21, rank=2, sparsity=2)
        mask = make_vd_mask(ny, nt, 4.0, seed=13)
        cfg = default_config(encode(img, mask), rank_k=2, iterations=20, **overrides)

        def solve(x):
            return run_solver(solver, encode(DynamicImage(x), mask), cfg).image.data

        base = solve(img.data)
        ops = {
            "shift": lambda a: np.roll(a, (5, 3), axis=(0, 1)),
            "phase": lambda a: a * np.exp(0.7j),
        }
        for name, op in ops.items():
            expected = op(base)
            err = np.abs(solve(op(img.data)) - expected).max() / np.abs(expected).max()
            assert err <= 1e-11, name
