"""Iterative reconstruction algorithms.

Three solvers share the same measurement operators and proximal steps:

* :func:`solve_ista_sparse` - proximal gradient iteration for the
  sparse-only model, with a k-space data-consistency step each iteration.
  It is the :func:`solve_ista_lr` loop without the low-rank module.
* :func:`solve_slr` - the four-step augmented-Lagrangian iteration for the
  joint sparse + low-rank model: gradient step with multiplier coupling,
  sparse thresholding, singular-value thresholding, multiplier update.
  Data fidelity enters only through the gradient; there is no hard
  data-consistency step.
* :func:`solve_ista_lr` - the sparse iteration with a low-rank module
  inserted at one of three placements relative to the sparse step and the
  data-consistency step.

All solvers start from the zero-filled reconstruction, are fully
deterministic, and fail loudly with a step-named error if an iterate stops
being finite.  Numpy's overflow and invalid-value warnings are off for the
whole solve loop, callbacks included: the finite checks report a failure
instead, naming the step that caused it.
"""

import itertools
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    DynamicImage,
    KSpaceData,
    NumericError,
    SolverConfig,
    _new_volume,
)
from .metrics import _norm2, _psnr_from_mse, fits_ssim_window, mse, psnr, ssim
from .operators import _dc_arr, _fft2c_arr, _ifft2c_arr
from .prox import _nuclear_arr, _soft_arr, _svt_arr, _transform_adj_arr, _transform_fwd_arr

SOLVER_NAMES = ("ista", "slr", "ista-lr")


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics of one completed iteration.

    ``objective`` is the solver's own composite objective at the current
    iterate (for the four-step solver the full augmented-Lagrangian value,
    for the others data fidelity plus the active regularizers);
    ``rel_change`` is ``||x_n - x_{n-1}|| / ||x_{n-1}||``; ``split_gap`` is
    ``||x_n - t_n||`` and only set by the four-step solver.

    The terms reuse what the iteration already computed.  ``data_fidelity``
    comes from the masked k-space residual that the next gradient step also
    uses.  In the sparse loop (``ista``, and ``ista-lr`` at L1/L2) that
    residual comes from the k-space of the data-consistency step, with no
    further FFT, and in replace mode ``data_fidelity`` is exactly 0.  For the
    four-step solver, ``sparse_term`` is the l1 norm of the
    soft-thresholded coefficients ``x`` was built from, and ``nuclear_term``
    sums the singular values the low-rank step kept for ``t``; at placement
    L3 ``nuclear_term`` likewise comes from the low-rank step that produced
    ``x``.  Elsewhere both are recomputed from ``x``.  Every term agrees with
    its recomputation through the public operators to rounding.
    """

    iteration: int
    objective: float
    data_fidelity: float
    sparse_term: float
    nuclear_term: float
    rel_change: float
    split_gap: float | None = None


@dataclass(frozen=True, eq=False)
class ReconReport:
    """Result of a solver run: final image, per-iteration trace, timing."""

    image: DynamicImage
    trace: tuple[IterationRecord, ...]
    seconds: float
    config: SolverConfig
    metrics: dict | None = None


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Augmented-Lagrangian value and its individual terms."""

    total: float
    data_fidelity: float
    sparse_term: float
    nuclear_term: float
    multiplier_term: float
    penalty_term: float


def _check_finite(arr, step, iteration):
    """Raise NumericError unless the C-contiguous complex ``arr`` is finite.

    The test runs on the real view of the same memory, which holds both
    parts and makes no complex pass.
    """
    if not np.isfinite(arr.view(arr.real.dtype)).all():
        raise NumericError(
            f"non-finite values after the {step} step at iteration {iteration}",
            step=step,
            iteration=iteration,
        )


def _check_finite_scalar(value, step, iteration):
    if not np.isfinite(value):
        raise NumericError(
            f"non-finite {step} value at iteration {iteration}",
            step=step,
            iteration=iteration,
        )
    return float(value)


@contextmanager
def _trace_on_failure(trace):
    """Run a solve loop without numpy floating-point warnings.

    The records completed before a :class:`NumericError` travel with it.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except NumericError as exc:
        exc.trace = tuple(trace)
        raise


def _lagrangian(fid, sparse, nuclear, x, t, beta, rho, diff=None, pair=None):
    """Add the multiplier and penalty terms of raw ``x``, ``t``, ``beta`` to the others.

    Returns the :class:`ObjectiveBreakdown` and ``||t - x||^2``.  ``diff``
    receives ``t - x`` and ``pair`` serves :func:`_norm2`; None allocates.
    """
    diff = np.subtract(t, x, out=diff)
    gap2 = _norm2(diff, pair)
    multiplier = -rho * float(np.real(np.vdot(beta, diff)))
    penalty = 0.5 * rho * gap2
    total = fid + sparse + nuclear + multiplier + penalty
    return ObjectiveBreakdown(total, fid, sparse, nuclear, multiplier, penalty), gap2


def _low_rank_step(arr, cfg: SolverConfig, n, out, work):
    """The configured SVT of ``arr`` into ``out``, checked as the low-rank step of iteration ``n``.

    Returns the singular values of the output.  ``work`` is scratch.
    """
    s_new = _svt_arr(arr, cfg, out, work)[1]
    _check_finite(out, "low-rank", n)
    return s_new


def _zero_filled(y: KSpaceData):
    """The mask broadcast over x, the masked k-space, and the zero-filled image."""
    m3 = y.mask.entries[None, :, :].astype(np.float64)
    ym = y.data * m3
    return m3, ym, _ifft2c_arr(ym)


def _rel_change(curr, prev, diff, pair):
    denom = np.sqrt(_norm2(prev, pair))
    if denom == 0:
        denom = 1.0
    return float(np.sqrt(_norm2(np.subtract(curr, prev, out=diff), pair)) / denom)


def _sampled_residual(k, m3, ym):
    """Replace the k-space ``k`` by its residual ``k * mask - y * mask``."""
    np.multiply(k, m3, out=k)
    return np.subtract(k, ym, out=k)


def _masked_residual(out, x, m3, ym, work):
    """``F x * mask - y * mask`` into ``out``, through the scratch volume ``work``."""
    return _sampled_residual(_fft2c_arr(x, out, work), m3, ym)


def _sparse_step(arr, tau, kind, z, pair):
    """Replace ``arr`` by ``D^H soft(D arr, tau)``; ``z`` keeps the thresholded coefficients."""
    _soft_arr(_transform_fwd_arr(arr, kind, z), tau, z, pair)
    return _transform_adj_arr(z, kind, arr)


def objective_slr(
    x: DynamicImage,
    t: DynamicImage,
    beta: DynamicImage,
    y: KSpaceData,
    cfg: SolverConfig,
) -> ObjectiveBreakdown:
    """Evaluate the augmented Lagrangian of the sparse + low-rank model.

    Returns ``1/2 ||Ax - y||^2 + lambda1 ||Dx||_1 + lambda2 ||t||_*
    - rho <beta, t - x> + rho/2 ||t - x||^2`` in the scaled-multiplier form
    (real part of the complex inner product), along with each term.
    """
    if not (x.shape == t.shape == beta.shape == y.shape):
        raise DimensionError(
            f"inconsistent shapes: x {x.shape}, t {t.shape}, beta {beta.shape}, y {y.shape}"
        )
    cfg.validate()
    m3 = y.mask.entries[None, :, :].astype(np.float64)
    resid = _masked_residual(_new_volume(x.data), x.data, m3, y.data * m3, _new_volume(x.data))
    fid = 0.5 * _norm2(resid)
    sparse = cfg.lambda1 * float(np.abs(_transform_fwd_arr(x.data, cfg.transform)).sum())
    nuclear = cfg.lambda2 * _nuclear_arr(t.data)
    return _lagrangian(fid, sparse, nuclear, x.data, t.data, beta.data, cfg.rho)[0]


def default_config(y: KSpaceData, **overrides) -> SolverConfig:
    """Stable starting configuration scaled to the data.

    The sparse and low-rank weights default to 1e-3 of the peak magnitude
    of the zero-filled reconstruction; the step size is 1 (the encoding
    operator has unit norm).  Keyword overrides replace individual fields.
    """
    peak = float(np.abs(_zero_filled(y)[2]).max())
    lam = 1e-3 * peak
    cfg = SolverConfig(lambda1=lam, lambda2=lam, rank_k=min(4, y.shape[2]))
    if overrides:
        cfg = cfg.replaced(**overrides)
    return cfg.validate()


def _check_reference(reference, y: KSpaceData):
    """Raise DimensionError if a given ``reference`` does not match the k-space shape."""
    if reference is not None and reference.shape != y.shape:
        raise DimensionError(
            f"reference shape {reference.shape} does not match k-space shape {y.shape}"
        )


def _finish(x_arr, trace, started, cfg, reference):
    image = DynamicImage(x_arr)
    report_metrics = None
    if reference is not None:
        err2 = mse(reference, image)
        report_metrics = {"mse": err2, "psnr": _psnr_from_mse(reference, err2)}
        if fits_ssim_window(reference):
            report_metrics["ssim"] = ssim(reference, image)
    return ReconReport(
        image=image,
        trace=tuple(trace),
        seconds=time.perf_counter() - started,
        config=cfg,
        metrics=report_metrics,
    )


def solve_ista_sparse(
    y: KSpaceData,
    cfg: SolverConfig,
    reference: DynamicImage | None = None,
    callback=None,
) -> ReconReport:
    """Proximal gradient solver for the sparse-only model.

    Starting from the zero-filled reconstruction, each iteration takes a
    gradient step on the data term, soft-thresholds in the transform domain
    with threshold ``lambda1 * eta2``, and finishes with a data-consistency
    step.  ``lambda2``, ``rho`` and the low-rank fields are ignored.

    The data-consistency step transforms the iterate to k-space, applies
    the rule of :func:`~dynlr.operators.data_consistency` there (one shared
    kernel), and transforms back.  It keeps that k-space ``k``: the next
    gradient step is ``x - eta2 * F^H (k * mask - y * mask)``, and the first
    uses ``k = y * mask``.  In replace mode this residual is exactly 0, so
    the gradient step is the identity and the image depends on ``eta2``
    only through the threshold.
    """
    cfg.validate()
    return _solve_ista(y, cfg, None, reference, callback)


def solve_slr(
    y: KSpaceData,
    cfg: SolverConfig,
    reference: DynamicImage | None = None,
    callback=None,
) -> ReconReport:
    """Four-step solver for the joint sparse + low-rank model.

    Per iteration, with scaled multiplier ``beta`` and low-rank surrogate
    ``t`` (both initialized to zero):

    1. gradient step:
       ``r = x - eta2 * (A^H (A x - y) + rho * (x + beta - t))``
    2. sparse step: ``x = D^H soft(D r, lambda1 * eta2)``
    3. low-rank step: singular-value thresholding of ``x + beta`` (or of
       ``x`` when ``cfg.t_step_input == "x"``), hard-rank or soft per
       ``cfg.lr_mode``
    4. multiplier step: ``beta += eta1 * (x - t)``

    Returns the final sparse-step iterate ``x``.  A callback, if given, is
    invoked as ``callback(n, x, t=..., beta=...)`` after each iteration.
    """
    cfg.validate_for(y.shape[2])
    _check_reference(reference, y)
    started = time.perf_counter()
    kind = cfg.transform
    m3, ym, x = _zero_filled(y)
    t = np.zeros_like(x)
    beta = np.zeros_like(x)
    # r holds the gradient step, then the new x; work is scratch for every step.
    resid, r, work = (_new_volume(x) for _ in range(3))
    pair = np.empty((2,) + x.shape)
    tau = cfg.lambda1 * cfg.eta2
    _masked_residual(resid, x, m3, ym, work)
    trace = []
    with _trace_on_failure(trace):
        for n in range(1, cfg.iterations + 1):
            # r = x - eta2 * (A^H resid + rho * (x + beta - t))
            _ifft2c_arr(resid, resid, work)
            np.add(x, beta, out=r)
            np.subtract(r, t, out=r)
            np.multiply(r, cfg.rho, out=r)
            np.add(resid, r, out=r)
            np.multiply(r, cfg.eta2, out=r)
            np.subtract(x, r, out=r)
            _check_finite(r, "gradient", n)
            _sparse_step(r, tau, kind, work, pair)
            _check_finite(r, "sparse", n)
            sparse = cfg.lambda1 * float(np.abs(work, out=pair[0]).sum())
            rel_change = _rel_change(r, x, work, pair)
            x, r = r, x
            if cfg.t_step_input == "x_plus_beta":
                s_new = _low_rank_step(np.add(x, beta, out=r), cfg, n, t, work)
            else:
                s_new = _low_rank_step(x, cfg, n, t, work)
            # beta += eta1 * (x - t)
            np.multiply(np.subtract(x, t, out=r), cfg.eta1, out=r)
            np.add(beta, r, out=beta)
            _check_finite(beta, "multiplier", n)
            _masked_residual(resid, x, m3, ym, work)
            terms, gap2 = _lagrangian(
                0.5 * _norm2(resid, pair), sparse, cfg.lambda2 * float(s_new.sum()),
                x, t, beta, cfg.rho, r, pair,
            )
            objective = _check_finite_scalar(terms.total, "objective", n)
            trace.append(
                IterationRecord(
                    n,
                    objective,
                    terms.data_fidelity,
                    terms.sparse_term,
                    terms.nuclear_term,
                    rel_change,
                    split_gap=float(np.sqrt(gap2)),
                )
            )
            if callback is not None:
                callback(n, DynamicImage(x), t=DynamicImage(t), beta=DynamicImage(beta))
    del resid, r, work, pair  # freed before the report copies x
    return _finish(x, trace, started, cfg, reference)


def solve_ista_lr(
    y: KSpaceData,
    cfg: SolverConfig,
    reference: DynamicImage | None = None,
    callback=None,
) -> ReconReport:
    """Sparse iteration with a plug-in low-rank module.

    Each iteration runs gradient step, sparse thresholding, and data
    consistency; the low-rank module (hard-rank truncation by default) is
    applied at ``cfg.placement``: "L1" before the sparse step, "L2" between
    the sparse step and data consistency, "L3" after data consistency.
    Placing it after data consistency perturbs the sampled k-space
    coefficients again, so only L1/L2 leave the output exactly consistent.

    At L1 and L2 the gradient step uses the k-space kept by the previous
    data-consistency step, as in :func:`solve_ista_sparse`, and in replace
    mode it is the identity.  At L3 the gradient step transforms the
    previous iterate: ``x - eta2 * A^H (A x - y)``.
    """
    cfg.validate_for(y.shape[2])
    return _solve_ista(y, cfg, cfg.placement, reference, callback)


def _solve_ista(y, cfg, placement, reference, callback):
    """The sparse iteration, with the low-rank module at ``placement`` (None: without it).

    Unless a low-rank step follows data consistency (L3), the DC step keeps
    its k-space in ``resid``, as :func:`solve_ista_sparse` describes.
    """
    _check_reference(reference, y)
    started = time.perf_counter()
    kind = cfg.transform
    m3, ym, x = _zero_filled(y)
    sampled = y.mask.entries.astype(bool)
    acq_sampled = y.data[:, sampled]
    keeps_kspace = placement != "L3"
    # r holds the gradient step, then the new x; resid holds the residual that
    # drives the gradient step.  It is free from there until data consistency,
    # so the low-rank steps before it write into resid and swap it with r.
    resid, r, work = (_new_volume(x) for _ in range(3))
    pair = np.empty((2,) + x.shape)
    tau = cfg.lambda1 * cfg.eta2
    if keeps_kspace:
        np.copyto(resid, ym)
        _sampled_residual(resid, m3, ym)
    else:
        _masked_residual(resid, x, m3, ym, work)
    trace = []
    with _trace_on_failure(trace):
        for n in range(1, cfg.iterations + 1):
            if keeps_kspace and cfg.dc_mode == "replace":
                np.copyto(r, x)  # the gradient of a residual that is exactly 0
            else:
                _ifft2c_arr(resid, r, work)
                np.subtract(x, np.multiply(r, cfg.eta2, out=r), out=r)
                _check_finite(r, "gradient", n)
            if placement == "L1":
                _low_rank_step(r, cfg, n, resid, work)
                r, resid = resid, r
            _sparse_step(r, tau, kind, work, pair)
            _check_finite(r, "sparse", n)
            if placement == "L2":
                _low_rank_step(r, cfg, n, resid, work)
                r, resid = resid, r
            _dc_arr(
                r, acq_sampled, sampled, cfg.dc_mode, cfg.dc_nu, r, work,
                kspace=resid if keeps_kspace else None,
            )
            _check_finite(r, "data-consistency", n)
            if placement is None:
                nuclear = 0.0
            elif placement == "L3":
                nuclear = cfg.lambda2 * float(_low_rank_step(r, cfg, n, resid, work).sum())
                r, resid = resid, r
            else:
                nuclear = cfg.lambda2 * _nuclear_arr(r)
            if keeps_kspace:
                _sampled_residual(resid, m3, ym)
            else:
                _masked_residual(resid, r, m3, ym, work)
            fid = 0.5 * _norm2(resid, pair)
            coeffs = _transform_fwd_arr(r, kind, work)
            sparse = cfg.lambda1 * float(np.abs(coeffs, out=pair[0]).sum())
            objective = _check_finite_scalar(fid + sparse + nuclear, "objective", n)
            rel_change = _rel_change(r, x, work, pair)
            x, r = r, x
            trace.append(IterationRecord(n, objective, fid, sparse, nuclear, rel_change))
            if callback is not None:
                callback(n, DynamicImage(x))
    del resid, r, work, pair  # freed before the report copies x
    return _finish(x, trace, started, cfg, reference)


_SOLVERS = {
    "ista": solve_ista_sparse,
    "slr": solve_slr,
    "ista-lr": solve_ista_lr,
}


def _solver(name: str):
    if name not in _SOLVERS:
        raise ConfigError(f"unknown solver {name!r}; valid solvers: {', '.join(SOLVER_NAMES)}")
    return _SOLVERS[name]


def run_solver(
    name: str,
    y: KSpaceData,
    cfg: SolverConfig,
    reference: DynamicImage | None = None,
    callback=None,
) -> ReconReport:
    """Dispatch to a solver by CLI name ("ista", "slr", "ista-lr")."""
    return _solver(name)(y, cfg, reference=reference, callback=callback)


def tune_hyperparams(
    y: KSpaceData,
    reference: DynamicImage,
    search_space: dict,
    solver: str,
    base: SolverConfig | None = None,
) -> SolverConfig:
    """Exhaustive grid search maximizing PSNR against a known reference.

    ``search_space`` maps config field names to candidate value lists; the
    Cartesian product is evaluated in order and the first configuration
    achieving the best PSNR wins, so the result is deterministic for a
    given search order.  Grid points that diverge numerically are skipped;
    if every point diverges the numeric error of the last one is raised.
    Any other error is raised from the earliest grid point that has one.

    The grid runs as trajectories: points that differ only in
    ``iterations`` share one solve of the longest of them, and each shorter
    point is scored at its iteration from the solve's callback.  The solvers
    are deterministic, so a shorter point gets the same bits as a solve of
    its own, and a point reached before its trajectory diverges is scored.
    The trajectories run on ``min(usable CPUs, trajectories)`` worker
    processes, dealt round-robin in grid order, or in this process when
    that is 1.  Each worker is a fresh ``spawn`` interpreter with one BLAS
    thread (the low-rank images have the same bits at any BLAS thread
    count), so the result does not depend on the worker count.  Starting
    the workers costs a fixed fraction of a second per call, which only a
    grid of short solves notices.  As with any ``spawn`` process, a script
    that calls this at top level needs an ``if __name__ == "__main__":``
    guard.  A worker that dies ends the call with an ``EOFError``.

    Parameters
    ----------
    y : KSpaceData
        Measured k-space.
    reference : DynamicImage
        Ground-truth volume the PSNR is computed against.
    search_space : dict
        Field name -> list of values.  Must be non-empty with non-empty
        value lists.
    solver : str
        One of "ista", "slr", "ista-lr".
    base : SolverConfig, optional
        Configuration supplying the fields not searched over; defaults to
        :func:`default_config`.
    """
    return _tune(y, reference, search_space, solver, base)[0]


def _tune(y, reference, search_space, solver, base):
    """:func:`tune_hyperparams`, returning the winning config and its PSNR."""
    _solver(solver)
    _check_reference(reference, y)
    if not search_space:
        raise ConfigError("empty search space")
    keys = list(search_space)
    value_lists = [list(search_space[k]) for k in keys]
    if any(len(v) == 0 for v in value_lists):
        raise ConfigError("search space contains an empty value list")
    if base is None:
        base = default_config(y)
    grid = list(itertools.product(*(range(len(v)) for v in value_lists)))
    configs = [
        base.replaced(**{k: v[j] for k, v, j in zip(keys, value_lists, combo)}) for combo in grid
    ]
    # Each point's outcome: its PSNR, or the exception its solve would raise.
    outcomes = [None] * len(configs)
    trajectories = {}  # grid points keyed by their indices off the iterations axis
    for i, (combo, cfg) in enumerate(zip(grid, configs)):
        try:
            cfg.validate()
        except ConfigError as exc:
            outcomes[i] = exc
            continue
        key = tuple(j for k, j in zip(keys, combo) if k != "iterations")
        trajectories.setdefault(key, []).append(i)
    jobs = []
    for points in trajectories.values():
        longest = max(points, key=lambda i: configs[i].iterations)
        jobs.append((configs[longest], sorted({configs[i].iterations for i in points})))
    for points, (scores, error) in zip(
        trajectories.values(), _run_trajectories(solver, y, reference, jobs)
    ):
        for i in points:
            outcomes[i] = scores.get(configs[i].iterations, error)
    for outcome in outcomes:
        if isinstance(outcome, Exception) and not isinstance(outcome, NumericError):
            raise outcome
    best = last_error = None
    for cfg, outcome in zip(configs, outcomes):
        if isinstance(outcome, NumericError):
            last_error = outcome
        elif best is None or outcome > best[1]:
            best = (cfg, outcome)
    if best is None:
        raise last_error
    return best


def _run_trajectory(solver, y, reference, cfg, stops):
    """Solve ``cfg`` once and score its iterate at each of the sorted ``stops``.

    The last stop is ``cfg.iterations``.  Returns ``(scores, error)``:
    ``scores`` maps each stop reached to its PSNR against ``reference``, and
    ``error`` is the exception that ended the solve, or None.
    """
    scores = {}
    early = set(stops[:-1])

    def score_stop(n, x, **_):
        if n in early:
            scores[n] = psnr(reference, x)

    try:
        report = run_solver(solver, y, cfg, callback=score_stop if early else None)
    except Exception as exc:  # the caller ranks it with the other grid points
        return scores, exc
    scores[cfg.iterations] = psnr(reference, report.image)
    return scores, None


def _tune_worker(tasks, results):
    """Read ``(solver, y, reference, jobs)`` from ``tasks``; send the :func:`_run_trajectory` results."""
    with tasks, results:
        solver, y, reference, jobs = tasks.recv()
        results.send([_run_trajectory(solver, y, reference, cfg, stops) for cfg, stops in jobs])


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread-count variables to 1 in ``os.environ``; restore them on exit.

    A process spawned inside the block reads them when it loads BLAS.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    try:
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_trajectories(solver, y, reference, jobs):
    """:func:`_run_trajectory` of each ``(cfg, stops)`` in ``jobs``, in order.

    Runs in this process when one worker would do, or when this process is
    itself a daemonic worker, which cannot start processes.
    """
    workers = min(_usable_cpus(), len(jobs))
    if workers <= 1 or multiprocessing.current_process().daemon:
        return [_run_trajectory(solver, y, reference, cfg, stops) for cfg, stops in jobs]
    ctx = multiprocessing.get_context("spawn")
    procs, pipes = [], []
    try:
        for _ in range(workers):
            tasks_r, tasks_w = ctx.Pipe(duplex=False)
            results_r, results_w = ctx.Pipe(duplex=False)
            pipes.append((tasks_w, results_r))
            proc = ctx.Process(target=_tune_worker, args=(tasks_r, results_w), daemon=True)
            try:
                with _one_blas_thread():
                    proc.start()
            finally:
                # The worker now holds the only other ends, so its death shows here.
                tasks_r.close()
                results_w.close()
            procs.append(proc)
        # The inputs go through the pipes once every worker has started, not
        # through start().  start() writes its payload before it lets go of
        # the child's end, so a payload above the pipe buffer would make it
        # wait until the child has started up (the workers would start one
        # after another), and forever if the child died starting.
        for w, (tasks_w, _) in enumerate(pipes):
            try:
                tasks_w.send((solver, y, reference, jobs[w::workers]))
            except BrokenPipeError:
                pass  # the worker is gone, and reading its result raises EOFError
        shares = [results_r.recv() for _, results_r in pipes]
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for tasks_w, results_r in pipes:
            tasks_w.close()
            results_r.close()
        for proc in procs:
            proc.join()
    results = [None] * len(jobs)
    for w, share in enumerate(shares):
        results[w::workers] = share
    return results
