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

The solvers differ only in their steps; one function, :func:`_solve`,
runs them all.  All start from the zero-filled reconstruction, are fully
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
from functools import partial

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    DynamicImage,
    KSpaceData,
    NumericError,
    SolverConfig,
    _new_volume,
    _set_split_width,
    _split_rows,
    _usable_cpus,
)
from .metrics import _abs2, _mse_psnr, _norm2, fits_ssim_window, psnr, ssim
from .operators import (
    _dc_arr, _dc_weight, _residual, _sampled_data, _sampled_ifft2c_arr, encode_adjoint,
)
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
    is half the squared norm of the residual ``A x - y`` on the S sampled
    ``(ky, t)`` columns, an ``(nx, S)`` array that the next gradient step
    also uses.  In the sparse loop (``ista``, and ``ista-lr`` at L1/L2) that
    residual is ``(1 - w) c``, where ``c`` is the residual that the
    data-consistency step ``x = r - w A^H c`` formed for its input ``r``; in
    replace mode (``w = 1``) ``data_fidelity`` is exactly 0.  For the
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


def _finite(arr):
    """Whether the C-contiguous complex ``arr`` is finite.

    The test runs on the real view of the same memory, which holds both
    parts and makes no complex pass.
    """
    return bool(np.isfinite(arr.view(arr.real.dtype)).all())


def _numeric_error(step, iteration):
    message = f"non-finite values after the {step} step at iteration {iteration}"
    return NumericError(message, step=step, iteration=iteration)


def _check_finite(arr, step, iteration):
    """Raise NumericError unless the C-contiguous complex ``arr`` is finite."""
    if not _finite(arr):
        raise _numeric_error(step, iteration)


def _lagrangian(fid, sparse, nuclear, gap, gap2, beta, rho):
    """Add the multiplier and penalty terms of raw ``gap = x - t`` and ``beta`` to the others.

    ``gap2`` is ``||gap||^2``.
    """
    multiplier = rho * float(np.real(np.vdot(beta, gap)))
    penalty = 0.5 * rho * gap2
    total = fid + sparse + nuclear + multiplier + penalty
    return ObjectiveBreakdown(total, fid, sparse, nuclear, multiplier, penalty)


def _low_rank_step(arr, cfg: SolverConfig, n, out, work):
    """The configured SVT of ``arr`` into ``out``, checked as the low-rank step of iteration ``n``.

    Returns the singular values of the output.  ``work`` is scratch.
    """
    s_new = _svt_arr(arr, cfg, out, work)[1]
    _check_finite(out, "low-rank", n)
    return s_new


def _rel_change(curr, prev, diff, pair):
    denom = np.sqrt(_norm2(prev, pair))
    if denom == 0:
        denom = 1.0
    return float(np.sqrt(_norm2(np.subtract(curr, prev, out=diff), pair)) / denom)


def _sparse_step(arr, tau, kind, z, pair, n):
    """``arr = D^H soft(D arr, tau)``, checked at iteration ``n``; ``z`` keeps the coefficients."""
    _soft_arr(_transform_fwd_arr(arr, kind, z), tau, z, pair)
    _check_finite(_transform_adj_arr(z, kind, arr), "sparse", n)


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
    cols, acq = _sampled_data(y)
    fid = 0.5 * _norm2(_residual(np.empty_like(acq), x.data, cols, acq, _new_volume(x.data)))
    sparse = cfg.lambda1 * float(np.abs(_transform_fwd_arr(x.data, cfg.transform)).sum())
    nuclear = cfg.lambda2 * _nuclear_arr(t.data)
    gap = x.data - t.data
    return _lagrangian(fid, sparse, nuclear, gap, _norm2(gap), beta.data, cfg.rho)


def default_config(y: KSpaceData, **overrides) -> SolverConfig:
    """Stable starting configuration scaled to the data.

    The sparse and low-rank weights default to 1e-3 of the peak magnitude
    of the zero-filled reconstruction; the step size is 1 (the encoding
    operator has unit norm).  Keyword overrides replace individual fields.
    """
    peak = float(np.abs(encode_adjoint(y).data).max())
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


def _scores(reference, image):
    """MSE, PSNR and, when the frames fit its window, SSIM of ``image`` against ``reference``."""
    err2, db = _mse_psnr(reference, image)
    scores = {"mse": err2, "psnr": db}
    if fits_ssim_window(reference):
        scores["ssim"] = ssim(reference, image)
    return scores


def _solve(y, cfg, reference, callback, iterations):
    """Run the generator ``iterations`` from the zero-filled start, and report.

    ``iterations(cfg, cols, acq, x, c, resid, r, work, pair, c_pair)``
    gets the indices and acquired samples of
    :func:`~dynlr.operators._sampled_data`, the zero-filled ``x``, the
    ``(nx, S)`` residual buffer ``c``, three scratch volumes, and real
    scratch pairs of the volume's and of ``c``'s shape.
    It yields ``(record, x, state)`` after each iteration; ``state`` holds
    the callback's extra volumes.  The objective's finite check, the trace,
    the callback and the report are here.
    """
    _check_reference(reference, y)
    started = time.perf_counter()
    work = _new_volume(y.data)
    cols, acq = _sampled_data(y)
    x = _sampled_ifft2c_arr(acq, cols, _new_volume(work), work)  # the zero-filled start
    resid, r = _new_volume(x), _new_volume(x)
    c = np.empty_like(acq)
    pair, c_pair = np.empty((2,) + x.shape), np.empty((2,) + c.shape)
    trace = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for record, x, state in iterations(cfg, cols, acq, x, c, resid, r, work, pair, c_pair):
                n = record.iteration
                if not np.isfinite(record.objective):
                    raise NumericError(
                        f"non-finite objective value at iteration {n}", step="objective", iteration=n
                    )
                trace.append(record)
                if callback is not None:
                    callback(n, DynamicImage(x), **{k: DynamicImage(v) for k, v in state.items()})
    except NumericError as exc:
        exc.trace = tuple(trace)
        raise
    # Freed before the report copies x.  They are allocated here and not in
    # the generator: buffers that a generator allocated and freed raised peak RSS.
    del c, resid, r, work, pair, c_pair
    image = DynamicImage(x)
    return ReconReport(
        image=image,
        trace=tuple(trace),
        seconds=time.perf_counter() - started,
        config=cfg,
        metrics=None if reference is None else _scores(reference, image),
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

    The data-consistency step is the correction ``x = r - w g`` of
    :func:`~dynlr.operators.data_consistency` (one shared kernel), with
    ``g = A^H c`` and ``c = A r - y`` on the sampled columns.  The residual
    of ``x`` is ``(1 - w) c`` and its gradient ``(1 - w) g``, so the next
    gradient step is ``x - eta2 * (1 - w) * g`` with no further FFT; the
    zero-filled start counts as consistent, and the first gradient step
    leaves it as it is.  In replace mode ``w = 1``: the residual is exactly
    0, the gradient step is a copy, and the image depends on ``eta2`` only
    through the threshold.
    """
    cfg.validate()
    return _solve(y, cfg, reference, callback, _ista_iterations)


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

    ``A x - y`` is formed on the S sampled ``(ky, t)`` columns only, and
    ``A^H`` starts from them.  Returns the final sparse-step iterate ``x``.
    A callback, if given, is invoked as ``callback(n, x, t=..., beta=...)``
    after each iteration.
    """
    cfg.validate_for(y.shape[2])
    return _solve(y, cfg, reference, callback, _slr_iterations)


def _slr_iterations(cfg, cols, acq, x, c, resid, r, work, pair, c_pair):
    """The iterations of :func:`solve_slr`, for :func:`_solve`.

    ``c`` holds the sampled residual and ``resid`` its adjoint; ``r`` holds
    the gradient step, then the new ``x``, then ``x - t``; ``work`` is
    scratch for every step.  The steps between the FFTs and the SVT run in
    two passes over x-row slabs (:func:`~dynlr.core._split_rows`): every
    step there is elementwise or acts on whole temporal rows, and each sum
    is one ``sum()`` over a whole real scratch volume of ``pair``, so the
    slabs do not change a bit.  ``rel_change``'s denominator is the
    squared norm of ``x`` that the previous iteration's multiplier pass
    summed.  A slab records each step that left it
    non-finite, and after the pass the first such step in program order is
    raised, as if each step had been checked over the whole volume.
    """
    kind = cfg.transform
    t = np.zeros_like(x)
    beta = np.zeros_like(x)
    tau = cfg.lambda1 * cfg.eta2
    re2, im2 = pair
    nx, nbytes = x.shape[0], x.nbytes

    def gradient_and_sparse(rows, failed):
        xs, rs, zs = x[rows], r[rows], work[rows]
        # r = x - eta2 * (A^H c + rho * (x + beta - t))
        np.add(xs, beta[rows], out=rs)
        np.subtract(rs, t[rows], out=rs)
        np.multiply(rs, cfg.rho, out=rs)
        np.add(resid[rows], rs, out=rs)
        np.multiply(rs, cfg.eta2, out=rs)
        np.subtract(xs, rs, out=rs)
        if not _finite(rs):
            failed.add("gradient")
            return
        # r = D^H soft(D r, tau), keeping |D r| for the sparse term
        _soft_arr(_transform_fwd_arr(rs, kind, zs), tau, zs, pair[:, rows])
        if not _finite(_transform_adj_arr(zs, kind, rs)):
            failed.add("sparse")
        np.abs(zs, out=re2[rows])
        # |r - x|^2 for rel_change; the imaginary part of the difference is its own scratch
        diff = np.subtract(rs, xs, out=zs)
        _abs2(diff, im2[rows], diff.imag)
        if cfg.t_step_input == "x_plus_beta":
            np.add(rs, beta[rows], out=xs)  # the low-rank step's input; x is no longer needed

    def multiplier(rows, failed):
        # beta += eta1 * (x - t), keeping x - t in r, |x - t|^2 for the Lagrangian
        # and |x|^2 for the next rel_change
        xs, rs, ws = x[rows], r[rows], work[rows]
        np.subtract(xs, t[rows], out=rs)
        np.add(beta[rows], np.multiply(rs, cfg.eta1, out=ws), out=beta[rows])
        if not _finite(beta[rows]):
            failed.add("multiplier")
        _abs2(rs, re2[rows], ws.real)
        _abs2(xs, im2[rows], ws.imag)

    def split(fn, n, *steps):
        """Run ``fn(rows, failed)`` on slabs, then raise the first of ``steps`` in ``failed``."""
        failed = set()
        _split_rows(partial(fn, failed=failed), nx, nbytes)
        for step in steps:
            if step in failed:
                raise _numeric_error(step, n)

    _residual(c, x, cols, acq, work)
    x2 = _norm2(x, pair)
    for n in range(1, cfg.iterations + 1):
        _sampled_ifft2c_arr(c, cols, resid, work)
        split(gradient_and_sparse, n, "gradient", "sparse")
        sparse = cfg.lambda1 * float(re2.sum())
        denom = np.sqrt(x2)
        rel_change = float(np.sqrt(float(im2.sum())) / (1.0 if denom == 0 else denom))
        x, r = r, x
        s_new = _low_rank_step(r if cfg.t_step_input == "x_plus_beta" else x, cfg, n, t, work)
        split(multiplier, n, "multiplier")
        gap2, x2 = float(re2.sum()), float(im2.sum())
        _residual(c, x, cols, acq, work)
        terms = _lagrangian(
            0.5 * _norm2(c, c_pair), sparse, cfg.lambda2 * float(s_new.sum()), r, gap2, beta, cfg.rho
        )
        record = IterationRecord(
            n, float(terms.total), terms.data_fidelity, terms.sparse_term, terms.nuclear_term,
            rel_change, split_gap=float(np.sqrt(gap2)),
        )
        yield record, x, {"t": t, "beta": beta}


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
    coefficients again, so only L1/L2 leave the output consistent.

    At L1 and L2 the gradient step reuses what the data-consistency step
    formed, as in :func:`solve_ista_sparse`.  At L3 it transforms the
    previous iterate: ``x - eta2 * A^H (A x - y)``, with ``A x - y`` formed
    on the sampled columns only, so an iteration runs two sampled
    forward/adjoint pairs.
    """
    cfg.validate_for(y.shape[2])
    return _solve(y, cfg, reference, callback, partial(_ista_iterations, placement=cfg.placement))


def _ista_iterations(cfg, cols, acq, x, c, resid, r, work, pair, c_pair, placement=None):
    """The sparse iteration, with the low-rank module at ``placement`` (None: without it).

    ``c`` holds the sampled residual and ``resid`` its adjoint; ``r`` holds
    the gradient step, then the new ``x``.  The low-rank steps write into
    ``resid`` after the gradient step and swap it with ``r``.  Unless a
    low-rank step follows data consistency (L3), the gradient step reuses
    the ``c`` and ``resid`` of that step, as :func:`solve_ista_sparse` says.
    """
    kind = cfg.transform
    keeps_residual = placement != "L3"
    w = _dc_weight(cfg.dc_mode, cfg.dc_nu)
    step = cfg.eta2 * (1.0 - w) if keeps_residual else cfg.eta2
    tau = cfg.lambda1 * cfg.eta2
    if keeps_residual:
        c.fill(0)  # the zero-filled start counts as consistent
        resid.fill(0)
    else:
        _residual(c, x, cols, acq, work)
    for n in range(1, cfg.iterations + 1):
        if step == 0:
            np.copyto(r, x)  # the gradient of a residual that is exactly 0
        else:
            if not keeps_residual:
                _sampled_ifft2c_arr(c, cols, resid, work)
            np.subtract(x, np.multiply(resid, step, out=r), out=r)
            _check_finite(r, "gradient", n)
        if placement == "L1":
            _low_rank_step(r, cfg, n, resid, work)
            r, resid = resid, r
        _sparse_step(r, tau, kind, work, pair, n)
        if placement == "L2":
            _low_rank_step(r, cfg, n, resid, work)
            r, resid = resid, r
        _dc_arr(r, acq, cols, w, r, c, resid, work)
        _check_finite(r, "data-consistency", n)
        if placement is None:
            nuclear = 0.0
        elif placement == "L3":
            nuclear = cfg.lambda2 * float(_low_rank_step(r, cfg, n, resid, work).sum())
            r, resid = resid, r
        else:
            nuclear = cfg.lambda2 * _nuclear_arr(r)
        if keeps_residual:
            np.multiply(c, 1.0 - w, out=c)
        else:
            _residual(c, r, cols, acq, work)
        fid = 0.5 * _norm2(c, c_pair)
        coeffs = _transform_fwd_arr(r, kind, work)
        sparse = cfg.lambda1 * float(np.abs(coeffs, out=pair[0]).sum())
        rel_change = _rel_change(r, x, work, pair)
        x, r = r, x
        yield IterationRecord(n, float(fid + sparse + nuclear), fid, sparse, nuclear, rel_change), x, {}


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
    The trajectories run on a ``concurrent.futures.ProcessPoolExecutor`` of
    ``min(usable CPUs, trajectories)`` worker processes, dealt round-robin
    in grid order, or in this process when that is 1 or the grid is under
    ``_WORKER_FLOOR`` volume elements times iterations.  Each worker is a
    fresh ``spawn`` interpreter with one BLAS thread and one split thread.
    The images have the same bits at any split width, and at any BLAS
    thread count on the frame sizes the tests cover (see the README), so
    there the result does not depend on the worker count.  Starting the
    workers costs a fixed fraction of a second per call, which only a grid
    of short solves notices.  As with any ``spawn`` process, a script that
    calls this at top level needs an ``if __name__ == "__main__":`` guard.  A worker that
    dies ends the call with an ``EOFError``; an interrupt, or any other
    exception in this process, terminates the workers and is re-raised.

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
    ``error`` is the exception that ended the solve or its scoring, or None.
    """
    scores = {}
    early = set(stops[:-1])

    def score_stop(n, x, **_):
        if n in early:
            scores[n] = psnr(reference, x)

    try:
        report = run_solver(solver, y, cfg, callback=score_stop if early else None)
        scores[cfg.iterations] = psnr(reference, report.image)
    except Exception as exc:  # the caller ranks it with the other grid points, scoring errors too
        return scores, exc
    return scores, None


def _run_share(solver, y, reference, jobs):
    """:func:`_run_trajectory` of each ``(cfg, stops)`` in ``jobs``, in order."""
    return [_run_trajectory(solver, y, reference, cfg, stops) for cfg, stops in jobs]


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


# Below this many volume elements times solved iterations, a grid runs in
# this process: a 2-point grid of 2 iterations at 32x32x8 reaches it, and
# takes milliseconds, against a fraction of a second to start the workers.
_WORKER_FLOOR = 1 << 15


def _run_trajectories(solver, y, reference, jobs):
    """:func:`_run_share` of ``jobs``, dealt round-robin to worker processes.

    Runs in this process when one worker would do, when the jobs solve
    fewer than ``_WORKER_FLOOR`` volume elements times iterations, or when
    this process is itself a daemonic worker, which cannot start processes.
    Each worker runs its split passes on one thread.  A worker that dies
    raises ``EOFError``.
    """
    workers = min(_usable_cpus(), len(jobs))
    work = y.data.size * sum(stops[-1] for _, stops in jobs)
    if workers <= 1 or work < _WORKER_FLOOR or multiprocessing.current_process().daemon:
        return _run_share(solver, y, reference, jobs)
    # Imported here, so that only a call that starts workers loads the module.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    before = set(multiprocessing.active_children())
    # One split thread per worker: the workers already fill the CPUs.
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("spawn"),
        initializer=_set_split_width, initargs=(1,),
    )
    try:
        with _one_blas_thread():  # each submit starts a worker, which reads the variables
            futures = [
                pool.submit(_run_share, solver, y, reference, jobs[w::workers]) for w in range(workers)
            ]
        shares = [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise EOFError("a tuner worker died") from exc
    except BaseException:
        # The shutdown below would otherwise wait for the running shares.
        for proc in set(multiprocessing.active_children()) - before:
            proc.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
    results = [None] * len(jobs)
    for w, share in enumerate(shares):
        results[w::workers] = share
    return results
