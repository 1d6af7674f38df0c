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
import math
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
    _finite,
    _new_volume,
    _one_blas_thread,
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


def _numeric_error(step, iteration):
    message = f"non-finite values after the {step} step at iteration {iteration}"
    return NumericError(message, step=step, iteration=iteration)


def _check_finite(arr, step, iteration):
    """Raise NumericError unless the C-contiguous complex ``arr`` is finite."""
    if not _finite(arr):
        raise _numeric_error(step, iteration)


def _split_checked(fn, like, n, *steps):
    """Run ``fn(rows, failed)`` on the x-row slabs of volumes shaped as ``like``.

    Then raise the first of ``steps`` that a slab added to ``failed``, as
    the step of iteration ``n``.
    """
    failed = set()
    _split_rows(partial(fn, failed=failed), like.shape[0], like.nbytes)
    for step in steps:
        if step in failed:
            raise _numeric_error(step, n)


def _lagrangian(fid, sparse, nuclear, gap, gap2, beta, rho):
    """Add the multiplier and penalty terms of raw ``gap = x - t`` and ``beta`` to the others.

    ``gap2`` is ``||gap||^2``.
    """
    multiplier = rho * float(np.real(np.vdot(beta, gap)))
    penalty = 0.5 * rho * gap2
    total = fid + sparse + nuclear + multiplier + penalty
    return ObjectiveBreakdown(total, fid, sparse, nuclear, multiplier, penalty)


def _low_rank_step(arr, cfg: SolverConfig, n, out):
    """The configured SVT of ``arr`` into ``out``, checked as the low-rank step of iteration ``n``.

    Returns the singular values of the output.
    """
    _, s_new, finite = _svt_arr(arr, cfg, out)
    if not finite:
        raise _numeric_error("low-rank", n)
    return s_new


def _real_pair(work, shape):
    """Two C-contiguous real arrays of ``shape`` in the memory of the complex volume ``work``."""
    flat = work.reshape(-1).view(np.float64)
    size = math.prod(shape)
    return flat[:size].reshape(shape), flat[size : 2 * size].reshape(shape)


def _rel_change(diff2, prev2):
    """``rel_change`` from ``||x_n - x_{n-1}||^2`` and ``||x_{n-1}||^2``; a zero ``x_{n-1}`` divides by 1."""
    denom = np.sqrt(prev2)
    return float(np.sqrt(diff2) / (1.0 if denom == 0 else denom))


def _sparse_step(arr, out, tau, kind, z, pair):
    """Whether ``out = D^H z`` with ``z = soft(D arr, tau)`` is finite; ``out`` may be ``arr``."""
    _soft_arr(_transform_fwd_arr(arr, kind, z), tau, z, pair)
    return _finite(_transform_adj_arr(z, kind, out))


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
    (real part of the complex inner product), along with each term.  BLAS
    runs on one thread, as in the solvers' loops.
    """
    if not (x.shape == t.shape == beta.shape == y.shape):
        raise DimensionError(
            f"inconsistent shapes: x {x.shape}, t {t.shape}, beta {beta.shape}, y {y.shape}"
        )
    cfg.validate()
    cols, acq = _sampled_data(y)
    with _one_blas_thread():
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

    Every loop gets one working set: ``iterations(cfg, cols, acq, x, c, r,
    work, v)`` gets the indices and acquired samples of
    :func:`~dynlr.operators._sampled_data`, the zero-filled ``x``, the
    ``(nx, S)`` residual buffer ``c`` and three more volumes.  ``v`` is
    ``slr``'s ``t`` and the sparse loop's ``A^H c``; each loop sums its
    trace terms in rows of its volumes that nothing reads any more.  The
    generator yields ``(record, x, state)`` after each iteration; ``state``
    holds the callback's extra volumes.  The objective's finite check, the
    trace, the callback and the report are here.  The loop, callbacks
    included, runs with BLAS on one thread
    (:func:`~dynlr.core._one_blas_thread`), so the row split is its only
    parallelism.
    """
    _check_reference(reference, y)
    started = time.perf_counter()
    work = _new_volume(y.data)
    cols, acq = _sampled_data(y)
    x = _sampled_ifft2c_arr(acq, cols, _new_volume(work), work)  # the zero-filled start
    c, r, v = np.empty_like(acq), _new_volume(x), _new_volume(x)
    trace = []
    try:
        with np.errstate(over="ignore", invalid="ignore"), _one_blas_thread():
            for record, x, state in iterations(cfg, cols, acq, x, c, r, work, v):
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
    # Freed before the report copies x, and x, t and beta before it is scored.
    # They are allocated here and not in the generator: buffers that a
    # generator allocated and freed raised peak RSS.
    del c, r, work, v, state
    image = DynamicImage(x)
    del x
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
    0, the gradient step changes nothing, and the image depends on ``eta2`` only
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


def _slr_iterations(cfg, cols, acq, x, c, r, work, t):
    """The iterations of :func:`solve_slr`, for :func:`_solve`.

    ``c`` holds the sampled residual; ``r`` holds its adjoint, then the
    gradient step, then the new ``x``, then ``x - t``, which the Lagrangian
    reads before the next adjoint overwrites it; ``work`` is scratch for
    every step; ``t`` is zero-filled here.  The steps between the FFTs and
    the SVT run in two passes over x-row slabs
    (:func:`~dynlr.core._split_rows`): every step there is elementwise or
    acts on whole temporal rows.  The per-element terms of the sums go into
    rows that nothing reads any more.  The gradient pass puts the soft
    threshold's scratch, ``|D r|`` and ``|r - x|^2`` into its rows of ``t``
    once they have given the gradient (the low-rank step overwrites all of
    ``t``), and ``|r|^2``, the next ``rel_change``'s denominator, into its
    rows of ``work``.  The multiplier pass puts ``|x - t|^2`` into its rows
    of ``work``.  Each sum is one ``sum()`` over the real or imaginary part
    of a whole volume, which has the bits of a sum over a contiguous copy,
    so the slabs do not change a bit.  A slab's non-finite step is raised
    as :func:`_split_checked` says.
    """
    kind = cfg.transform
    t.fill(0)
    beta = np.zeros_like(x)
    tau = cfg.lambda1 * cfg.eta2

    def gradient_and_sparse(rows, failed):
        xs, rs, ws, ts = x[rows], r[rows], work[rows], t[rows]
        # r = x - eta2 * (A^H c + rho * (x + beta - t)), with A^H c in r
        np.add(xs, beta[rows], out=ws)
        np.subtract(ws, ts, out=ws)
        np.multiply(ws, cfg.rho, out=ws)
        np.add(rs, ws, out=rs)
        np.multiply(rs, cfg.eta2, out=rs)
        np.subtract(xs, rs, out=rs)
        if not _finite(rs):
            failed.add("gradient")
            return
        # r = D^H soft(D r, tau), keeping |D r| for the sparse term; from here on
        # the rows of t are scratch
        if not _sparse_step(rs, rs, tau, kind, ws, (ts.real, ts.imag)):
            failed.add("sparse")
        np.abs(ws, out=ts.real)
        # |r - x|^2 for rel_change; the imaginary part of the difference is its own scratch
        diff = np.subtract(rs, xs, out=ws)
        _abs2(diff, ts.imag, diff.imag)
        _abs2(rs, ws.real, ws.imag)  # |r|^2, the next rel_change's denominator
        if cfg.t_step_input == "x_plus_beta":
            np.add(rs, beta[rows], out=xs)  # the low-rank step's input; x is no longer needed

    def multiplier(rows, failed):
        # beta += eta1 * (x - t), keeping x - t in r and |x - t|^2 for the Lagrangian
        xs, rs, ws = x[rows], r[rows], work[rows]
        np.subtract(xs, t[rows], out=rs)
        np.add(beta[rows], np.multiply(rs, cfg.eta1, out=ws), out=beta[rows])
        if not _finite(beta[rows]):
            failed.add("multiplier")
        _abs2(rs, ws.real, ws.imag)

    _residual(c, x, cols, acq, work)
    x2 = _norm2(x, _real_pair(work, x.shape))
    for n in range(1, cfg.iterations + 1):
        _sampled_ifft2c_arr(c, cols, r, work)
        _split_checked(gradient_and_sparse, x, n, "gradient", "sparse")
        sparse = cfg.lambda1 * float(t.real.sum())
        rel_change = _rel_change(float(t.imag.sum()), x2)
        x2 = float(work.real.sum())
        x, r = r, x
        s_new = _low_rank_step(r if cfg.t_step_input == "x_plus_beta" else x, cfg, n, t)
        _split_checked(multiplier, x, n, "multiplier")
        gap2 = float(work.real.sum())
        _residual(c, x, cols, acq, work)
        terms = _lagrangian(
            0.5 * _norm2(c, _real_pair(work, c.shape)), sparse, cfg.lambda2 * float(s_new.sum()),
            r, gap2, beta, cfg.rho,
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


def _ista_iterations(cfg, cols, acq, x, c, r, work, resid, placement=None):
    """The sparse iteration, with the low-rank module at ``placement`` (None: without it).

    ``c`` holds the sampled residual and ``resid`` its adjoint; ``r`` holds
    the gradient step (unless its size is 0: then the next step reads ``x``),
    then the new ``x``.  The low-rank steps write into
    ``resid`` after the gradient step and swap it with ``r``.  Unless a
    low-rank step follows data consistency (L3), the gradient step reuses
    the ``c`` and ``resid`` of that step, as :func:`solve_ista_sparse` says.
    The sparse step and the trace terms run on x-row slabs, each on whole
    temporal rows, and put their scratch into rows that nothing reads any
    more, as in :func:`_slr_iterations`: the soft threshold's into
    ``resid``, which the gradient step has read and data consistency not
    yet written; ``|x - x_prev|^2`` and ``|D x|`` into the real and
    imaginary parts of the previous iterate; ``|x|^2``, the next
    ``rel_change``'s denominator, into ``work``.
    """
    kind = cfg.transform
    keeps_residual = placement != "L3"
    w = _dc_weight(cfg.dc_mode, cfg.dc_nu)
    step = cfg.eta2 * (1.0 - w) if keeps_residual else cfg.eta2
    tau = cfg.lambda1 * cfg.eta2

    def sparse_step(rows, failed, src, out, free):
        ws = work[rows]
        if not _sparse_step(src[rows], out[rows], tau, kind, ws, _real_pair(free[rows], ws.shape)):
            failed.add("sparse")

    def trace_terms(rows, new, prev):
        # Each |.|^2 has _abs2's bits, squared in a contiguous float64 view: no writes to strided views.
        ns, ps, ws = new[rows], prev[rows], work[rows]
        sq = np.square(np.subtract(ns, ps, out=ws).view(np.float64), out=ws.view(np.float64))
        np.add(sq[..., 0::2], sq[..., 1::2], out=ps.real)
        np.abs(_transform_fwd_arr(ns, kind, ws), out=ps.imag)
        sq = np.square(ns.view(np.float64), out=ws.view(np.float64))
        np.add(sq[..., 0::2], sq[..., 1::2], out=ws.real)

    if keeps_residual:
        c.fill(0)  # the zero-filled start counts as consistent
        resid.fill(0)
    else:
        _residual(c, x, cols, acq, work)
    x2 = _norm2(x, _real_pair(work, x.shape))
    for n in range(1, cfg.iterations + 1):
        src = x  # the gradient step leaves x as it is when the residual is exactly 0
        if step != 0:
            if not keeps_residual:
                _sampled_ifft2c_arr(c, cols, resid, work)
            src = np.subtract(x, np.multiply(resid, step, out=r), out=r)
            _check_finite(r, "gradient", n)
        if placement == "L1":
            _low_rank_step(src, cfg, n, resid)
            src, r, resid = resid, resid, r
        _split_checked(partial(sparse_step, src=src, out=r, free=resid), x, n, "sparse")
        if placement == "L2":
            _low_rank_step(r, cfg, n, resid)
            r, resid = resid, r
        _dc_arr(r, acq, cols, w, r, c, resid, work)
        _check_finite(r, "data-consistency", n)
        if placement is None:
            nuclear = 0.0
        elif placement == "L3":
            nuclear = cfg.lambda2 * float(_low_rank_step(r, cfg, n, resid).sum())
            r, resid = resid, r
        else:
            nuclear = cfg.lambda2 * _nuclear_arr(r)
        if keeps_residual:
            np.multiply(c, 1.0 - w, out=c)
        else:
            _residual(c, r, cols, acq, work)
        fid = 0.5 * _norm2(c, _real_pair(work, c.shape))
        _split_rows(partial(trace_terms, new=r, prev=x), x.shape[0], x.nbytes)
        sparse = cfg.lambda1 * float(x.imag.sum())
        rel_change = _rel_change(float(x.real.sum()), x2)
        x2 = float(work.real.sum())
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
    ``min(usable CPUs, trajectories)`` worker processes, one task each, in
    grid order, or in this process when that is 1 or the grid is under
    ``_WORKER_FLOOR`` volume elements times iterations.  Each worker is a
    fresh ``spawn`` interpreter that loads BLAS with one thread and splits
    on one thread.  The images have the same bits at any split width and
    at any BLAS thread count wherever numpy's OpenBLAS thread count can be
    set (see the README), so the result does not depend on the worker
    count.  Starting the workers costs a fixed fraction of a second per
    call, which only a grid of short solves notices.  As with any ``spawn``
    process, a script that calls this at top level needs an
    ``if __name__ == "__main__":`` guard.  A worker that dies ends the call
    with an ``EOFError``; an interrupt, or any other exception in this
    process, terminates the workers and is re-raised.

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


def _run_trajectory(solver, y, reference, job):
    """Solve ``cfg`` of ``job = (cfg, stops)`` once; score its iterate at each of the sorted ``stops``.

    The last stop is ``cfg.iterations``.  Returns ``(scores, error)``:
    ``scores`` maps each stop reached to its PSNR against ``reference``, and
    ``error`` is the exception that ended the solve or its scoring, or None.
    """
    cfg, stops = job
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


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_env():
    """Set the BLAS thread-count variables to 1 in ``os.environ``; restore them on exit.

    A process spawned inside the block reads them when it loads BLAS.  A
    tuner worker's solves run BLAS on one thread anyway, but workers that
    loaded OpenBLAS at its default thread count made the two ``std64-tune``
    grids about 7% slower on 2 vCPUs (median of 10 alternating rounds).
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


# Below this many volume elements times solved iterations, a grid runs in this
# process: on 2 vCPUs a 4-point slr grid at 64x64x16 ran faster here than on
# two workers at 2**22 (16 iterations), as fast at 5.2e6 and slower at 2**23.
_WORKER_FLOOR = 1 << 22

_worker_args = ()  # in a tuner worker: the call's solver, y and reference


def _start_worker(inbox):
    """Keep the call's data from ``inbox`` for every task; split on one thread, as workers fill the CPUs."""
    global _worker_args
    _set_split_width(1)
    _worker_args = inbox.get()


def _run_in_worker(job):
    return _run_trajectory(*_worker_args, job)


def _run_trajectories(solver, y, reference, jobs):
    """:func:`_run_trajectory` of each ``(cfg, stops)`` in ``jobs``, in order, one worker task each.

    Runs in this process when one worker would do, when the jobs solve
    fewer than ``_WORKER_FLOOR`` volume elements times iterations, or when
    this process is itself a daemonic worker, which cannot start processes.
    A worker gets ``y`` and the reference once, from :func:`_start_worker`;
    a task carries only its job.  A worker takes the next task when it
    finishes one.  A worker that dies raises ``EOFError``, also when the
    start of another worker then fails.
    """
    workers = min(_usable_cpus(), len(jobs))
    work = y.data.size * sum(stops[-1] for _, stops in jobs)
    if workers <= 1 or work < _WORKER_FLOOR or multiprocessing.current_process().daemon:
        return list(map(partial(_run_trajectory, solver, y, reference), jobs))
    # Imported here, so that only a call that starts workers loads the module.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # The data goes to the workers through a queue, not as initializer arguments:
    # each spawn would block until its worker read them, and forever if it died first.
    context = multiprocessing.get_context("spawn")
    inbox = context.Queue()
    inbox.cancel_join_thread()  # a worker that dies while starting leaves its copy unread
    for _ in range(workers):
        inbox.put((solver, y, reference))
    before = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_start_worker, initargs=(inbox,))
    try:
        with _one_blas_thread_env():  # map submits every task at once, and each submit may start a worker
            results = pool.map(_run_in_worker, jobs)
        return list(results)
    except BaseException as exc:
        # The shutdown below would otherwise wait for the running tasks.  A broken
        # pool terminates only the workers it had started, so one that started
        # later would wait for a task forever.
        children = set(multiprocessing.active_children()) - before
        for proc in children:
            proc.terminate()
        for proc in children:
            proc.join()
        # A worker start that began after the pool broke fails with the OSError of
        # the call queue that the broken pool closed; the pool's private _broken
        # tells that OSError from one of this process.
        if isinstance(exc, BrokenProcessPool) or (isinstance(exc, OSError) and pool._broken):
            raise EOFError("a tuner worker died") from exc
        raise
    finally:
        pool.shutdown(cancel_futures=True)
        inbox.close()
