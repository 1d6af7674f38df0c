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
    DataError,
    DimensionError,
    DynamicImage,
    KSpaceData,
    NumericError,
    SolverConfig,
    _finite,
    _new_volume,
    _one_blas_thread,
    _set_split_width,
    _SlabScratch,
    _slabs,
    _split_rows,
    _usable_cpus,
)
from .metrics import _abs_max, _mse_psnr, _norm2, fits_ssim_window, psnr, ssim
from .operators import (
    _dc_rows,
    _dc_weight,
    _fft_rows,
    _fft_x_stage,
    _ifft_rows,
    _ifft_x_stage,
    _sampled_data,
    _sampled_fft2c_arr,
    _sampled_ifft2c_arr,
    _shift_y_into,
)
from .prox import (
    _casorati,
    _factored,
    _GramPartials,
    _low_rank_factors,
    _LowRank,
    _nuclear_arr,
    _soft_arr,
    _svt_arr,
    _transform_adj_arr,
    _transform_fwd_arr,
)

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


def _split_pass(fn, like, n, *steps, terms=0):
    """Run ``fn(rows, sums, failed)`` on the x-row slabs of volumes shaped as ``like``; return the term totals.

    ``sums`` is the slab's own row of ``terms`` per-slab sums, which ``fn``
    fills, and ``failed`` a set to which it adds the steps that fail.  The
    first of ``steps`` that a slab added is raised as the step of iteration
    ``n``.  Each term's total is the exactly rounded sum (``math.fsum``) of
    its per-slab sums over the slabs of :func:`~dynlr.core._slabs`, which
    do not depend on the split width; under the split floor it is the one
    slab's sum.  A total too large for a float is an infinity (or NaN), as
    a plain sum gives it, for the objective's finite check to report.
    """
    nx = like.shape[0]
    index = {rows.start: k for k, rows in enumerate(_slabs(nx, like.nbytes))}
    sums = np.zeros((len(index), terms))
    failed = set()
    _split_rows(lambda rows: fn(rows, sums[index[rows.start]], failed), nx, like.nbytes)
    for step in steps:
        if step in failed:
            raise _numeric_error(step, n)
    return [_total(column) for column in sums.T]


def _total(sums):
    """``math.fsum(sums)``, or the plain sum, an infinity or NaN, where ``fsum`` overflows or meets both infinities."""
    try:
        return math.fsum(sums)
    except (OverflowError, ValueError):
        return sum(map(float, sums))


def _pair_sum(flat):
    """The sum, over the complex elements that the ``float64`` array ``flat`` views, of each real and imaginary pair.

    Each pair is added in place, into the real positions, and the sum is
    one ``sum()`` over them, with the bits of a sum over a contiguous copy.
    """
    return float(np.add(flat[..., 0::2], flat[..., 1::2], out=flat[..., 0::2]).sum())


def _sum_abs2(arr, scratch):
    """``sum(|arr|^2)`` with the bits of :func:`~dynlr.metrics._norm2`, squared into ``scratch``, which may be ``arr``.

    Both are C-contiguous complex arrays of one shape; the squares run on
    their contiguous ``float64`` views, so no pass writes a strided view.
    """
    return _pair_sum(np.square(arr.view(np.float64), out=scratch.view(np.float64)))


def _half_norm2(c, squares, like, scratch, scale=None):
    """``0.5 * ||c||^2`` of the ``(nx, S)`` residual ``c``, or of ``scale * c``, with the bits of :func:`_sum_abs2`.

    Each slab of :func:`~dynlr.core._slabs` of volumes shaped as ``like`` is
    scaled and squared in the calling thread's buffer of ``scratch``, whose
    slab of as many volume rows holds it without growing, and each
    element's ``re^2 + im^2`` goes into ``squares``, the loop's real
    ``(nx, S)`` array.  The one ``sum()`` over that contiguous array has
    the bits of :func:`_pair_sum`.
    """
    for rows in _slabs(c.shape[0], like.nbytes):
        block = c[rows]
        buf = scratch.array(block.shape)
        if scale is not None:
            block = np.multiply(block, scale, out=buf)
        flat = np.square(block.view(np.float64), out=buf.view(np.float64))
        np.add(flat[:, 0::2], flat[:, 1::2], out=squares[rows])
    return 0.5 * float(squares.sum())


def _slab_norm2(arr, scratch, n):
    """``||arr||^2`` of a volume, summed as :func:`_split_pass` sums, with a :class:`~dynlr.core._SlabScratch`."""

    def norm2(rows, sums, failed):
        sums[0] = _sum_abs2(arr[rows], scratch(rows))

    return _split_pass(norm2, arr, n, terms=1)[0]


def _lagrangian(fid, sparse, nuclear, inner, gap2, rho):
    """Add the multiplier and penalty terms to the others.

    ``inner`` is ``Re <beta, gap>`` and ``gap2`` is ``||gap||^2``, for the
    raw ``gap = x - t``.
    """
    multiplier = rho * inner
    penalty = 0.5 * rho * gap2
    total = fid + sparse + nuclear + multiplier + penalty
    return ObjectiveBreakdown(total, fid, sparse, nuclear, multiplier, penalty)


def _low_rank_step(arr, cfg: SolverConfig, n, out, scratch, partials):
    """The configured SVT of ``arr`` into ``out``, checked as the low-rank step of iteration ``n``.

    ``out`` may be ``arr``; ``scratch`` is the loop's
    :class:`~dynlr.core._SlabScratch` and ``partials`` its
    :class:`~dynlr.prox._GramPartials`.  Returns the singular values of the
    output.
    """
    _, s_new, finite = _svt_arr(arr, cfg, out, scratch, partials)
    if not finite:
        raise _numeric_error("low-rank", n)
    return s_new


def _real_pair(arr, shape):
    """Two C-contiguous real arrays of ``shape`` in the memory of the C-contiguous complex ``arr``."""
    flat = arr.reshape(-1).view(np.float64)
    size = math.prod(shape)
    return flat[:size].reshape(shape), flat[size : 2 * size].reshape(shape)


def _rel_change(diff2, prev2):
    """``rel_change`` from ``||x_n - x_{n-1}||^2`` and ``||x_{n-1}||^2``; a zero ``x_{n-1}`` divides by 1."""
    denom = np.sqrt(prev2)
    return float(np.sqrt(diff2) / (1.0 if denom == 0 else denom))


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
        fid = 0.5 * _norm2(_sampled_fft2c_arr(x.data, cols, np.empty_like(acq), acq))
        sparse = cfg.lambda1 * float(np.abs(_transform_fwd_arr(x.data, cfg.transform)).sum())
        nuclear = cfg.lambda2 * _nuclear_arr(t.data)
        gap = x.data - t.data
        inner = float(np.real(np.vdot(beta.data, gap)))
        return _lagrangian(fid, sparse, nuclear, inner, _norm2(gap), cfg.rho)


def default_config(y: KSpaceData, **overrides) -> SolverConfig:
    """Stable starting configuration scaled to the data.

    The sparse and low-rank weights default to 1e-3 of the peak magnitude
    of the zero-filled reconstruction; the step size is 1 (the encoding
    operator has unit norm).  Keyword overrides replace individual fields.
    The peak is taken on x-row slabs of the sampled adjoint's output, with
    no copy of the volume.
    """
    cols, acq = _sampled_data(y)
    peak = _abs_max(_sampled_ifft2c_arr(acq, cols, _new_volume(y)))
    if not math.isfinite(peak):
        raise DataError("the zero-filled reconstruction contains non-finite values")
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


def _solve(y, cfg, reference, callback, iterations, held):
    """Run the generator ``iterations`` from the zero-filled start, and report.

    Every loop gets the working set it holds: ``iterations(cfg, cols, acq,
    x, c, squares, *volumes)`` gets the indices and acquired samples of
    :func:`~dynlr.operators._sampled_data` (``y.samples``, which it reads
    in place), the zero-filled ``x``, the
    ``(nx, S)`` residual buffer ``c``, the real ``(nx, S)`` array in which
    :func:`_half_norm2` squares it, and ``held`` more volumes: ``slr``'s
    ``beta``, or the sparse loop's ``r``.  Any other scratch is per-thread
    slab buffers (:class:`~dynlr.core._SlabScratch`) that every pass and
    kernel of the loop shares, and ``slr``'s factor of ``t``.  The
    generator yields ``(record, x, state)`` after each iteration;
    ``state`` maps the callback's extra volumes to functions that make
    them.  The objective's finite check, the trace, the
    callback and the report are here.  The loop, callbacks included, runs
    with BLAS on one thread (:func:`~dynlr.core._one_blas_thread`), so the
    row split is its only parallelism.
    """
    _check_reference(reference, y)
    started = time.perf_counter()
    cols, acq = _sampled_data(y)
    c = np.empty_like(acq)
    squares = np.empty(acq.shape)
    x = _sampled_ifft2c_arr(acq, cols, _new_volume(y), c)  # the zero-filled start; c is its scratch
    volumes = [_new_volume(x) for _ in range(held)]
    trace = []
    try:
        with np.errstate(over="ignore", invalid="ignore"), _one_blas_thread():
            for record, x, state in iterations(cfg, cols, acq, x, c, squares, *volumes):
                n = record.iteration
                if not np.isfinite(record.objective):
                    raise NumericError(
                        f"non-finite objective value at iteration {n}", step="objective", iteration=n
                    )
                trace.append(record)
                if callback is not None:
                    callback(n, DynamicImage(x), **{k: DynamicImage(make()) for k, make in state.items()})
    except NumericError as exc:
        exc.trace = tuple(trace)
        raise
    # Freed before the report copies x, and x and the loop's other volumes before it is scored.
    # They are allocated here and not in the generator: buffers that a
    # generator allocated and freed raised peak RSS.
    del c, squares, volumes, state
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
    :func:`~dynlr.operators.data_consistency` (one shared row stage), with
    ``g = A^H c`` and ``c = A r - y`` on the sampled columns.  The residual
    of ``x`` is ``(1 - w) c`` and its gradient ``(1 - w) g``, so the next
    gradient step is ``x - eta2 * (1 - w) * g`` with no forward FFT: ``c``
    keeps the adjoint's x stage, from which that step rebuilds the rows of
    ``g``, and no volume holds ``g``.  The loop holds two volumes, ``x`` and
    the next iterate.  The zero-filled start counts as consistent, and the
    first gradient step leaves it as it is.  In replace mode ``w = 1``: the
    residual is exactly 0, the gradient step changes nothing, and the image
    depends on ``eta2`` only through the threshold.
    """
    cfg.validate()
    return _solve(y, cfg, reference, callback, _ista_iterations, 1)


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
    ``A^H`` starts from them.  ``t`` has rank ``k``, the number of singular
    values that the low-rank step kept, and the loop keeps it as the
    ``(nx*ny) x k`` factor ``U = (x + beta) W`` and ``V_k^H``, not as a
    volume, while ``2k <= nt`` and the volume is above the row split's
    floor; the Gram matrix of the low-rank step's input is summed from slab
    partials inside the pass that forms it.
    Returns the final sparse-step iterate ``x``.  A callback, if given, is
    invoked as ``callback(n, x, t=..., beta=...)`` after each iteration,
    with ``t`` made from the factors.
    """
    cfg.validate_for(y.shape[2])
    return _solve(y, cfg, reference, callback, _slr_iterations, 1)


def _slr_iterations(cfg, cols, acq, x, c, squares, beta):
    """The iterations of :func:`solve_slr`, for :func:`_solve`.

    The loop holds ``x``, ``beta``, the ``(nx, S)`` residual ``c`` and the
    low-rank surrogate ``t`` as factors (:class:`~dynlr.prox._LowRank`):
    ``V_k^H`` and the ``(nx*ny) x k`` factor ``U``, with ``t_s = U_s
    V_k^H`` on each slab of Casorati rows.  Where more than half the
    directions are kept, or the volume is under the split floor
    (:func:`~dynlr.prox._factored`), ``U`` is ``t`` itself, one volume.
    ``beta`` is zero-filled here, and ``t`` starts at 0: an empty factor,
    or a zero ``U`` under the floor.  Every
    pass and kernel shares one per-thread slab buffer
    (:class:`~dynlr.core._SlabScratch`), and ``t_s`` is formed in a second
    one while ``t`` is factored.  Each slab of the two passes over x-rows
    (:func:`_split_pass`) acts on whole temporal rows or whole y-rows:

    * The adjoint pass reads ``c`` after the adjoint's x stage, which runs
      in place (:func:`~dynlr.operators._ifft_x_stage`).  It forms the
      multiplier coupling over ``t_s`` (in the second buffer, or in
      ``t``'s rows), adds the adjoint's row stage to it, and takes the
      gradient step and the sparse step there, with those rows as the soft
      threshold's scratch; it sums ``|D r|``, ``|x_new - x|^2`` and
      ``|x_new|^2``, writes ``x_new`` into ``x`` and takes the Gram
      partial (:func:`~dynlr.prox._gram_partial`) of the low-rank step's
      input ``x_new + beta`` (or ``x_new``) from the same rows.
    * The low-rank step folds the partials into the new factors
      (:func:`~dynlr.prox._low_rank_factors`).  Its SVD route builds
      ``x + beta`` in a temporary volume, and returns ``W`` and ``V_k^H``
      as the Gram route does.
    * The multiplier pass forms the input rows ``M_s`` from ``x`` and the
      old ``beta``, writes ``U_s = M_s W`` into ``U`` on either route,
      forms ``t_s``, checks it (the low-rank step's check), updates
      ``beta`` and checks it, sums ``|x - t|^2`` and ``Re(conj(beta) (x -
      t))``, the Lagrangian's multiplier term, forming ``x - t`` afresh for
      each, and runs the forward's row stage on ``x`` into ``c``; no slab
      writes the rows of ``x`` that it reads.  The forward's x stage then forms the
      residual.

    A callback's ``t`` is a volume made from the factors.  Each sum is
    :func:`_split_pass`'s sum of per-slab sums.  A slab's non-finite step
    is raised as :func:`_split_pass` says.
    """
    kind = cfg.transform
    nx, ny, nt = x.shape
    beta.fill(0)
    tau = cfg.lambda1 * cfg.eta2
    into_t = cfg.t_step_input == "x_plus_beta"
    scratch, second = _SlabScratch(x), _SlabScratch(x)
    partials = _GramPartials(x)
    # t = 0 to start with: an empty factor, or a zero volume where U will be t
    width = 0 if _factored(0, nt, x.nbytes) else nt
    vh = np.zeros((0, nt), complex) if width == 0 else None
    factors = _LowRank(np.zeros(0), np.zeros((nt, width), complex), vh)
    store = np.zeros(nx * ny * width, complex)  # U
    u = store.reshape(nx * ny, width)

    def t_rows(rows):
        """``t`` on the slab ``rows``: ``U_s V_k^H`` in the second buffer, or ``U``'s rows where ``U`` is ``t``."""
        span = slice(rows.start * ny, rows.stop * ny)
        if factors.vh is None:
            return u[span].reshape((-1, ny, nt))
        ts = second(rows)
        np.matmul(u[span], factors.vh, out=_casorati(ts))
        return ts

    def adjoint_gradient_sparse(rows, sums, failed):
        xs, bs = x[rows], beta[rows]
        buf, ts = scratch(rows), t_rows(rows)
        # r = x - eta2 * (A^H c + rho * (x + beta - t)), the coupling term formed over t's rows
        np.subtract(np.add(xs, bs, out=buf), ts, out=ts)
        np.multiply(ts, cfg.rho, out=ts)
        _shift_y_into(ts, _ifft_rows(c, cols, rows, buf), np.add)
        np.multiply(ts, cfg.eta2, out=ts)
        np.subtract(xs, ts, out=ts)
        if not _finite(ts):
            failed.add("gradient")
            return
        # x_new = D^H z with z = soft(D r, tau) in buf; once D r is formed, r's rows are scratch
        pair = _real_pair(ts, ts.shape)
        _soft_arr(_transform_fwd_arr(ts, kind, buf), tau, buf, pair)
        sums[0] = np.abs(buf, out=pair[0]).sum()
        if not _finite(_transform_adj_arr(buf, kind, ts)):
            failed.add("sparse")
        sums[1] = _sum_abs2(np.subtract(ts, xs, out=buf), buf)  # |x_new - x|^2 for rel_change
        sums[2] = _sum_abs2(ts, buf)  # |x_new|^2, the next rel_change's denominator
        xs[...] = ts
        if into_t:
            np.add(ts, bs, out=ts)
        partials.add(rows, _casorati(ts))

    def multiplier_and_forward(rows, sums, failed):
        # U = M W; beta += eta1 * (x - t); then |x - t|^2 and Re(conj(beta) (x - t)) for the Lagrangian
        xs, bs = x[rows], beta[rows]
        gap = scratch(rows)
        block = np.add(xs, bs, out=gap) if into_t else xs
        np.matmul(_casorati(block), factors.w, out=u[rows.start * ny : rows.stop * ny])
        ts = t_rows(rows)
        if not _finite(ts):
            failed.add("low-rank")
            return
        np.add(bs, np.multiply(np.subtract(xs, ts, out=gap), cfg.eta1, out=gap), out=bs)
        if not _finite(bs):
            failed.add("multiplier")
        sums[0] = _sum_abs2(np.subtract(xs, ts, out=gap), gap)
        flat = np.subtract(xs, ts, out=gap).view(np.float64)
        sums[1] = _pair_sum(np.multiply(bs.view(np.float64), flat, out=flat))
        _fft_rows(x, cols, rows, gap, c)

    def low_rank_input():
        return np.add(x, beta) if into_t else x

    def t_volume():
        t = _new_volume(x)
        _split_rows(lambda rows: np.copyto(t[rows], t_rows(rows)), nx, x.nbytes)
        return t

    _sampled_fft2c_arr(x, cols, c, acq, scratch)
    x2 = _slab_norm2(x, scratch, 0)
    for n in range(1, cfg.iterations + 1):
        _ifft_x_stage(c, c, scratch)
        sparse, diff2, new2 = _split_pass(adjoint_gradient_sparse, x, n, "gradient", "sparse", terms=3)
        rel_change = _rel_change(diff2, x2)
        x2 = new2
        factors = _low_rank_factors(partials, cfg, low_rank_input)
        if factors.vh is None:  # U is t, whose rows the next adjoint pass works in
            second = _SlabScratch(x)
        size = nx * ny * factors.width
        if store.size != size:
            u = store = None
            store = np.empty(size, complex)
        u = store.reshape(nx * ny, factors.width)
        gap2, inner = _split_pass(multiplier_and_forward, x, n, "low-rank", "multiplier", terms=2)
        _fft_x_stage(c, acq, scratch)
        fid = _half_norm2(c, squares, x, scratch)
        nuclear = cfg.lambda2 * float(factors.s_new.sum())
        terms = _lagrangian(fid, cfg.lambda1 * sparse, nuclear, inner, gap2, cfg.rho)
        record = IterationRecord(
            n, float(terms.total), terms.data_fidelity, terms.sparse_term, terms.nuclear_term,
            rel_change, split_gap=float(np.sqrt(gap2)),
        )
        yield record, x, {"t": t_volume, "beta": lambda: beta}


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
    return _solve(y, cfg, reference, callback, partial(_ista_iterations, placement=cfg.placement), 1)


def _ista_iterations(cfg, cols, acq, x, c, squares, r, placement=None):
    """The sparse iteration, with the low-rank module at ``placement`` (None: without it).

    The loop holds ``x``, ``r`` and the ``(nx, S)`` residual ``c``, and one
    per-thread slab buffer (:class:`~dynlr.core._SlabScratch`) that every
    pass and kernel shares; no volume holds ``A^H c``.  ``c`` keeps the
    adjoint's x stage (:func:`~dynlr.operators._ifft_x_stage`), whose row
    stage the gradient step reruns slab by slab: outside L3 the block that
    data consistency left, as :func:`solve_ista_sparse` says; at L3 that of
    the residual of ``x``.  Each pass (:func:`_split_pass`) acts on whole
    temporal rows.  The sparse pass takes the gradient step and its check
    in ``r``'s rows (at L1 in a pass of its own, before the low-rank step),
    then the sparse step there, with ``r``'s rows as the soft threshold's
    real scratch.  The low-rank steps run in place on ``r``.  The
    data-consistency pass (:func:`~dynlr.operators._dc_rows`) corrects
    ``r`` and, outside L3, sums ``|r - x|^2``, ``|D r|`` (into ``x``'s
    rows, once read) and ``|r|^2``; at L3 those sums run after the SVT,
    in a pass with the forward's row stage.  ``r`` then becomes ``x``.
    """
    kind = cfg.transform
    keeps_residual = placement != "L3"
    w = _dc_weight(cfg.dc_mode, cfg.dc_nu)
    step = cfg.eta2 * (1.0 - w) if keeps_residual else cfg.eta2
    tau = cfg.lambda1 * cfg.eta2
    scratch = _SlabScratch(x)
    partials = None if placement is None else _GramPartials(x)  # every low-rank step's Gram partials
    block = None  # c holds the adjoint's x stage of the gradient's residual; None: the residual is 0
    # Where the gradient step is the identity the sparse step reads x, else r;
    # outside L1 the gradient step runs in the sparse pass.
    reads_x = step == 0 and placement != "L1"
    fused = step != 0 and placement != "L1"

    def gradient(rows, sums, failed):
        """``r = x - step A^H c`` on the slab; whether it is finite."""
        rs = r[rows]
        if block is None:
            rs.fill(0)
        else:
            _shift_y_into(rs, _ifft_rows(block, cols, rows, scratch(rows)))
        np.subtract(x[rows], np.multiply(rs, step, out=rs), out=rs)
        if not _finite(rs):
            failed.add("gradient")
            return False
        return True

    def sparse(rows, sums, failed):
        if fused and not gradient(rows, sums, failed):
            return
        z, rs = scratch(rows), r[rows]
        _soft_arr(_transform_fwd_arr(x[rows] if reads_x else rs, kind, z), tau, z, _real_pair(rs, rs.shape))
        if not _finite(_transform_adj_arr(z, kind, rs)):
            failed.add("sparse")

    def trace_terms(rows, sums):
        rs, xs = r[rows], x[rows]
        buf = scratch(rows)
        sums[0] = _sum_abs2(np.subtract(rs, xs, out=buf), buf)
        sums[1] = np.abs(_transform_fwd_arr(rs, kind, buf), out=_real_pair(xs, rs.shape)[0]).sum()
        sums[2] = _sum_abs2(rs, buf)

    def consistency(rows, sums, failed):
        if not _dc_rows(r, block, cols, w, rows, scratch(rows)):
            failed.add("data-consistency")
        elif keeps_residual:
            trace_terms(rows, sums)

    def trace_and_forward(rows, sums, failed):
        trace_terms(rows, sums)
        _fft_rows(r, cols, rows, scratch(rows), c)

    if not keeps_residual:
        _sampled_fft2c_arr(x, cols, c, acq, scratch)
    x2 = _slab_norm2(x, scratch, 0)
    for n in range(1, cfg.iterations + 1):
        if not keeps_residual:
            block = _ifft_x_stage(c, c, scratch)
        if placement == "L1":
            if step != 0:
                _split_pass(gradient, x, n, "gradient")
            _low_rank_step(x if step == 0 else r, cfg, n, r, scratch, partials)
        _split_pass(sparse, x, n, "gradient", "sparse")
        if placement == "L2":
            _low_rank_step(r, cfg, n, r, scratch, partials)
        _sampled_fft2c_arr(r, cols, c, acq, scratch)
        if keeps_residual:  # the output's residual is (1 - w) c
            fid = _half_norm2(c, squares, x, scratch, 1.0 - w)
        block = _ifft_x_stage(c, c, scratch)
        terms = _split_pass(consistency, x, n, "data-consistency", terms=3)
        if placement is None:
            nuclear = 0.0
        elif placement == "L3":
            nuclear = cfg.lambda2 * float(_low_rank_step(r, cfg, n, r, scratch, partials).sum())
            terms = _split_pass(trace_and_forward, x, n, terms=3)
            _fft_x_stage(c, acq, scratch)
            fid = _half_norm2(c, squares, x, scratch)
        else:
            nuclear = cfg.lambda2 * _nuclear_arr(r)
        diff2, sparse_sum, new2 = terms
        sparse_term = cfg.lambda1 * sparse_sum
        rel_change = _rel_change(diff2, x2)
        x2 = new2
        x, r = r, x
        yield IterationRecord(n, float(fid + sparse_term + nuclear), fid, sparse_term, nuclear, rel_change), x, {}


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
    work = math.prod(y.shape) * sum(stops[-1] for _, stops in jobs)
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
