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
)
from .metrics import fits_ssim_window, mse, psnr, ssim
from .operators import _dc_arr, _fft2c_arr, _ifft2c_arr
from .prox import (
    _nuclear_arr,
    _soft_arr,
    _svt_hard_arr,
    _svt_soft_arr,
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
    comes from the masked k-space residual that the next gradient step also
    uses.  For the four-step solver, ``sparse_term`` is the l1 norm of the
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


def _norm2(arr) -> float:
    return float(np.sum(arr.real**2 + arr.imag**2))


def _check_finite(arr, step, iteration):
    if not np.isfinite(arr).all():
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


def _lagrangian(fid, sparse, nuclear, x, t, beta, rho):
    """Add the multiplier and penalty terms of raw ``x``, ``t``, ``beta`` to the others.

    Returns the :class:`ObjectiveBreakdown` and ``||t - x||^2``.
    """
    diff = t - x
    gap2 = _norm2(diff)
    multiplier = -rho * float(np.real(np.vdot(beta, diff)))
    penalty = 0.5 * rho * gap2
    total = fid + sparse + nuclear + multiplier + penalty
    return ObjectiveBreakdown(total, fid, sparse, nuclear, multiplier, penalty), gap2


def _low_rank_arr(arr, cfg: SolverConfig):
    """The configured SVT of ``arr``, and the singular values of its output."""
    if cfg.lr_mode == "hard":
        return _svt_hard_arr(arr, cfg.rank_k)
    return _svt_soft_arr(arr, cfg.lambda2, cfg.rho, cfg.p)


def _low_rank_step(arr, cfg: SolverConfig, n):
    """:func:`_low_rank_arr` with the finite check of iteration ``n``."""
    out, s_new = _low_rank_arr(arr, cfg)
    _check_finite(out, "low-rank", n)
    return out, s_new


def _zero_filled(y: KSpaceData):
    """The mask broadcast over x, the masked k-space, and the zero-filled image."""
    m3 = y.mask.entries[None, :, :].astype(np.float64)
    ym = y.data * m3
    return m3, ym, _ifft2c_arr(ym)


def _rel_change(curr, prev):
    denom = np.sqrt(_norm2(prev))
    if denom == 0:
        denom = 1.0
    return float(np.sqrt(_norm2(curr - prev)) / denom)


def _validate_lr_config(cfg: SolverConfig, nt: int):
    if cfg.lr_mode == "hard":
        cfg.validate_for(nt)
    else:
        cfg.validate()
        if not cfg.rho > 0:
            raise ConfigError("soft low-rank mode requires rho > 0")


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
    resid = _fft2c_arr(x.data) * m3 - y.data * m3
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
    cfg = SolverConfig(
        lambda1=lam,
        lambda2=lam,
        rho=0.1,
        eta1=1.0,
        eta2=1.0,
        rank_k=min(4, y.shape[2]),
        p=1.0,
        iterations=8,
    )
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
        report_metrics = {"mse": mse(reference, image), "psnr": psnr(reference, image)}
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
    _validate_lr_config(cfg, y.shape[2])
    _check_reference(reference, y)
    started = time.perf_counter()
    kind = cfg.transform
    m3, ym, x = _zero_filled(y)
    t = np.zeros_like(x)
    beta = np.zeros_like(x)
    tau = cfg.lambda1 * cfg.eta2
    resid = _fft2c_arr(x) * m3 - ym
    trace = []
    with _trace_on_failure(trace):
        for n in range(1, cfg.iterations + 1):
            prev = x
            r = x - cfg.eta2 * (_ifft2c_arr(resid) + cfg.rho * (x + beta - t))
            _check_finite(r, "gradient", n)
            z = _soft_arr(_transform_fwd_arr(r, kind), tau)
            x = _transform_adj_arr(z, kind)
            _check_finite(x, "sparse", n)
            sparse = cfg.lambda1 * float(np.abs(z).sum())
            rel_change = _rel_change(x, prev)
            # Free every volume the low-rank step does not need before it allocates.
            del resid, r, z, prev, t
            t, s_new = _low_rank_step(x + beta if cfg.t_step_input == "x_plus_beta" else x, cfg, n)
            beta = beta + cfg.eta1 * (x - t)
            _check_finite(beta, "multiplier", n)
            resid = _fft2c_arr(x) * m3 - ym
            terms, gap2 = _lagrangian(
                0.5 * _norm2(resid), sparse, cfg.lambda2 * float(s_new.sum()), x, t, beta, cfg.rho
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
    """
    _validate_lr_config(cfg, y.shape[2])
    return _solve_ista(y, cfg, cfg.placement, reference, callback)


def _solve_ista(y, cfg, placement, reference, callback):
    """The sparse iteration, with the low-rank module at ``placement`` (None: without it)."""
    _check_reference(reference, y)
    started = time.perf_counter()
    kind = cfg.transform
    m3, ym, x = _zero_filled(y)
    sampled = y.mask.entries.astype(bool)
    tau = cfg.lambda1 * cfg.eta2
    resid = _fft2c_arr(x) * m3 - ym
    trace = []
    with _trace_on_failure(trace):
        for n in range(1, cfg.iterations + 1):
            prev = x
            r = x - cfg.eta2 * _ifft2c_arr(resid)
            # Free volumes as soon as they are used, before the low-rank step allocates.
            del resid
            _check_finite(r, "gradient", n)
            if placement == "L1":
                r = _low_rank_step(r, cfg, n)[0]
            x = _transform_adj_arr(_soft_arr(_transform_fwd_arr(r, kind), tau), kind)
            _check_finite(x, "sparse", n)
            del r
            if placement == "L2":
                x = _low_rank_step(x, cfg, n)[0]
            x = _dc_arr(x, y.data, sampled, cfg.dc_mode, cfg.dc_nu)
            _check_finite(x, "data-consistency", n)
            if placement is None:
                nuclear = 0.0
            elif placement == "L3":
                x, s_new = _low_rank_step(x, cfg, n)
                nuclear = cfg.lambda2 * float(s_new.sum())
            else:
                nuclear = cfg.lambda2 * _nuclear_arr(x)
            resid = _fft2c_arr(x) * m3 - ym
            fid = 0.5 * _norm2(resid)
            sparse = cfg.lambda1 * float(np.abs(_transform_fwd_arr(x, kind)).sum())
            objective = _check_finite_scalar(fid + sparse + nuclear, "objective", n)
            trace.append(
                IterationRecord(n, objective, fid, sparse, nuclear, _rel_change(x, prev))
            )
            if callback is not None:
                callback(n, DynamicImage(x))
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
    best_cfg = None
    best_psnr = -np.inf
    last_error = None
    for combo in itertools.product(*value_lists):
        cfg = base.replaced(**dict(zip(keys, combo)))
        try:
            report = run_solver(solver, y, cfg)
        except NumericError as exc:
            last_error = exc
            continue
        score = psnr(reference, report.image)
        if best_cfg is None or score > best_psnr:
            best_cfg = cfg
            best_psnr = score
    if best_cfg is None:
        raise last_error
    return best_cfg
