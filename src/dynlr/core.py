"""Domain types shared across the package.

All volumes are complex-valued space-time arrays indexed ``[x, y, t]`` with
shape ``(nx, ny, nt)``.  Whenever a volume is flattened (Casorati matrix,
file format), the x index varies fastest, then y, then t.  Types are
immutable after construction: their arrays are copied in and marked
read-only, so instances can be shared freely between threads.

The kernels' passes over large volumes run on row slabs, on one thread per
usable CPU, through :func:`_split_rows`; inside a solve and the public
low-rank and transform operators, BLAS runs on one thread
(:func:`_one_blas_thread`), so the slabs are the only parallelism.
"""

import contextlib
import contextvars
import math
import os
import re
import threading
from dataclasses import dataclass, fields, replace

import numpy as np


class DynlrError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DynlrError):
    """Invalid parameter value or parameter combination."""


class DataError(DynlrError):
    """Input data violates a type invariant (non-finite, non-binary, ...)."""


class DimensionError(DataError):
    """Array dimensions are inconsistent with each other or with a contract."""


class FormatError(DataError):
    """A file on disk is missing, corrupt, or inconsistent with its header."""


class NumericError(DynlrError):
    """A numerical failure (NaN/Inf) occurred during an iterative solve.

    A solver sets ``trace`` to the iteration records it completed before
    the failure.
    """

    def __init__(self, message, step=None, iteration=None):
        super().__init__(message)
        self.step = step
        self.iteration = iteration
        self.trace = ()


def _as_locked_complex(data, ndim, name):
    arr = np.array(data, dtype=np.complex128)
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{name} must have at least one element per axis")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


def _is_count(value):
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value):
    """True for a Python or numpy integer or float; a bool is not a real number."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


# The number tokens of config files, grid specs and command-line flags.
# int() and float() would also take underscores, surrounding whitespace, a
# leading "+" and non-ASCII digits, none of which repr() writes.
_INT_TOKEN = re.compile(r"-?[0-9]+")
_FLOAT_TOKEN = re.compile(r"-?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|inf|nan)")


def _parse_int(token):
    """``token``, an optional "-" and ASCII decimal digits, as an int; ValueError for anything else."""
    if _INT_TOKEN.fullmatch(token) is None:
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


def _parse_float(token):
    """``token`` as a float, in the grammar that ``repr(float)`` writes; ValueError for anything else.

    That is an optional "-", then decimal digits with an optional point and
    exponent, or ``inf`` or ``nan``.
    """
    if _FLOAT_TOKEN.fullmatch(token) is None:
        raise ValueError(f"invalid number {token!r}")
    return float(token)


def _new_volume(like):
    """A new C-contiguous complex array of the shape of ``like``, for kernels that write with ``out=``."""
    return np.empty(like.shape, dtype=np.complex128)


def _finite(arr):
    """Whether the non-empty C-contiguous complex ``arr`` is finite.

    The test runs on the real view of the same memory, which holds both
    parts and makes no complex pass: its largest and smallest entries are
    finite exactly when every entry is (a NaN makes both NaN), and the two
    reductions form no mask.
    """
    view = arr.view(arr.real.dtype)
    return bool(np.isfinite(view.max()) and np.isfinite(view.min()))


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A pass over fewer bytes than a core's L2 holds runs in one call; a larger
# one runs on slabs of about _SLAB_BYTES (4 x-rows of a 256x256x32 volume).
_SPLIT_FLOOR = 4 << 20
_SLAB_BYTES = 512 << 10
_split_width = None  # threads per split pass, the caller's included; None: one per usable CPU
_pool = None  # made by the first pass that needs it
_pool_lock = threading.Lock()


def _set_split_width(width):
    """Run every later split pass of this process on ``width`` threads (None: one per usable CPU)."""
    global _split_width
    _split_width = width


def _forget_pool():
    """Drop the pool in a forked child, which has none of the parent's threads.

    The child has none of the guards of :func:`_one_blas_thread` either, so
    it gets back the BLAS thread count that the outermost one saved.
    """
    global _pool, _pool_lock, _blas_lock, _blas_depth
    _pool, _pool_lock = None, threading.Lock()
    if _blas_depth:
        _blas_control[1](_blas_saved)
    _blas_lock, _blas_depth = threading.Lock(), 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pool_of(threads):
    """The pool, made with ``threads`` threads if there is none."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # Imported here, so that a process that never splits does not load it.
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(threads, thread_name_prefix="dynlr-rows")
        return _pool


def _slabs(n, nbytes):
    """The slices, in order, into which :func:`_split_rows` cuts ``range(n)`` for data of ``nbytes`` bytes.

    Under ``_SPLIT_FLOOR`` bytes that is one slice of all the rows;
    otherwise fixed slabs of ``max(1, n * _SLAB_BYTES // nbytes)`` rows, the
    last one shorter if need be.  The list depends on ``n`` and ``nbytes``
    only, not on the split width, so a sum of per-slab sums taken over it
    has the same bits at any width.
    """
    if nbytes < _SPLIT_FLOOR:
        return [slice(0, n)]
    step = max(1, n * _SLAB_BYTES // nbytes)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


class _SlabScratch:
    """Per-thread scratch for the split passes over volumes shaped as ``like``.

    Each thread that asks gets its own flat complex buffer, made on its
    first call and kept as long as this object: one slab of
    :func:`_slabs` (about ``_SLAB_BYTES``, at least one x-row, above
    ``_SPLIT_FLOOR``; the whole volume under it), or more if a call asks
    for more.  The passes of a kernel, or of a solve, that share one
    object share that buffer, which is free again when a pass returns.
    """

    def __init__(self, like):
        self._row_shape = tuple(like.shape[1:])
        self._size = _slabs(like.shape[0], like.nbytes)[0].stop * math.prod(self._row_shape)
        self._local = threading.local()

    def array(self, shape):
        """The calling thread's buffer as a C-contiguous complex array of ``shape``."""
        size = math.prod(shape)
        flat = getattr(self._local, "flat", None)
        if flat is None or flat.size < size:
            flat = self._local.flat = np.empty(max(size, self._size), dtype=np.complex128)
        return flat[:size].reshape(shape)

    def __call__(self, rows):
        """The calling thread's buffer as a slab of the x-rows ``rows``."""
        return self.array((rows.stop - rows.start,) + self._row_shape)


def _split_rows(fn, n, nbytes):
    """Call ``fn(rows)`` on slices ``rows`` that cover ``range(n)`` once each.

    ``nbytes`` is the size of the data that the ``n`` rows index.  The
    slices are those of :func:`_slabs`: under ``_SPLIT_FLOOR`` bytes one
    call gets all the rows; otherwise the calling thread and up to
    ``_split_width - 1`` pool threads each take the next slab until none is
    left.  ``fn`` must write only to its rows, read nothing that another
    slab writes and not split again; then the thread that runs a slab does
    not change the result, and neither does the width.  The pool threads
    run in copies of the caller's context, so numpy's error state, a
    context variable, holds there too.  The pool keeps the size of its
    first pass; a wider later pass queues its extra shares until a pool
    thread is free.  Returns when every slab is done, without waiting for a
    pool thread that has not started its share; an error of the calling
    thread is raised first, then that of a pool thread.
    """
    slabs = _slabs(n, nbytes)
    threads = _split_width or _usable_cpus()
    helpers = min(threads, len(slabs)) - 1
    if helpers <= 0:
        for rows in slabs:
            fn(rows)
        return
    slabs = iter(slabs)

    def run_slabs():
        for rows in slabs:  # the threads share the iterator
            fn(rows)

    pool = _pool_of(threads - 1)
    futures = [pool.submit(contextvars.copy_context().run, run_slabs) for _ in range(helpers)]
    try:
        run_slabs()
    finally:
        # A share that no pool thread has started would find no slab left, or
        # only those of a failed pass: it is cancelled, not waited for.
        errors = [None if future.cancel() else future.exception() for future in futures]
    for error in errors:
        if error is not None:
            raise error


# The thread-count getters of numpy's OpenBLAS builds, each with its setter.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_blas_control = ()  # (get, set) of the loaded OpenBLAS, None if there is none; () until looked up
_blas_lock = threading.Lock()
_blas_depth = 0  # guards entered and not yet left, over all threads
_blas_saved = None  # the thread count that the outermost guard found


def _find_blas_control():
    """``(get, set)``, the thread-count functions of the OpenBLAS in this process, or None.

    The library is found among the mapped files in ``/proc/self/maps``; the
    first OpenBLAS, by path, that has one of ``_BLAS_THREAD_SYMBOLS`` is
    taken, which is numpy's where numpy and scipy each bring their own.
    """
    # Imported here, so that importing the package does not load it.
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libraries):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, set_ = getattr(library, get_name, None), getattr(library, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread; restore its thread count afterwards.

    The row split is then the only parallelism: a BLAS call gives the bits
    of its one-thread run, wherever it runs, and does not compete with the
    pool threads for the CPUs.  The guard counts its entries over all
    threads: the first entry saves the count and sets 1, and the last exit
    restores it, so solves that run at once on several threads leave the
    count as they found it.  The count is process-wide, so other BLAS calls
    of the process run on one thread too while a guard is entered.  The
    library is looked up on first use.  Where none is found (another BLAS,
    or no ``/proc``), the guard does nothing, and results whose bits depend
    on the BLAS thread count keep that dependence.
    """
    global _blas_control, _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_control == ():
            _blas_control = _find_blas_control()
        if _blas_control is not None:
            if _blas_depth == 0:
                _blas_saved = _blas_control[0]()
                _blas_control[1](1)
            _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            if _blas_control is not None:
                _blas_depth -= 1
                if _blas_depth == 0:
                    _blas_control[1](_blas_saved)


@dataclass(frozen=True, eq=False)
class DynamicImage:
    """Complex space-time volume, shape ``(nx, ny, nt)``, indexed ``[x, y, t]``."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_locked_complex(self.data, 3, "DynamicImage"))

    @property
    def shape(self):
        return self.data.shape

    @property
    def nx(self):
        return self.data.shape[0]

    @property
    def ny(self):
        return self.data.shape[1]

    @property
    def nt(self):
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class SamplingMask:
    """Binary Cartesian phase-encode mask, shape ``(ny, nt)``.

    The frequency-encode direction (x) is always fully sampled, so the mask
    is defined on phase-encode lines per frame only.  ``acceleration`` is the
    nominal acceleration factor; the achieved factor is derived from the
    entries.
    """

    entries: np.ndarray
    acceleration: float

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2:
            raise DimensionError(f"mask entries must be 2-dimensional (ny, nt), got shape {arr.shape}")
        if arr.size == 0:
            raise DimensionError("mask must have at least one line and one frame")
        if not np.isin(arr, (0, 1)).all():
            raise DataError("mask entries must be 0 or 1")
        if not (math.isfinite(self.acceleration) and self.acceleration > 0):
            raise DataError(f"nominal acceleration must be positive, got {self.acceleration}")
        locked = arr.astype(np.uint8)
        locked.setflags(write=False)
        object.__setattr__(self, "entries", locked)
        object.__setattr__(self, "acceleration", float(self.acceleration))

    @property
    def ny(self):
        return self.entries.shape[0]

    @property
    def nt(self):
        return self.entries.shape[1]

    @property
    def n_sampled(self):
        return int(self.entries.sum())

    @property
    def achieved_acceleration(self):
        n = self.n_sampled
        if n == 0:
            raise DataError("mask samples no lines")
        return self.entries.size / n


@dataclass(frozen=True, eq=False)
class KSpaceData:
    """Measured k-space volume plus the mask it was acquired with."""

    data: np.ndarray
    mask: SamplingMask

    def __post_init__(self):
        object.__setattr__(self, "data", _as_locked_complex(self.data, 3, "KSpaceData"))
        if self.mask.ny != self.data.shape[1] or self.mask.nt != self.data.shape[2]:
            raise DimensionError(
                f"mask shape (ny={self.mask.ny}, nt={self.mask.nt}) does not match "
                f"k-space shape {self.data.shape}"
            )

    @property
    def shape(self):
        return self.data.shape


@dataclass(frozen=True, eq=False)
class CasoratiView:
    """Space-time matrix of shape ``(nx*ny, nt)``; column j is frame j flattened x-fastest."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_locked_complex(self.matrix, 2, "CasoratiView"))

    @property
    def shape(self):
        return self.matrix.shape


def to_casorati(img: DynamicImage) -> CasoratiView:
    """Reshape a volume into its Casorati matrix.

    Column ``j`` holds frame ``j`` flattened with x varying fastest, so entry
    ``(x + nx*y, t)`` of the matrix equals voxel ``(x, y, t)`` of the volume.
    The mapping is a pure reindexing; the round trip through
    :func:`from_casorati` is bit-exact.
    """
    nx, ny, nt = img.shape
    return CasoratiView(img.data.reshape(nx * ny, nt, order="F"))


def from_casorati(view: CasoratiView, shape) -> DynamicImage:
    """Inverse of :func:`to_casorati` for a volume of the given ``(nx, ny, nt)``."""
    nx, ny, nt = shape
    rows, cols = view.matrix.shape
    if rows != nx * ny or cols != nt:
        raise DimensionError(
            f"matrix of shape {view.matrix.shape} cannot be reshaped to volume {tuple(shape)}"
        )
    return DynamicImage(view.matrix.reshape((nx, ny, nt), order="F"))


PLACEMENTS = ("L1", "L2", "L3")
DC_MODES = ("replace", "weighted")
LR_MODES = ("hard", "soft")
T_STEP_INPUTS = ("x_plus_beta", "x")
TRANSFORM_KINDS = ("temporal_fourier", "temporal_haar")


@dataclass(frozen=True)
class SolverConfig:
    """Hyper-parameters shared by the iterative solvers.

    A float field takes a Python or numpy integer or float, not a bool; an
    int field takes an integer, not a bool.

    Attributes
    ----------
    lambda1 : float
        Weight of the sparse (L1) regularizer, >= 0.
    lambda2 : float
        Weight of the low-rank (nuclear norm) regularizer, >= 0.
    rho : float
        Penalty parameter coupling the image to its low-rank surrogate, >= 0
        (> 0 in soft mode, checked by :meth:`validate_for`).
    eta1 : float
        Multiplier update rate, >= 0.
    eta2 : float
        Gradient step size, > 0.  With the unitary encoding operator used
        here the operator norm is 1, so values near 1 are stable.
    rank_k : int
        Number of singular values retained by the hard-rank thresholding
        step, >= 1 (and <= nt in hard mode, checked by :meth:`validate_for`).
    p : float
        Exponent of the singular-value shrinkage rule in soft mode, in
        (0, 1].  p = 1 gives the classical constant-threshold shrinkage.
    iterations : int
        Number of outer iterations, >= 1.
    placement : str
        Where the plug-in low-rank module sits in the iteration: "L1"
        before the sparse step, "L2" after it and before data consistency,
        "L3" after data consistency.
    dc_mode : str
        "replace" overwrites sampled k-space coefficients with the acquired
        values; "weighted" blends them as (pred + nu*acq) / (1 + nu).
    dc_nu : float
        Blend weight for weighted data consistency, >= 0.  nu = 0 keeps the
        prediction (data consistency disabled); nu -> inf approaches replace.
    lr_mode : str
        "hard" keeps the top rank_k singular values and zeroes the rest;
        "soft" shrinks each singular value by (lambda2/rho) * sigma^(p-1).
    transform : str
        Unitary temporal sparsifying transform kind.
    t_step_input : str
        Input handed to the singular-value thresholding step of the
        four-step solver: the image plus the scaled multiplier
        ("x_plus_beta", the subproblem form) or the image alone ("x").
    """

    lambda1: float = 1e-3
    lambda2: float = 1e-3
    rho: float = 0.1
    eta1: float = 1.0
    eta2: float = 1.0
    rank_k: int = 4
    p: float = 1.0
    iterations: int = 8
    placement: str = "L2"
    dc_mode: str = "replace"
    dc_nu: float = 1.0
    lr_mode: str = "hard"
    transform: str = "temporal_fourier"
    t_step_input: str = "x_plus_beta"

    def validate(self):
        """Raise ConfigError if any field is outside its allowed range."""
        for f in fields(self):
            if f.type is float and not _is_real(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be a real number, got {getattr(self, f.name)!r}")
        if not (math.isfinite(self.lambda1) and self.lambda1 >= 0):
            raise ConfigError(f"lambda1 must be >= 0, got {self.lambda1}")
        if not (math.isfinite(self.lambda2) and self.lambda2 >= 0):
            raise ConfigError(f"lambda2 must be >= 0, got {self.lambda2}")
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ConfigError(f"rho must be >= 0, got {self.rho}")
        if not (math.isfinite(self.eta1) and self.eta1 >= 0):
            raise ConfigError(f"eta1 must be >= 0, got {self.eta1}")
        if not (math.isfinite(self.eta2) and self.eta2 > 0):
            raise ConfigError(f"eta2 must be > 0, got {self.eta2}")
        if not (_is_count(self.rank_k) and self.rank_k >= 1):
            raise ConfigError(f"rank_k must be a positive integer, got {self.rank_k}")
        if not (0 < self.p <= 1):
            raise ConfigError(f"p must lie in (0, 1], got {self.p}")
        if not (_is_count(self.iterations) and self.iterations >= 1):
            raise ConfigError(f"iterations must be a positive integer, got {self.iterations}")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if self.dc_mode not in DC_MODES:
            raise ConfigError(f"dc_mode must be one of {DC_MODES}, got {self.dc_mode!r}")
        if not (math.isfinite(self.dc_nu) and self.dc_nu >= 0):
            raise ConfigError(f"dc_nu must be >= 0, got {self.dc_nu}")
        if self.lr_mode not in LR_MODES:
            raise ConfigError(f"lr_mode must be one of {LR_MODES}, got {self.lr_mode!r}")
        if self.transform not in TRANSFORM_KINDS:
            raise ConfigError(f"transform must be one of {TRANSFORM_KINDS}, got {self.transform!r}")
        if self.t_step_input not in T_STEP_INPUTS:
            raise ConfigError(f"t_step_input must be one of {T_STEP_INPUTS}, got {self.t_step_input!r}")
        return self

    def validate_for(self, nt):
        """Validate, plus the low-rank rules for ``nt`` frames: rank_k <= nt (hard), rho > 0 (soft)."""
        self.validate()
        if self.lr_mode == "hard" and self.rank_k > nt:
            raise ConfigError(f"rank_k = {self.rank_k} exceeds the number of frames nt = {nt}")
        if self.lr_mode == "soft" and not self.rho > 0:
            raise ConfigError("soft low-rank mode requires rho > 0")
        return self

    def replaced(self, **changes) -> "SolverConfig":
        """Return a copy with the given fields changed; ConfigError names unknown fields."""
        unknown = sorted(set(changes) - set(self.field_names()))
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
        return replace(self, **changes)

    @classmethod
    def field_names(cls):
        return tuple(f.name for f in fields(cls))
