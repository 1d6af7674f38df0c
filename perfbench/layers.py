"""Spans around the calls into each dynlr layer, and the layer replay.

Everything here reaches the package from outside.  For the length of a
traced job, module attributes are swapped for wrappers that open a span
around the original function; solver calls get a ``callback`` that turns
each iteration into a span.  At one fixed iteration the callback hands the
live iterate to :func:`replay_iteration`, which runs the next iteration
again through the public function of every step, one span per call.

Job code must therefore call layers through their module (``solvers.
run_solver``, ``cli.main``) and not through names bound at import time.
"""

import contextlib
import json
import statistics
import time

import numpy as np

from dynlr import cli, dataio, operators, sim, solvers
from dynlr.cli import main as cli_main
from dynlr.core import DynamicImage, KSpaceData, to_casorati
from dynlr.dataio import read_cplx, write_cplx
from dynlr.metrics import psnr, ssim
from dynlr.operators import data_consistency, encode, encode_adjoint, fft2c, ifft2c
from dynlr.prox import (
    SparseTransform,
    ist_svt,
    learned_svt,
    nuclear_norm,
    soft_threshold,
    transform_adjoint,
    transform_forward,
)
from dynlr.sim import make_phantom, make_vd_mask
from dynlr.solvers import objective_slr, run_solver, tune_hyperparams

from . import costmodel
from .spans import Tracer, descendants, self_times, summarize

REPLAY_AT = 3
STEP_REPS = 3
# Steps whose cost depends on BLAS threads; they are timed again in a child
# process with one thread.
BLAS_STEPS = {
    "prox.learned_svt": learned_svt,
    "prox.ist_svt": ist_svt,
    "prox.nuclear_norm": nuclear_norm,
}
C64_BYTES = 8


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.attr = value`` for each triple; restore the originals on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def replay_iteration(call, solver, y, cfg, x, t=None, beta=None):
    """Run the iteration after ``x`` again, one public function per step.

    ``call(name, fn, *args)`` runs and times each step.  The steps follow
    the order documented by the solver: gradient ``A^H(Ax - y)`` (with the
    multiplier coupling for ``slr``), transform, soft threshold, inverse
    transform, the low-rank module at its placement, data consistency, and
    the trace's objective terms.  The arithmetic between steps belongs to no
    layer and stays in the caller's enclosing span.
    """
    mask = y.mask
    transform = SparseTransform(cfg.transform)
    placement = cfg.placement if solver == "ista-lr" else None

    def low_rank(v):
        if cfg.lr_mode == "hard":
            return call("prox.learned_svt", learned_svt, v, cfg.rank_k)
        return call("prox.ist_svt", ist_svt, v, cfg.lambda2, cfg.rho, cfg.p)

    ax = call("operators.encode", encode, x, mask)
    residual = KSpaceData(ax.data - y.data, mask)
    grad = call("operators.encode_adjoint", encode_adjoint, residual).data
    if solver == "slr":
        grad = grad + cfg.rho * (x.data + beta.data - t.data)
    r = DynamicImage(x.data - cfg.eta2 * grad)
    if placement == "L1":
        r = low_rank(r)
    z = call("prox.transform_forward", transform_forward, r, transform)
    z = call("prox.soft_threshold", soft_threshold, z, cfg.lambda1 * cfg.eta2)
    x_new = call("prox.transform_adjoint", transform_adjoint, z, transform)
    if solver == "slr":
        v = x_new.data + beta.data if cfg.t_step_input == "x_plus_beta" else x_new.data
        t_new = low_rank(DynamicImage(v))
        beta_new = DynamicImage(beta.data + cfg.eta1 * (x_new.data - t_new.data))
        call("solvers.objective_slr", objective_slr, x_new, t_new, beta_new, y, cfg)
        return
    if placement == "L2":
        x_new = low_rank(x_new)
    x_new = call("operators.data_consistency", data_consistency, x_new, y, cfg.dc_mode, cfg.dc_nu)
    if placement == "L3":
        x_new = low_rank(x_new)
    call("operators.encode", encode, x_new, mask)
    call("prox.transform_forward", transform_forward, x_new, transform)
    if solver == "ista-lr":
        call("prox.nuclear_norm", nuclear_norm, x_new)


class Instrumentation:
    """Span wrappers for one traced setup and job, plus the replay state."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.replayed = set()
        self.blas_cases = {}

    def call(self, name, fn, *args):
        if name in BLAS_STEPS and name not in self.blas_cases:
            self.blas_cases[name] = args
        return self.tracer.call(name, fn, *args)

    def replay(self, solver, y, cfg, x, t=None, beta=None):
        tracer = self.tracer
        with tracer.span("solvers.replay"):
            with tracer.span("solvers.replay.steps"):
                replay_iteration(self.call, solver, y, cfg, x, t=t, beta=beta)
            # Kernels that the steps above run inside larger public ops, and
            # the wrap cost that public ops pay and the solver loop skips.
            self.call("operators.fft2c", fft2c, x)
            self.call("operators.ifft2c", ifft2c, x)
            self.call("core.DynamicImage", DynamicImage, x.data)
            self.call("core.to_casorati", to_casorati, x)
            if solver == "slr":
                self.call("prox.nuclear_norm", nuclear_norm, t)

    def _run_solver(self, name, y, cfg, reference=None, callback=None):
        tracer = self.tracer
        with tracer.span("solvers.run_solver"):
            last = tracer.clock()

            def on_iteration(n, x, **state):
                nonlocal last
                tracer.add("solvers.iteration", last, tracer.clock())
                if n == REPLAY_AT and name not in self.replayed:
                    self.replayed.add(name)
                    self.replay(name, y, cfg, x, **state)
                if callback is not None:
                    callback(n, x, **state)
                last = tracer.clock()

            return run_solver(name, y, cfg, reference=reference, callback=on_iteration)

    def _read_cplx(self, path):
        with self.tracer.span("dataio.read_cplx"):
            volume = read_cplx(path)
        self.tracer.count("dataio.read_cplx.bytes", volume.data.size * C64_BYTES)
        return volume

    def _write_cplx(self, path, volume):
        with self.tracer.span("dataio.write_cplx"):
            write_cplx(path, volume)
        data = volume.data if isinstance(volume, DynamicImage) else np.asarray(volume)
        self.tracer.count("dataio.write_cplx.bytes", data.size * C64_BYTES)

    def _cli_main(self, argv=None):
        with self.tracer.span(f"cli.{argv[0]}"):
            return cli_main(argv)

    def replacements(self):
        """``(module, attr, wrapper)`` triples covering every layer boundary."""
        wrap = self.tracer.wrap
        tune = wrap("solvers.tune_hyperparams", tune_hyperparams)
        phantom = wrap("sim.make_phantom", make_phantom)
        vd_mask = wrap("sim.make_vd_mask", make_vd_mask)
        enc = wrap("operators.encode", encode)
        traced_psnr = wrap("metrics.psnr", psnr)
        traced_ssim = wrap("metrics.ssim", ssim)
        return [
            (solvers, "run_solver", self._run_solver),
            (cli, "run_solver", self._run_solver),
            (solvers, "tune_hyperparams", tune),
            (cli, "tune_hyperparams", tune),
            (solvers, "psnr", traced_psnr),
            (cli, "psnr", traced_psnr),
            (solvers, "ssim", traced_ssim),
            (cli, "ssim", traced_ssim),
            (dataio, "read_cplx", self._read_cplx),
            (cli, "read_cplx", self._read_cplx),
            (dataio, "write_cplx", self._write_cplx),
            (cli, "write_cplx", self._write_cplx),
            (sim, "make_phantom", phantom),
            (cli, "make_phantom", phantom),
            (sim, "make_vd_mask", vd_mask),
            (cli, "make_vd_mask", vd_mask),
            (operators, "encode", enc),
            (cli, "encode", enc),
            (operators, "encode_adjoint", wrap("operators.encode_adjoint", encode_adjoint)),
            (cli, "main", self._cli_main),
        ]


def time_steps(cases):
    """Median seconds of each BLAS-bound step over ``STEP_REPS`` calls on its recorded inputs."""
    result = {}
    for name, args in cases.items():
        samples = []
        for _ in range(STEP_REPS):
            start = time.perf_counter()
            BLAS_STEPS[name](*args)
            samples.append(time.perf_counter() - start)
        result[name] = statistics.median(samples)
    return result


def save_cases(path, cases):
    """Write recorded step inputs to an ``.npz`` file for a child process."""
    arrays, spec = {}, {}
    for name, args in cases.items():
        entries = []
        for i, arg in enumerate(args):
            if isinstance(arg, DynamicImage):
                key = f"{name}.{i}"
                arrays[key] = arg.data
                entries.append({"array": key})
            else:
                entries.append({"value": arg})
        spec[name] = entries
    np.savez(path, spec=np.array(json.dumps(spec)), **arrays)


def load_cases(path):
    """Inverse of :func:`save_cases`."""
    with np.load(path) as stored:
        spec = json.loads(str(stored["spec"]))
        return {
            name: tuple(
                DynamicImage(stored[e["array"]]) if "array" in e else e["value"] for e in entries
            )
            for name, entries in spec.items()
        }


# Kernels whose per-call median duration is reported from the traced job.
JOB_CALLS = (
    "operators.fft2c",
    "operators.ifft2c",
    "operators.encode",
    "operators.encode_adjoint",
    "operators.data_consistency",
    "prox.learned_svt",
    "prox.nuclear_norm",
    "prox.ist_svt",
    "prox.transform_forward",
    "prox.transform_adjoint",
    "prox.soft_threshold",
    "solvers.objective_slr",
    "metrics.ssim",
    "metrics.psnr",
    "core.DynamicImage",
    "core.to_casorati",
)


def _tail(values):
    """The highest percentile with at least ten samples above it (the maximum below 20)."""
    ordered = sorted(values)
    if len(ordered) < 20:
        return ordered[-1]
    return ordered[len(ordered) - 11]


def per_layer_metrics(tracer, setup, job, shape, tune, untraced_job_s, blas):
    """Per-layer metrics of one traced setup and job, as ``name -> (value, unit)``.

    ``setup`` and ``job`` are span indices; ``shape`` is the volume shape the
    job solves; ``tune`` holds the computed grid iterations and the
    prefix-distinct iterations of the job's tuner grids; ``blas`` the step
    timings at default and at one BLAS thread.  A layer that does no work
    in the job reports 0.
    """
    spans = tracer.spans
    selves = self_times(spans)
    in_job = summarize(spans, within=job)
    in_setup = summarize(spans, within=setup)
    anywhere = summarize(spans)
    job_spans = descendants(spans, job)

    def stat(stats, name, key, scale):
        return stats[name][key] * scale if name in stats else 0.0

    out = {}
    for name in JOB_CALLS:
        out[f"{name}.ms"] = (stat(in_job, name, "median_s", 1e3), "ms")
    nx, ny, nt = shape
    out["operators.fft2c.flops"] = (costmodel.fft2c_flops(nx, ny, nt), "flop")
    out["operators.fft2c.bytes"] = (costmodel.fft2c_bytes(nx, ny, nt), "B")
    svt_flops = costmodel.learned_svt_flops(nx, ny, nt) if "prox.learned_svt" in in_job else 0.0
    out["prox.learned_svt.flops"] = (svt_flops, "flop")
    for name in BLAS_STEPS:
        out[f"{name}.ms_default"] = (blas["default"].get(name, 0.0) * 1e3, "ms")
        out[f"{name}.ms_1thread"] = (blas["single"].get(name, 0.0) * 1e3, "ms")
    out["blas.threads"] = (blas["threads"], "count")
    out["blas.baseline_threads"] = (blas["baseline_threads"], "count")

    iterations = [
        spans[i].end - spans[i].start for i in job_spans if spans[i].name == "solvers.iteration"
    ]
    out["solvers.iteration.ms"] = (statistics.median(iterations) * 1e3 if iterations else 0.0, "ms")
    out["solvers.iteration.tail_ms"] = (_tail(iterations) * 1e3 if iterations else 0.0, "ms")
    out["solvers.iteration.count"] = (len(iterations), "count")
    out["solvers.run_solver.self_ms"] = (stat(in_job, "solvers.run_solver", "self_s", 1e3), "ms")

    # The replay is compared with the iterations of the solve it ran in.
    steps = [i for i in job_spans if spans[i].name == "solvers.replay.steps"]
    replay_sum = base = 0.0
    if steps:
        last = steps[-1]
        replay_sum = spans[last].end - spans[last].start - selves[last]
        solve = spans[spans[last].parent].parent
        base = statistics.median(
            s.end - s.start for s in spans if s.parent == solve and s.name == "solvers.iteration"
        )
    out["solvers.replay.sum_ms"] = (replay_sum * 1e3, "ms")
    out["solvers.replay.base_iter_ms"] = (base * 1e3, "ms")
    out["solvers.replay_gap.ms"] = ((base - replay_sum) * 1e3, "ms")
    objective = stat(in_job, "solvers.objective_slr", "median_s", 1.0)
    out["solvers.diag_share"] = (objective / base if base else 0.0, "ratio")

    tuner = "solvers.tune_hyperparams"
    out[f"{tuner}.s"] = (stat(in_job, tuner, "total_s", 1.0), "s")
    out[f"{tuner}.self_s"] = (stat(in_job, tuner, "self_s", 1.0), "s")
    out["solvers.tune.grid_iters"] = (tune["grid_iters"], "count")
    distinct = tune["distinct_iters"]
    useful = distinct / len(iterations) if distinct and iterations else 0.0
    out["solvers.tune.useful_ratio"] = (useful, "ratio")

    for name in ("dataio.read_cplx", "dataio.write_cplx"):
        out[f"{name}.ms"] = (stat(anywhere, name, "total_s", 1e3), "ms")
        out[f"{name}.bytes"] = (tracer.counts.get(f"{name}.bytes", 0.0), "B")
    out["cli.recon.s"] = (stat(in_job, "cli.recon", "total_s", 1.0), "s")
    out["cli.recon.self_s"] = (stat(in_job, "cli.recon", "self_s", 1.0), "s")
    out["cli.eval.s"] = (stat(in_job, "cli.eval", "total_s", 1.0), "s")
    out["sim.make_phantom.ms"] = (stat(in_setup, "sim.make_phantom", "median_s", 1e3), "ms")
    out["sim.make_vd_mask.ms"] = (stat(in_setup, "sim.make_vd_mask", "median_s", 1e3), "ms")

    replay_s = stat(in_job, "solvers.replay", "total_s", 1.0)
    traced_job_s = spans[job].end - spans[job].start - replay_s
    out["job.self_s"] = (selves[job], "s")
    out["trace.traced_job_s"] = (traced_job_s, "s")
    out["trace.untraced_job_s"] = (untraced_job_s, "s")
    out["trace.overhead_s"] = (traced_job_s - untraced_job_s, "s")
    return out
