"""Run one workload untraced (end-to-end metrics) or traced (per-layer metrics)."""

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .layers import Instrumentation, patched, per_layer_metrics, save_cases, time_steps
from .provenance import blas_threads
from .spans import Tracer, summarize

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPS = 3
IMPORT_REPS = 5
CHILD_TIMEOUT_S = 150
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import dynlr; print(time.perf_counter() - start)"
)


@dataclass
class Tally:
    """Jobs attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def run(self, job, inputs):
        """Run one job; return ``(outcome, seconds)``, outcome None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = job(inputs)
        except Exception:  # a failed job is counted, and the run goes on
            self.failures.append(traceback.format_exc(limit=3))
            outcome = None
        return outcome, time.perf_counter() - start

    def judge(self, workload, inputs, base, outcome):
        """Return the outcome if every check passes, else record the failure and return None."""
        if outcome is None:
            return None
        try:
            checks = workload.checks(inputs, base, outcome)
        except Exception:  # an output the checks cannot read is a failed output
            self.failures.append(traceback.format_exc(limit=3))
            return None
        failed = sorted(name for name, ok in checks.items() if not ok)
        if failed:
            self.failures.append(f"checks failed: {', '.join(failed)}")
            return None
        return outcome


def import_seconds():
    """Wall times of ``import dynlr`` in ``IMPORT_REPS`` fresh interpreters."""
    samples = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout))
    return samples


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def run_untraced(workload, seed, seconds, workdir):
    """Set up ``SETUP_REPS`` times, then run jobs for ``seconds``.

    A job is started only while it is expected, by the median of the jobs so
    far, to end within ``seconds``; at least one job always runs.

    Returns ``(tally, metrics, notes)``; metrics map name -> (value, unit).
    """
    imports = import_seconds()
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - start)
    base = workload.baseline(inputs)

    tally = Tally()
    durations, jobs, iter_ms, psnrs = [], [], [], []
    started = time.perf_counter()
    while not durations or (
        time.perf_counter() - started + statistics.median(durations) <= seconds
    ):
        outcome, job_s = tally.run(workload.job, inputs)
        durations.append(job_s)
        if tally.judge(workload, inputs, base, outcome) is not None:
            jobs.append(job_s)
            iter_ms.append(1e3 * outcome.solver_s / outcome.iterations)
            psnrs.append(outcome.psnr_db)
    ok = bool(jobs)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "job_s": (statistics.median(jobs) if ok else 0.0, "s"),
        "iter_ms": (statistics.median(iter_ms) if ok else 0.0, "ms"),
        "psnr_db": (statistics.median(psnrs) if ok else 0.0, "dB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    q1, q3 = _quartiles(jobs) if ok else (0.0, 0.0)
    notes = {
        "import_s": imports,
        "setup_reps_s": setups,
        "job_s_q1": q1,
        "job_s_q3": q3,
        "job_samples": len(jobs),
        "jobs_s": durations,
    }
    return tally, metrics, notes


def single_thread_timings(cases, workdir):
    """Time the recorded BLAS steps in a child process limited to one BLAS thread."""
    if not cases:
        return {}, None
    path = workdir / "blas_cases.npz"
    save_cases(path, cases)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "single_thread.py"), str(path)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    path.unlink()
    result = json.loads(done.stdout.splitlines()[-1])
    return result["seconds"], result["threads"]


def run_traced(workload, seed, workdir, tracer=None):
    """One untraced job as the overhead base, then one traced setup and job.

    Returns ``(tally, metrics, notes)`` with the per-layer metrics; the notes
    hold count, total and self seconds per span name.
    """
    tally = Tally()
    inputs = workload.setup(seed, workdir)
    base = workload.baseline(inputs)
    outcome, untraced_job_s = tally.run(workload.job, inputs)
    tally.judge(workload, inputs, base, outcome)

    tracer = tracer or Tracer()
    instrumentation = Instrumentation(tracer)
    with patched(instrumentation.replacements()):
        with tracer.span("setup") as setup:
            inputs = workload.setup(seed, workdir)
        with tracer.span("job") as job:
            outcome, _ = tally.run(workload.job, inputs)
    tally.judge(workload, inputs, base, outcome)

    cases = instrumentation.blas_cases
    single, baseline_threads = single_thread_timings(cases, workdir)
    blas = {
        "threads": blas_threads() or 0,
        "baseline_threads": baseline_threads or 0,
        "default": time_steps(cases),
        "single": single,
    }
    metrics = per_layer_metrics(
        tracer, setup, job, workload.shape, workload.tune, untraced_job_s, blas
    )
    spans = {
        name: {key: stats[key] for key in ("count", "total_s", "self_s")}
        for name, stats in summarize(tracer.spans).items()
    }
    return tally, metrics, {"spans": spans}
