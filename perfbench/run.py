"""Benchmark runner: one workload in one process, one JSON result on the last line.

    python3 perfbench/run.py --workload cine256-slr --seed 0 --seconds 30 --trace 0

``--trace 0`` sets up the inputs several times (reporting the median plus
the import time of the package), then runs jobs back to back until
``--seconds`` have passed and reports the end-to-end metrics.  ``--trace 1``
runs one untraced job and one traced job and reports the per-layer metrics;
``--seconds`` does not apply to it.  Every job's outputs are checked, and a
job that raises or fails a check counts as failed.

Lines before the last are for people: provenance, a metric table and any
failures.  The last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_package():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import dynlr
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dynlr from {ROOT / 'src'}: {exc}")
    if not Path(dynlr.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: imported dynlr from {dynlr.__file__}, not from {ROOT / 'src'}")


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that child processes are reaped and the
    # temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_package()

    from perfbench.provenance import provenance
    from perfbench.runner import run_traced, run_untraced
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(provenance(ROOT, workload, args.seed, args.trace)))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            tally, metrics, notes = run_traced(workload, args.seed, Path(tmp))
        else:
            tally, metrics, notes = run_untraced(workload, args.seed, args.seconds, Path(tmp))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"  {'fail_frac':<40} {len(tally.failures) / tally.attempted:>16.6g} "
          f"({len(tally.failures)}/{tally.attempted})")
    print("notes " + json.dumps(notes))
    for failure in tally.failures:
        print("FAILED: " + failure.strip().replace("\n", "\n    "))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
