"""Run alternating parent/change pairs of ``perfbench/run.py``, and summarise such a record.

    python tools/pairs.py PARENT_REV [--change REV] [--pairs N] [--seed S] [--workload W ...]
                          [--out BENCH.json] [--claim TEXT] [--name TEXT] [--tree TEXT]
    python tools/pairs.py --table BENCH.json [--run NAME]

The first form extracts the two trees with ``git archive REV | tar -x``
into a temporary directory: ``PARENT_REV``, and ``--change`` (default: the
working tree's tracked files, staged new files included, through ``git
stash create``, which changes no ref and no file).  For each workload of
``BENCHMARK.json`` (or of those, the ``--workload`` ones), one at a time, it
runs ``--pairs`` pairs of ``python3 perfbench/run.py --workload W --seed S
--seconds SEC --trace 0``, with ``BENCHMARK.json``'s ``run_seconds``, each
pair's two runs back to back, the parent first in pairs 1, 3, 5, ... and
the change first in the others.  Each run starts in its own tree, without
``PYTHONPATH``.  It writes the record (``command``, ``parent``, ``order``,
``machine``: from the ``provenance`` line of the first run, ``claim``,
and ``runs``: one run of ``name``, ``tree``, ``seed`` and ``series``, each
workload's list of ``{"pair", "first", "parent", "change"}`` with the last
JSON line of each side) to ``--out``, then prints its table.  If ``--out``
exists, it must have the same parent and command, and the run is added to
its runs under a new ``--name``.

``--table`` prints the table of one run of a record (default: the last):
for each workload and end-to-end metric of ``BENCHMARK.json``, the median
[inclusive quartiles] of each side, the change of the median in percent,
and the number of pairs in which the change was better.  The claimed
metric comes first; a metric with the same value on both sides in every
pair is named below the table instead of getting a row.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # perfbench.runner imports dynlr

from perfbench.runner import _quartiles  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = f"python3 perfbench/run.py --workload W --seed S --seconds {BENCHMARK['run_seconds']:g} --trace 0"
ORDER = ("peak_rss_mb", "job_s", "iter_ms", "setup_s", "psnr_db")  # table rows, after the claimed metric
DECIMALS = {"MB": 1, "s": 3, "ms": 2, "dB": 6}


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev, dest):
    """Write the tree of ``rev`` into the new directory ``dest`` with ``git archive | tar -x``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"pairs: git archive {rev} failed")


def machine(provenance):
    """The machine and library part of a ``perfbench/run.py`` run's ``provenance`` line, as text."""
    blas = provenance.get("blas") or {}
    return (f"{provenance['nproc']} CPUs, {provenance['cpus_usable']} usable ({provenance['cpu']}), "
            f"Python {provenance['python']}, numpy {provenance['numpy']}, scipy {provenance['scipy']}, "
            f"BLAS {blas.get('name')} {blas.get('version')}")


def run_side(tree, workload, seed):
    """The ``provenance`` line and the last line of one ``perfbench/run.py`` run in ``tree``, as dicts."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{BENCHMARK['run_seconds']:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"pairs: {' '.join(command)} in {tree} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance "))
    return provenance, json.loads(lines[-1])


def run_pairs(args):
    metric = next((m for m in args.claim.split() if m in ORDER), "job_s")  # printed after each pair
    parent = _git("rev-parse", args.parent)
    change = args.change or _git("stash", "create") or "HEAD"
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        extract(parent, trees["parent"])
        extract(change, trees["change"])
        series, provenance = {}, None
        for workload in args.workload:
            series[workload] = []
            for pair in range(1, args.pairs + 1):
                first = "parent" if pair % 2 else "change"
                sides = (first, "change" if first == "parent" else "parent")
                results = {}
                for side in sides:
                    seen, results[side] = run_side(trees[side], workload, args.seed)
                    provenance = provenance or seen
                series[workload].append({"pair": pair, "first": first, **{s: results[s] for s in ("parent", "change")}})
                print(f"{workload} pair {pair}: " + ", ".join(
                    f"{side} {results[side]['metrics'][metric]['value']}" for side in sides), flush=True)
    run = {"name": args.name, "tree": args.tree, "seed": args.seed, "series": series}
    out = Path(args.out)
    if out.exists():  # a further batch against the same parent
        record = json.loads(out.read_text())
        if record["parent"] != parent or record["command"] != COMMAND or any(
                r["name"] == args.name for r in record["runs"]):
            sys.exit(f"pairs: {out} has another parent, another command or a run named {args.name!r}")
        record["runs"].append(run)
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"pairs: added run {args.name!r} to {out}")
        print("\n".join(table(record, args.name)))
        return
    record = {
        "command": COMMAND,
        "parent": parent,
        "order": (
            "alternating pairs: the parent runs first in pairs 1, 3, 5, ... of each workload and the change "
            "first in the others; one workload at a time, each pair's two runs back to back; each side in its "
            "own tree from git archive, without .git and without PYTHONPATH; each run's seed is its 'seed', and "
            "its workloads run in the order of its 'series'"
        ),
        "machine": machine(provenance),
        "claim": args.claim or None,
        "runs": [run],
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"pairs: wrote {args.out}")
    print("\n".join(table(record, args.name)))


def table(record, name=None):
    """The table lines of the run ``name`` of ``record`` (None: its last run)."""
    runs = record["runs"]
    run = runs[-1] if name is None else next(r for r in runs if r["name"] == name)
    end_to_end = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    claim = (record.get("claim") or "").split()
    order = [m for m in claim if m in end_to_end] + [m for m in ORDER if m in end_to_end and m not in claim]
    lines = ["| workload | metric | parent | change | Δ | better |", "|---|---|---|---|---|---|"]
    same = []
    for workload, pairs in run["series"].items():
        for metric in order:
            values = {side: [p[side]["metrics"][metric]["value"] for p in pairs] for side in ("parent", "change")}
            if values["parent"] == values["change"]:
                same.append(f"{workload} {metric} {values['parent'][0]!r}" if len(set(values["parent"])) == 1
                            else f"{workload} {metric}")
                continue
            digits = DECIMALS.get(end_to_end[metric]["unit"], 3)
            medians = [statistics.median(values[side]) for side in ("parent", "change")]
            quartiles = [_quartiles(values[side]) for side in ("parent", "change")]
            cells = [f"{m:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]" for m, (q1, q3) in zip(medians, quartiles)]
            base, new = medians
            delta = (new - base) / base * 100 if base else float("nan")
            sign = "−" if delta < 0 else "+"
            lower = end_to_end[metric]["better"] == "lower"
            better = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
            lines.append(f"| {workload} | {metric} | {cells[0]} | {cells[1]} | {sign}{abs(delta):.1f}% "
                         f"| {better}/{len(pairs)} |")
    if same:
        lines.append("Identical on both sides in every pair: " + "; ".join(same) + ".")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", metavar="PARENT_REV", help="the parent revision")
    parser.add_argument("--table", metavar="BENCH.json", help="print the table of a record and run nothing")
    parser.add_argument("--run", help="with --table: the run's name (default: the last run)")
    parser.add_argument("--change", help="the change's revision (default: the working tree's tracked files)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    parser.add_argument("--workload", nargs="+", choices=workloads, default=workloads,
                        help="a subset of BENCHMARK.json's workloads (default: all)")
    parser.add_argument("--out", default="BENCH.json")
    parser.add_argument("--claim", default="", help='e.g. "cine256-slr peak_rss_mb falls"')
    parser.add_argument("--name", default="seed0", help="the run's name in the record")
    parser.add_argument("--tree", default="the change", help="what the change tree is, and any note on the host")
    args = parser.parse_args(argv)
    if args.table:
        print("\n".join(table(json.loads(Path(args.table).read_text()), args.run)))
    elif args.parent:
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        run_pairs(args)
    else:
        parser.error("give PARENT_REV, or --table BENCH.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
