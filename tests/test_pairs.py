"""The pair runner, ``tools/pairs.py``: its table of a committed record, and the record it writes."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pairs.py"

# The final table of BENCH_28.json, as CHANGES.md gives it.
BENCH_28_TABLE = """\
| workload | metric | parent | change | Δ | better |
|---|---|---|---|---|---|
| cine256-slr | peak_rss_mb | 275.5 [275.4, 275.6] | 244.1 [244.1, 244.2] | −11.4% | 10/10 |
| cine256-slr | job_s | 1.084 [1.012, 1.199] | 1.080 [1.053, 1.158] | −0.4% | 6/10 |
| cine256-slr | iter_ms | 176.04 [164.08, 194.53] | 174.32 [169.77, 187.36] | −1.0% | 6/10 |
| cine256-slr | setup_s | 0.354 [0.299, 0.428] | 0.376 [0.334, 0.421] | +6.1% | 6/10 |
| cli128-haar-l3 | peak_rss_mb | 110.3 [110.2, 110.6] | 110.8 [110.8, 110.9] | +0.4% | 2/10 |
| cli128-haar-l3 | job_s | 1.187 [1.146, 1.230] | 1.134 [1.029, 1.191] | −4.4% | 7/10 |
| cli128-haar-l3 | iter_ms | 55.12 [53.15, 57.09] | 53.39 [48.58, 56.01] | −3.1% | 6/10 |
| cli128-haar-l3 | setup_s | 0.208 [0.187, 0.241] | 0.237 [0.221, 0.244] | +14.3% | 3/10 |
| std64-tune | peak_rss_mb | 75.5 [75.5, 75.5] | 75.7 [75.6, 75.8] | +0.2% | 2/10 |
| std64-tune | job_s | 3.845 [3.792, 4.103] | 3.607 [3.419, 3.952] | −6.2% | 7/10 |
| std64-tune | iter_ms | 4.01 [3.95, 4.27] | 3.76 [3.56, 4.12] | −6.2% | 7/10 |
| std64-tune | setup_s | 0.146 [0.128, 0.171] | 0.129 [0.119, 0.144] | −11.1% | 7/10 |
Identical on both sides in every pair: cine256-slr psnr_db 31.222845401215302; \
cli128-haar-l3 psnr_db 27.772467; std64-tune psnr_db 33.66149489628789.
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table_of_bench_28_reproduces_its_changes_entry():
    done = subprocess.run([sys.executable, str(TOOL), "--table", str(ROOT / "BENCH_28.json")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == BENCH_28_TABLE


def test_pairs_alternate_and_the_record_has_the_schema(tmp_path, monkeypatch):
    pairs = load_tool()
    calls = []

    def fake_side(tree, workload, seed):
        side = tree.name
        calls.append((workload, side))
        value = {"parent": 2.0, "change": 1.0}[side] + len(calls) * 1e-3
        metrics = {name: {"value": value, "unit": "s"} for name in ("setup_s", "job_s", "iter_ms", "peak_rss_mb")}
        metrics["psnr_db"] = {"value": 30.0, "unit": "dB"}
        provenance = {"nproc": len(calls), "cpus_usable": 2, "cpu": "CPU", "python": "3", "numpy": "2",
                      "scipy": "1", "blas": {"name": "blas", "version": "0"}}
        return provenance, {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(pairs, "_git", lambda *args: "0" * 40)  # rev-parse of the parent
    monkeypatch.setattr(pairs, "extract", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(pairs, "run_side", fake_side)
    out = tmp_path / "BENCH.json"
    pairs.main(["PARENT", "--change", "CHANGE", "--pairs", "3", "--workload", "std64-tune", "cine256-slr",
                "--out", str(out), "--claim", "cine256-slr job_s falls"])
    record = json.loads(out.read_text())
    assert list(record) == ["command", "parent", "order", "machine", "claim", "runs"]
    assert record["parent"] == "0" * 40 and record["runs"][0]["seed"] == 0
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert record["command"].endswith(f"--seconds {run_seconds:g} --trace 0")
    assert record["machine"] == "1 CPUs, 2 usable (CPU), Python 3, numpy 2, scipy 1, BLAS blas 0"  # the first run's
    series = record["runs"][0]["series"]
    assert list(series) == ["std64-tune", "cine256-slr"]
    assert [p["first"] for p in series["std64-tune"]] == ["parent", "change", "parent"]
    assert [side for _, side in calls[:6]] == ["parent", "change", "change", "parent", "parent", "change"]
    lines = pairs.table(record)
    assert lines[2].startswith("| std64-tune | job_s |") and lines[2].endswith("| 3/3 |")
    assert lines[-1] == "Identical on both sides in every pair: std64-tune psnr_db 30.0; cine256-slr psnr_db 30.0."


def test_the_default_run_covers_every_benchmark_workload(tmp_path, monkeypatch):
    pairs = load_tool()
    seen = []
    monkeypatch.setattr(pairs, "run_pairs", lambda args: seen.extend(args.workload))
    pairs.main(["PARENT", "--out", str(tmp_path / "BENCH.json")])
    assert seen == [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
