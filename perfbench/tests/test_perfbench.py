"""Tests of the benchmark itself, on small instances of each workload."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dynlr import operators  # noqa: E402
from perfbench import runner  # noqa: E402
from perfbench.spans import Span, Tracer, self_times, summarize  # noqa: E402
from perfbench.workloads import CineSlr, CliHaarL3, Std64Tune  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "cine256-slr": lambda: CineSlr(32, 64, 16, iterations=4),
    "std64-tune": lambda: Std64Tune(32, 64, 16, ista_iterations=(4, 8), slr_iterations=8),
    "cli128-haar-l3": lambda: CliHaarL3(32, 64, 16, iterations=8),
}
SEED = 1


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SMALL)


@pytest.mark.parametrize("name", list(SMALL))
def test_workload_runs_untraced_and_traced(name, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "IMPORT_REPS", 1)
    workload = SMALL[name]()
    tally, metrics, _ = runner.run_untraced(workload, SEED, 0.0, tmp_path)
    assert tally.failures == [] and tally.attempted == 1
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())

    tracer = Tracer()
    tally, metrics, notes = runner.run_traced(workload, SEED, tmp_path, tracer=tracer)
    assert tally.failures == [] and tally.attempted == 2
    assert {n: u for n, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    spans = tracer.spans
    assert notes["spans"]["job"]["count"] == 1
    for span in spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    assert min(self_times(spans)) >= 0.0
    assert metrics["solvers.iteration.count"][0] > 0
    assert metrics["solvers.replay.sum_ms"][0] > 0
    assert metrics["blas.baseline_threads"][0] == 1


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the overlap counts once
        Span("c", 8.0, 12.0, 0),  # runs past root: clipped at 10
        Span("g", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0]
    below_root = summarize(spans, within=0)
    assert set(below_root) == {"a", "b", "c", "g"}
    assert below_root["a"]["self_s"] == 2.0


def test_tracer_nests_spans_by_call_structure():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("job"):
        tracer.call("layer", lambda: None)
        tracer.add("iteration", 0.5, 1.5)
    job, layer, iteration = tracer.spans
    assert (job.start, job.end) == (0.0, 3.0)
    assert (layer.start, layer.end, layer.parent) == (1.0, 2.0, 0)
    assert iteration.parent == 0
    assert self_times(tracer.spans)[0] == 3.0 - 1.0 - 0.5


def _run_job(workload, tmp_path):
    inputs = workload.setup(SEED, tmp_path)
    base = workload.baseline(inputs)
    outcome = workload.job(inputs)
    assert all(workload.checks(inputs, base, outcome).values())
    return inputs, base, outcome


def test_cine_check_rejects_a_zero_filled_image(tmp_path):
    workload = SMALL["cine256-slr"]()
    inputs, base, outcome = _run_job(workload, tmp_path)
    outcome.image = operators.encode_adjoint(inputs["y"])
    assert not workload.checks(inputs, base, outcome)["beats_zero_filled"]


def test_tune_check_rejects_swapped_solver_outputs(tmp_path):
    workload = SMALL["std64-tune"]()
    inputs, base, outcome = _run_job(workload, tmp_path)
    outcome.image, outcome.info["ista_image"] = outcome.info["ista_image"], outcome.image
    assert not workload.checks(inputs, base, outcome)["slr_over_ista"]


def test_cli_check_rejects_truncated_trace_and_worse_psnr(tmp_path):
    workload = SMALL["cli128-haar-l3"]()
    inputs, base, outcome = _run_job(workload, tmp_path)
    trace = Path(inputs["paths"]["trace"])
    trace.write_text("".join(trace.read_text().splitlines(keepends=True)[:-1]))
    outcome.psnr_db = base["zf_psnr"] - 1.0
    checks = workload.checks(inputs, base, outcome)
    assert not checks["trace_lines"] and not checks["beats_zero_filled"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "std64-tune", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
