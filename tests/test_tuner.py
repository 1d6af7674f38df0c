"""The grid tuner runs trajectories on worker processes and picks what a per-point tuner picks.

``sequential_tune`` is the tuner as it was written before trajectories and
workers: one solve per grid point, in grid order, in this process.  Every
case is run with one worker (in this process) and with two (spawned), so
both paths are covered on any machine.
"""

import itertools
import multiprocessing
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from dynlr import (
    ConfigError,
    DataError,
    DynamicImage,
    KSpaceData,
    NumericError,
    SolverConfig,
    default_config,
    encode,
    encode_adjoint,
    make_phantom,
    make_vd_mask,
    psnr,
    read_cplx,
    read_mask,
    run_solver,
    solvers,
    tune_hyperparams,
    write_cplx,
    write_mask,
)
from dynlr import core
from dynlr.cli import read_config_file, write_config_file

from test_solvers import small_problem


def sequential_tune(y, reference, search_space, solver, base=None):
    """One solve per grid point in grid order; returns ``(config, psnr)`` of the first best."""
    keys = list(search_space)
    value_lists = [list(search_space[k]) for k in keys]
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
    return best_cfg, best_psnr


@pytest.fixture(params=[1, 2], ids=["in-process", "two-workers"])
def workers(request, monkeypatch):
    """Run the tuner with this many usable CPUs; check that no worker outlives a call."""
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: request.param)
    yield request.param
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def problem():
    img, y = small_problem()
    return img, y, float(np.abs(encode_adjoint(y).data).max())


# Two slr trajectories whose objective overflows, at iteration 21 (rho 1e4) and 22 (rho 5e3).
DIVERGING = {"rho": [1e4, 5e3], "eta2": [1e4]}

CASES = {
    "unsorted-iterations-with-duplicate": (
        "ista", lambda peak: {"lambda1": [2e-3 * peak, 8e-3 * peak], "iterations": [12, 4, 30, 4]},
        SolverConfig(),
    ),
    "no-iterations-key": (
        "slr", lambda peak: {"lambda1": [1e-3 * peak, 3e-3 * peak], "rho": [0.05, 0.2]},
        SolverConfig(rank_k=2, iterations=10),
    ),
    "iterations-first-key": (
        "ista-lr", lambda peak: {"iterations": [6, 3], "placement": ["L1", "L3"]},
        SolverConfig(rank_k=2),
    ),
    "stop-before-divergence": (
        "slr", lambda peak: {**DIVERGING, "iterations": [40, 5, 20]},
        SolverConfig(rank_k=2),
    ),
    "one-trajectory-diverges": (
        "slr", lambda peak: {"rho": [1e4, 0.1], "eta2": [1e4, 1.0], "iterations": [30, 10]},
        SolverConfig(rank_k=2),
    ),
}


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("case", list(CASES))
def test_same_winner_as_sequential_tuner(problem, workers, case):
    img, y, peak = problem
    solver, space, base = CASES[case]
    space = space(peak)
    assert solvers._tune(y, img, space, solver, base) == sequential_tune(y, img, space, solver, base)


@pytest.mark.filterwarnings("ignore:overflow")
def test_all_diverged_grid_raises_error_of_last_point(problem, workers):
    img, y, _ = problem
    space = {**DIVERGING, "iterations": [60, 25]}
    base = SolverConfig(rank_k=2)
    with pytest.raises(NumericError) as ref:
        sequential_tune(y, img, space, "slr", base)
    with pytest.raises(NumericError) as err:
        tune_hyperparams(y, img, space, "slr", base=base)
    assert type(err.value) is type(ref.value)
    assert (err.value.step, err.value.iteration) == (ref.value.step, ref.value.iteration) == ("objective", 22)
    assert err.value.trace == ref.value.trace


@pytest.mark.parametrize(
    "space, match",
    [
        ({"rank_k": [2, 9], "lambda1": [0.0, 1e-3]}, "exceeds the number of frames"),
        ({"lambda1": [1e-3, -1.0], "iterations": [4, 0]}, "iterations must be a positive integer"),
        ({"iterations": [4, 2, True]}, "iterations must be a positive integer"),
    ],
    ids=["rank_k-above-nt", "earliest-error-wins", "bool-iterations"],
)
def test_config_errors_as_sequential_tuner(problem, workers, space, match):
    img, y, _ = problem
    base = SolverConfig(rank_k=2, iterations=3)
    with pytest.raises(ConfigError, match=match) as ref:
        sequential_tune(y, img, space, "slr", base)
    with pytest.raises(ConfigError) as err:
        tune_hyperparams(y, img, space, "slr", base=base)
    assert str(err.value) == str(ref.value)


@pytest.mark.parametrize(
    "space",
    [{"lambda1": [0.0, 1e-3]}, {"lambda1": [0.0, 1e-3], "iterations": [2, 1]}],
    ids=["final-stops-only", "with-shorter-stops"],
)
def test_scoring_error_raised_like_a_solve_error(problem, workers, space):
    _, y, _ = problem
    zero = DynamicImage(np.zeros(y.shape, dtype=complex))
    with pytest.raises(DataError, match="all-zero reference"):
        tune_hyperparams(y, zero, space, "ista", base=SolverConfig(iterations=2))


def test_blas_thread_variables_restored(problem, monkeypatch):
    img, y, _ = problem
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    tune_hyperparams(y, img, {"lambda1": [0.0, 1e-3]}, "ista", base=SolverConfig(iterations=2))
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert "MKL_NUM_THREADS" not in os.environ
    assert multiprocessing.active_children() == []


def test_tuner_runs_in_process_inside_a_daemonic_worker(problem):
    img, y, _ = problem
    space = {"lambda1": [0.0, 1e-3]}
    base = SolverConfig(iterations=2)
    with multiprocessing.get_context("spawn").Pool(1) as pool:  # pool workers are daemonic
        cfg = pool.apply(tune_hyperparams, (y, img, space, "ista"), {"base": base})
    assert cfg == sequential_tune(y, img, space, "ista", base)[0]


class _ExitWhenUnpickled:
    """Pickles as a call to ``os._exit``, so a worker that receives it dies."""

    def __reduce__(self):
        return (os._exit, (3,))


@pytest.mark.parametrize("dying", [0, 1])
def test_dead_worker_is_eof_error_and_all_workers_joined(problem, monkeypatch, dying):
    img, y, _ = problem
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
    jobs = [(SolverConfig(iterations=2), [2])] * 2
    jobs[dying] = (_ExitWhenUnpickled(), [2])
    with pytest.raises(EOFError):
        solvers._run_trajectories("ista", y, img, jobs)
    assert multiprocessing.active_children() == []


class _NoWorkers(Exception):
    pass


def _refuse_workers(*args, **kwargs):
    raise _NoWorkers


def test_grid_under_the_floor_starts_no_process(problem, monkeypatch):
    from concurrent.futures import process

    img, y, _ = problem
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(process, "ProcessPoolExecutor", _refuse_workers)
    space = {"lambda1": [0.0, 1e-3]}
    assert 2 * 1 * y.data.size < solvers._WORKER_FLOOR <= 2 * 2 * y.data.size
    base = SolverConfig(iterations=1)
    assert tune_hyperparams(y, img, space, "ista", base=base) == sequential_tune(y, img, space, "ista", base)[0]
    with pytest.raises(_NoWorkers):
        tune_hyperparams(y, img, space, "ista", base=SolverConfig(iterations=2))
    assert multiprocessing.active_children() == []


def _split_width_config():
    return SolverConfig(iterations=core._split_width or 9)


class _SplitWidthConfig:
    """Unpickles as a config whose ``iterations`` is the split width of the process (9 if unset)."""

    def __reduce__(self):
        return (_split_width_config, ())


def test_workers_split_on_one_thread(problem, monkeypatch):
    img, y, _ = problem
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
    jobs = [(_SplitWidthConfig(), [4])] * 2
    assert y.data.size * 4 * len(jobs) >= solvers._WORKER_FLOOR
    results = solvers._run_trajectories("ista", y, img, jobs)
    assert [(list(scores), error) for scores, error in results] == [([1], None)] * 2
    assert multiprocessing.active_children() == []


def test_worker_that_dies_starting_is_eof_error_not_a_hang():
    # A worker re-runs the parent's main script before its job; a script read
    # from stdin cannot be re-run, so each worker dies while starting.
    script = (
        "from dynlr import SolverConfig, make_phantom, make_vd_mask, encode, tune_hyperparams\n"
        "img = make_phantom(32, 32, 8, kind='rank_r_sparse', seed=2, rank=2, sparsity=2)\n"
        "y = encode(img, make_vd_mask(32, 8, 4.0, seed=4))\n"
        "try:\n"
        "    tune_hyperparams(y, img, {'lambda1': [0.0, 1e-3]}, 'ista', base=SolverConfig(iterations=2))\n"
        "except EOFError:\n"
        "    print('EOFError')\n"
    )
    result = subprocess.run(
        [sys.executable, "-"], input=script, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "EOFError\n"


def test_interrupt_terminates_the_workers(tmp_path):
    # Each worker's solve would take about 20 s; SIGINT arrives 1 s into the call.
    script = tmp_path / "interrupted_tune.py"
    script.write_text(
        "import multiprocessing, os, signal, threading, time\n"
        "from dynlr import default_config, encode, make_phantom, make_vd_mask, solvers, tune_hyperparams\n"
        "if __name__ == '__main__':\n"
        "    solvers._usable_cpus = lambda: 2\n"
        "    img = make_phantom(32, 32, 8, kind='rank_r_sparse', seed=2, rank=2, sparsity=2)\n"
        "    y = encode(img, make_vd_mask(32, 8, 4.0, seed=4))\n"
        "    base = default_config(y, rank_k=2, iterations=30000)\n"
        "    started = time.perf_counter()\n"
        "    threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT)).start()\n"
        "    try:\n"
        "        tune_hyperparams(y, img, {'lambda1': [0.0, 1e-3]}, 'slr', base=base)\n"
        "    except KeyboardInterrupt:\n"
        "        print(time.perf_counter() - started, multiprocessing.active_children())\n"
    )
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    seconds, children = result.stdout.split(maxsplit=1)
    assert children == "[]\n"
    assert 1.0 <= float(seconds) < 5.0


@pytest.mark.filterwarnings("ignore:overflow")
def test_numeric_error_survives_pickling():
    _, y = small_problem()
    with pytest.raises(NumericError) as err:
        run_solver("slr", y, SolverConfig(rank_k=2, iterations=30, **{k: v[0] for k, v in DIVERGING.items()}))
    copy = pickle.loads(pickle.dumps(err.value))
    assert type(copy) is NumericError
    assert str(copy) == str(err.value)
    assert (copy.step, copy.iteration) == (err.value.step, err.value.iteration) == ("objective", 21)
    assert copy.trace == err.value.trace
    assert len(copy.trace) == 20


def test_cli_tune_in_subprocess_writes_reference_config(tmp_path):
    img = make_phantom(16, 16, 8, kind="rank_r_sparse", seed=1, rank=1, sparsity=1)
    mask = make_vd_mask(16, 8, 2.0, seed=3)
    write_cplx(str(tmp_path / "p"), img)
    write_mask(str(tmp_path / "m"), mask)
    write_cplx(str(tmp_path / "y"), encode(img, mask).data)
    # The files hold float32, so the reference tunes what the command reads.
    img = read_cplx(str(tmp_path / "p"))
    y = KSpaceData(read_cplx(str(tmp_path / "y")).data, read_mask(str(tmp_path / "m")))
    out = tmp_path / "cfg.txt"
    result = subprocess.run(
        [
            sys.executable, "-m", "dynlr", "tune", "--ksp", str(tmp_path / "y"),
            "--mask", str(tmp_path / "m"), "--ref", str(tmp_path / "p"), "--solver", "ista",
            "--grid", "lambda1=0.001,0.01;iterations=6,3", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    ref_cfg, ref_score = sequential_tune(
        y, img, {"lambda1": [0.001, 0.01], "iterations": [6, 3]}, "ista"
    )
    write_config_file(tmp_path / "ref.txt", ref_cfg)
    assert out.read_text() == (tmp_path / "ref.txt").read_text()
    assert read_config_file(out)["iterations"] in (3, 6)
    assert result.stdout == f"wrote {out}\nbest psnr: {ref_score:.4f}\n"


def test_import_leaves_scipy_ndimage_unloaded():
    probe = "import sys, dynlr; print('scipy.ndimage' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120
    )
    assert result.stdout.strip() == "False"
