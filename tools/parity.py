"""Hash a fixed matrix of solves and operator calls to JSON, and compare two such records.

    python tools/parity.py record OUT.json [--src DIR] [--big] [--match TEXT]
                                           [--split-width N] [--blas-threads N]
    python tools/parity.py compare A.json B.json

``record`` runs the matrix with the ``dynlr`` under ``DIR`` (default: this
repository's ``src``), so that two trees can be recorded with one script.
Per solve it keeps the SHA-256 of the final image, of each callback state
over all iterations and of the metrics against the phantom, each trace
field's values, and the step and iteration of a ``NumericError`` with the
records before it.  The matrix:

* ``slr``: hard/soft x both low-rank step inputs x both transforms;
* ``ista``: both data-consistency modes x both transforms;
* ``ista-lr``: L1/L2/L3 x hard/soft x both data-consistency modes;

on 64x64x16, 129x67x32 (above the row split's floor, and no whole number
of slabs) and 128x128x32, and with ``--big`` ``slr`` hard/soft on
256x256x32; then a fixed list of diverging configs, the public operators,
``default_config`` and the metrics on C- and F-ordered volumes.
``--match`` keeps the entries whose label contains ``TEXT``.
``--split-width`` and ``--blas-threads`` set the row split's width and the
BLAS thread-count variables before anything is imported.

``compare`` prints each entry that is in one record only or whose values
differ, with the largest relative move of each differing field: exact for
scalars, and over a fixed sample of 4096 elements for arrays (marked
``sampled``).  It exits with 1 if anything differs, else 0.  Records are
comparable only when made with the same numpy, BLAS and CPU kernels.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SAMPLE = 4096

STANDARD, ODD, MID, BIG = (64, 64, 16), (129, 67, 32), (128, 128, 32), (256, 256, 32)
ITERATIONS = {STANDARD: 12, ODD: 5, MID: 5, BIG: 3}


def _label(shape, *parts):
    return " ".join(["x".join(map(str, shape)), *parts])


def solve_matrix(big):
    """``(label, shape, solver, overrides)`` of every solve, in record order."""
    transforms = ("temporal_fourier", "temporal_haar")
    weighted = {"dc_mode": "weighted", "dc_nu": 4.0}
    runs = []
    for shape in (STANDARD, ODD, MID):
        for mode in ("hard", "soft"):
            for step_input in ("x_plus_beta", "x"):
                for kind in transforms:
                    kw = {"lr_mode": mode, "t_step_input": step_input, "transform": kind}
                    runs.append((_label(shape, "slr", mode, step_input, kind), shape, "slr", kw))
        for dc in ({}, weighted):
            for kind in transforms:
                kw = {"transform": kind, **dc}
                runs.append((_label(shape, "ista", dc.get("dc_mode", "replace"), kind), shape, "ista", kw))
        for placement in ("L1", "L2", "L3"):
            for mode in ("hard", "soft"):
                for dc in ({}, weighted):
                    kw = {"placement": placement, "lr_mode": mode, **dc}
                    label = _label(shape, "ista-lr", placement, mode, dc.get("dc_mode", "replace"))
                    runs.append((label, shape, "ista-lr", kw))
    if big:
        for mode in ("hard", "soft"):
            runs.append((_label(BIG, "slr", mode), BIG, "slr", {"lr_mode": mode}))
    return runs


def failure_matrix():
    """``(label, shape, solver, config fields)`` of solves that end in a ``NumericError``."""
    sparse = {"rank_k": 2, "iterations": 60, "eta2": 1e6, "dc_mode": "weighted", "dc_nu": 0.0}
    return [
        (_label(STANDARD, "fail ista objective"), STANDARD, "ista", sparse),
        (_label(STANDARD, "fail ista-lr L3 objective"), STANDARD, "ista-lr", {**sparse, "placement": "L3"}),
        (_label(STANDARD, "fail slr objective"), STANDARD, "slr",
         {"rho": 1e4, "eta2": 1e4, "rank_k": 2, "iterations": 50}),
        (_label(STANDARD, "fail slr gradient"), STANDARD, "slr",
         {"rho": 10.0, "eta2": 1.5e308, "rank_k": 2, "iterations": 5}),
        (_label(ODD, "fail slr gradient"), ODD, "slr",
         {"rho": 10.0, "eta2": 2e307, "lambda1": 1e-3, "rank_k": 2, "iterations": 3}),
        (_label(ODD, "fail slr sparse"), ODD, "slr",
         {"rho": 10.0, "eta2": 1e307, "lambda1": 1e-3, "rank_k": 2, "iterations": 3}),
        (_label(ODD, "fail slr low-rank"), ODD, "slr",
         {"rho": 1.0, "eta2": 1e306, "lambda1": 1e-3, "rank_k": 2, "iterations": 3}),
        (_label(ODD, "fail slr multiplier"), ODD, "slr", {"rho": 1.0, "eta1": 1e300, "rank_k": 2, "iterations": 5}),
    ]


class Recorder:
    """The entries of one record, made with the ``dynlr`` that ``main`` imported."""

    def __init__(self, np, dynlr):
        self.np, self.dynlr = np, dynlr
        self.entries = {}
        self._problems = {}

    def problem(self, shape):
        if shape not in self._problems:
            nx, ny, nt = shape
            d = self.dynlr
            img = d.make_phantom(nx, ny, nt, kind="rank_r_sparse", seed=21, rank=2, sparsity=2)
            self._problems[shape] = (img, d.encode(img, d.make_vd_mask(ny, nt, 8.0, seed=13)))
        return self._problems[shape]

    def array(self, arr):
        """The hash of ``arr`` and a fixed sample of it, for relative moves."""
        np = self.np
        flat = np.ascontiguousarray(arr).reshape(-1)
        picks = np.linspace(0, flat.size - 1, min(SAMPLE, flat.size)).astype(np.int64)
        sample = flat[picks]
        return {
            "sha": hashlib.sha256(flat.tobytes()).hexdigest(),
            "sample": [[float(v.real), float(v.imag)] for v in sample],
        }

    def stream(self, arrays):
        """One hash over a sequence of arrays, such as a callback state at every iteration."""
        h = hashlib.sha256()
        for arr in arrays:
            h.update(self.np.ascontiguousarray(arr).tobytes())
        return {"sha": h.hexdigest(), "count": len(arrays)}

    def solve(self, label, shape, solver, overrides=None, fields=None):
        d = self.dynlr
        img, y = self.problem(shape)
        if fields is None:
            cfg = d.default_config(y, rank_k=2, iterations=ITERATIONS[shape], **overrides)
        else:
            cfg = d.SolverConfig(**fields)
        states = {}

        def callback(n, x, **extra):
            for name, vol in {"x": x, **extra}.items():
                states.setdefault(name, []).append(vol.data.copy())

        entry = {}
        try:
            report = d.run_solver(solver, y, cfg, reference=img, callback=callback)
        except d.NumericError as exc:
            entry["error"] = [exc.step, exc.iteration]
            trace = exc.trace
        else:
            entry["image"] = self.array(report.image.data)
            entry["metrics"] = {k: float(v) for k, v in sorted(report.metrics.items())}
            trace = report.trace
        for field in ("objective", "data_fidelity", "sparse_term", "nuclear_term", "rel_change", "split_gap"):
            entry[field] = [getattr(r, field) for r in trace]
        for name, vols in sorted(states.items()):
            entry["state " + name] = self.stream(vols)
        self.entries[label] = entry

    def operators(self, shape):
        np, d = self.np, self.dynlr
        img, y = self.problem(shape)
        f_img = d.DynamicImage(np.asfortranarray(img.data))
        entry = {}
        for order, vol in (("C", img), ("F", f_img)):
            entry[f"fft2c {order}"] = self.array(d.fft2c(vol).data)
            entry[f"ifft2c {order}"] = self.array(d.ifft2c(vol).data)
        entry["encode"] = self.array(d.encode(img, y.mask).data)
        zero_filled = d.encode_adjoint(y)
        entry["encode_adjoint"] = self.array(zero_filled.data)
        entry["data_consistency replace"] = self.array(d.data_consistency(zero_filled, y).data)
        entry["data_consistency weighted"] = self.array(d.data_consistency(img, y, "weighted", 4.0).data)
        entry["nuclear_norm"] = [d.nuclear_norm(img)]
        entry["casorati_rank"] = [d.casorati_rank(img)]
        entry["default_config lambda1"] = [d.default_config(y).lambda1]
        f_zero = d.DynamicImage(np.asfortranarray(zero_filled.data))
        for name, (ref, rec) in {"C/C": (img, zero_filled), "F/F": (f_img, f_zero), "F/C": (f_img, zero_filled),
                                 "C/F": (img, f_zero)}.items():
            entry[f"mse {name}"] = [d.mse(ref, rec)]
            entry[f"psnr {name}"] = [d.psnr(ref, rec)]
        self.entries[_label(shape, "operators")] = entry


def record(args):
    if args.blas_threads is not None:
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, str(args.blas_threads)))
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    import dynlr
    from dynlr import core

    if not Path(dynlr.__file__).resolve().is_relative_to(src):
        sys.exit(f"parity: imported dynlr from {dynlr.__file__}, not from {src}")
    if args.split_width is not None:
        core._set_split_width(args.split_width)
    rec = Recorder(np, dynlr)

    def wanted(label):
        return args.match is None or args.match in label

    with np.errstate(over="ignore", invalid="ignore"):
        for label, shape, solver, overrides in solve_matrix(args.big):
            if wanted(label):
                rec.solve(label, shape, solver, overrides)
        for label, shape, solver, fields in failure_matrix():
            if wanted(label):
                rec.solve(label, shape, solver, fields=fields)
        for shape in (STANDARD, ODD, MID):
            if wanted(_label(shape, "operators")):
                rec.operators(shape)
    out = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "processor": platform.machine(),
        },
        "settings": {"split_width": args.split_width, "blas_threads": args.blas_threads, "src": str(src)},
        "entries": rec.entries,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"parity: {len(rec.entries)} entries to {args.out}")


def _relative_move(a, b):
    """The largest ``|a - b| / |a|`` over paired values; ``|a - b|`` where ``a`` is 0; inf for a NaN against a number."""
    worst = 0.0
    for u, v in zip(a, b):
        u, v = (complex(*p) if isinstance(p, list) else p for p in (u, v))
        if u == v or (u != u and v != v):
            continue
        diff = abs(u - v)
        move = diff / abs(u) if u != 0 else diff
        worst = max(worst, move if move == move else math.inf)
    return worst


def _field_difference(a, b):
    """None if the two values of a field agree, else a short description of how they differ."""
    if a == b:
        return None
    if isinstance(a, dict) and "sha" in a and isinstance(b, dict) and "sha" in b:
        if a["sha"] == b["sha"]:
            return None
        if "sample" in a and "sample" in b:
            return f"hash differs, sampled move {_relative_move(a['sample'], b['sample']):.3g}"
        return "hash differs"
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"length {len(a)} against {len(b)}"
        if all(isinstance(v, (int, float)) for v in a + b):
            return f"move {_relative_move(a, b):.3g}"
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return f"move {_relative_move(list(a.values()), list(b.values())):.3g}"
    return f"{a!r} against {b!r}"


def compare(args):
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    if a["machine"] != b["machine"]:
        print(f"note: the records come from different machines: {a['machine']} against {b['machine']}")
    differ = 0
    ea, eb = a["entries"], b["entries"]
    for label in list(ea) + [label for label in eb if label not in ea]:
        if label not in ea or label not in eb:
            print(f"{label}: only in {'A' if label in ea else 'B'}")
            differ += 1
            continue
        fields = list(ea[label]) + [f for f in eb[label] if f not in ea[label]]
        for field in fields:
            how = _field_difference(ea[label].get(field), eb[label].get(field))
            if how is not None:
                print(f"{label} | {field}: {how}")
                differ += 1
    print(f"parity: {differ} differences over {len(set(ea) | set(eb))} entries")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the matrix and write a record")
    rec.add_argument("out")
    rec.add_argument("--src", default=str(ROOT / "src"), help="the directory that holds the dynlr package")
    rec.add_argument("--big", action="store_true", help="add slr on 256x256x32")
    rec.add_argument("--match", help="keep only the entries whose label contains this text")
    rec.add_argument("--split-width", type=int, help="threads per split pass")
    rec.add_argument("--blas-threads", type=int, help="the BLAS thread-count variables")
    cmp_ = sub.add_parser("compare", help="print the entries in which two records differ")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
