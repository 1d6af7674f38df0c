"""What a result was measured on: code, inputs, machine and libraries."""

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np
import scipy

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be read."""
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
        for symbol in _THREAD_SYMBOLS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _blas_library():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_rev(root):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest(root):
    """SHA-256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "dynlr").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine()


def _l3_cache():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def provenance(root, workload, seed, trace):
    return {
        "git_rev": _git_rev(root),
        "src_sha256": _source_digest(root),
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "sizes": workload.sizes(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "l3_cache": _l3_cache(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_library(),
        "blas_threads": blas_threads(),
    }
