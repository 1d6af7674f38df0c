"""Child process: time the recorded BLAS-bound steps with one BLAS thread.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/single_thread.py CASES.npz

The thread variables must be set before numpy loads, which is why this runs
in its own process.  Prints one JSON line with the thread count OpenBLAS
reports and the median seconds of each step.
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.layers import load_cases, time_steps
    from perfbench.provenance import blas_threads

    seconds = time_steps(load_cases(sys.argv[1]))
    print(json.dumps({"threads": blas_threads(), "seconds": seconds}))
