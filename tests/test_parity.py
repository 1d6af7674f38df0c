"""The parity harness, ``tools/parity.py``, on one small solve."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
ONE_SOLVE = "64x64x16 slr soft x_plus_beta temporal_haar"


def parity(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=300)


def test_a_solve_recorded_twice_does_not_differ(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert parity("record", out, "--match", ONE_SOLVE).returncode == 0
    entries = json.loads(a.read_text())["entries"]
    assert list(entries) == [ONE_SOLVE]
    assert {"image", "metrics", "objective", "split_gap", "state x", "state t", "state beta"} <= set(entries[ONE_SOLVE])
    result = parity("compare", a, b)
    assert result.returncode == 0
    assert "parity: 0 differences over 1 entries" in result.stdout

    record = json.loads(b.read_text())
    record["entries"][ONE_SOLVE]["objective"][-1] *= 1 + 2.0**-40
    b.write_text(json.dumps(record))
    result = parity("compare", a, b)
    assert result.returncode == 1
    line = f"{ONE_SOLVE} | objective: move "
    assert line in result.stdout
    move = float(result.stdout.split(line)[1].split()[0])
    assert abs(move - 2.0**-40) <= 0.01 * 2.0**-40
