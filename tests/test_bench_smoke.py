"""One traced round of the interval-sweeps and field-betti benchmarks runs
clean.

The tracer wraps the CM sweep's ``_interval_items`` generator and the
homology layers by name; a name that is gone is reported on stderr as
"is absent" and its metrics silently read 0.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_round(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert "is absent" not in proc.stderr, proc.stderr
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_traced_interval_sweeps_round():
    assert traced_round("interval-sweeps")["cohen_macaulay.intervals"] > 0


def test_traced_field_betti_round():
    # the engine's hooks see every nonempty cell and every survivor; no
    # two adjacent layers keep survivors here, so Smith normal form never runs
    m = traced_round("field-betti")
    assert m["homology.cells_built"] == 9768
    assert m["homology.survivors"] == 71
    assert m["homology.integral_calls"] == 11
    assert m["intmatrix.snf_calls"] == 0
