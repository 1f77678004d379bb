"""One traced round of the interval-sweeps benchmark runs clean.

The tracer wraps the CM sweep's ``_interval_items`` generator and the
homology layers by name; a name that is gone is reported on stderr as
"is absent" and its metrics silently read 0.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_interval_sweeps_round():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "interval-sweeps",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert "is absent" not in proc.stderr, proc.stderr
    assert result["metrics"]["cohen_macaulay.intervals"]["value"] > 0
