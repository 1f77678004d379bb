import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
# the benchmark's own modules, and posettop from the same checkout
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
