"""Make the runner's modules and the checkout's package importable from the tests."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402  (needs the path above)

run.pin_threads()
