"""The command ``BENCHMARK.json`` names: ``python3 benchmarks/harness/run.py
--workload W --seed N --seconds S --trace 0|1`` from the checkout's root.

A script rather than ``-m`` so that nothing outside the benchmark's own
directory has to be named on the command line; it only puts the checkout
on ``sys.path`` and hands over to ``cli.main``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.harness.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
