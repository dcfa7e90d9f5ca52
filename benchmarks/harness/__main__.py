"""``PYTHONPATH=src python -m benchmarks.harness`` (see ``cli.py``)."""

import sys

from benchmarks.harness.cli import main

sys.exit(main())
