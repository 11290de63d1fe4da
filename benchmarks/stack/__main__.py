"""``python -m benchmarks.stack`` runs run.py (which finds its siblings and src/)."""

import runpy
from pathlib import Path

runpy.run_path(str(Path(__file__).with_name("run.py")), run_name="__main__")
