"""Result plumbing shared by the benchmark harnesses.

Each benchmark prints its table to stdout and writes it to
``benchmarks/results/`` as both text and JSON.  The paper's numbers are not
benchmarks: ``repro.analysis.figures.CLAIMS`` computes them.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

#: Where the reproduced tables/figures are written.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def environment_info() -> dict:
    """Machine/interpreter metadata embedded in benchmark result JSONs.

    Absolute throughput numbers only mean something next to the machine
    that produced them; every perf-tracking benchmark notes this alongside
    its results so trajectories across commits are comparable.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def emit_result(name: str, text: str) -> None:
    """Print a reproduced table/figure and persist it under results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    # Write to the real stdout so the output is visible even under capture.
    sys.stdout.write(f"\n=== {name} ===\n{text}\n")
