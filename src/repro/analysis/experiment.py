"""Experiment summarisation: matrix group-bys with the paper's statistics.

The evaluation methodology of the paper is uniform: "each measurement is
repeated 10 times, and we show the average and the 95 % confidence
interval".  :func:`summarize_groups` applies it to an experiment matrix:
it folds labelled samples (one per scenario of a
:class:`~repro.experiments.runner.MatrixResult` sweep) into per-group
mean ± 95 % CI :class:`ExperimentResult` summaries, preserving first-seen
group order so sweep tables are deterministic:

>>> results = summarize_groups(
...     [("static", 0.09), ("static", 0.10), ("dynamic", 0.11)]
... )
>>> [(r.name, round(r.summary.mean, 3), r.summary.count) for r in results]
[('static', 0.095, 2), ('dynamic', 0.11, 1)]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.analysis.statistics import MeasurementSummary, summarize

__all__ = ["ExperimentResult", "summarize_groups"]

#: The paper's repetition count.
PAPER_REPETITIONS = 10


@dataclass(frozen=True)
class ExperimentResult:
    """A named, summarised repeated measurement."""

    name: str
    samples: Sequence[float]
    summary: MeasurementSummary
    unit: str = ""

    def format(self, precision: int = 2) -> str:
        """Paper-style one-line rendering."""
        return f"{self.name}: {self.summary.format(self.unit, precision)}"


def summarize_groups(
    labeled_samples: Iterable[Tuple[object, Union[int, float]]],
    unit: str = "",
) -> List[ExperimentResult]:
    """Fold ``(label, value)`` pairs into one summary per distinct label.

    The workhorse behind per-axis group-bys of an experiment matrix: every
    scenario contributes one sample labelled with its axis value, and each
    group is summarised with the paper's mean ± 95 % CI methodology
    (single-sample groups report a zero-width interval).  Group order is
    first-seen order, so callers that iterate scenarios deterministically
    get deterministic tables.
    """
    groups: Dict[str, List[float]] = {}
    for label, value in labeled_samples:
        groups.setdefault(str(label), []).append(float(value))
    return [
        ExperimentResult(
            name=label,
            samples=tuple(samples),
            summary=summarize(samples),
            unit=unit,
        )
        for label, samples in groups.items()
    ]
