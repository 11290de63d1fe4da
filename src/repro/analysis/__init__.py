"""Experiment methodology helpers: statistics, repetition, reporting."""

from repro.analysis.experiment import (
    ExperimentResult,
    PAPER_REPETITIONS,
    summarize_groups,
)
from repro.analysis.reporting import format_table, save_results_json
from repro.analysis.statistics import (
    MeasurementSummary,
    confidence_interval_95,
    mean,
    standard_deviation,
    summarize,
)

__all__ = [
    "ExperimentResult",
    "PAPER_REPETITIONS",
    "summarize_groups",
    "format_table",
    "save_results_json",
    "MeasurementSummary",
    "confidence_interval_95",
    "mean",
    "standard_deviation",
    "summarize",
]
