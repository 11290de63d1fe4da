"""Measurement statistics: means and 95 % confidence intervals.

The paper repeats every measurement 10 times and reports the average with a
95 % confidence interval.  This module provides the same summary for the
reproduction's measurements, using the Student t distribution for small
sample counts (n = 10 → t ≈ 2.262) so the interval matches what standard
plotting tools produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.exceptions import ReproError

__all__ = ["MeasurementSummary", "mean", "standard_deviation", "confidence_interval_95", "summarize"]

#: Two-sided 97.5 % quantiles of the Student t distribution by degrees of
#: freedom (1–30).  Beyond 30 the normal quantile 1.96 is used.
_T_TABLE = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}
_Z_95 = 1.96


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sample list."""
    if not samples:
        raise ReproError("cannot compute the mean of an empty sample list")
    return sum(samples) / len(samples)


def standard_deviation(samples: Sequence[float]) -> float:
    """Sample (n-1) standard deviation; 0.0 for a single sample."""
    if not samples:
        raise ReproError("cannot compute the deviation of an empty sample list")
    if len(samples) == 1:
        return 0.0
    centre = mean(samples)
    variance = sum((value - centre) ** 2 for value in samples) / (len(samples) - 1)
    return math.sqrt(variance)


def _t_quantile(degrees_of_freedom: int) -> float:
    if degrees_of_freedom <= 0:
        return _Z_95
    return _T_TABLE.get(degrees_of_freedom, _Z_95)


def confidence_interval_95(samples: Sequence[float]) -> float:
    """Half-width of the 95 % confidence interval of the mean."""
    if not samples:
        raise ReproError("cannot compute a confidence interval of an empty sample list")
    if len(samples) == 1:
        return 0.0
    deviation = standard_deviation(samples)
    quantile = _t_quantile(len(samples) - 1)
    return quantile * deviation / math.sqrt(len(samples))


@dataclass(frozen=True)
class MeasurementSummary:
    """Mean ± 95 % CI of a repeated measurement."""

    mean: float
    ci95: float
    std: float
    count: int
    minimum: float
    maximum: float

    def format(self, unit: str = "", precision: int = 2) -> str:
        """Paper-style "(x ± y) unit" rendering."""
        value = f"({self.mean:.{precision}f} ± {self.ci95:.{precision}f})"
        return f"{value} {unit}".strip()

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the reporting helpers."""
        return {
            "mean": self.mean,
            "ci95": self.ci95,
            "std": self.std,
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
        }


def summarize(samples: Sequence[float]) -> MeasurementSummary:
    """Summarise a repeated measurement the way the paper reports numbers."""
    if not samples:
        raise ReproError("cannot summarise an empty sample list")
    return MeasurementSummary(
        mean=mean(samples),
        ci95=confidence_interval_95(samples),
        std=standard_deviation(samples),
        count=len(samples),
        minimum=min(samples),
        maximum=max(samples),
    )
