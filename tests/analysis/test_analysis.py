"""Tests for the statistics, experiment-runner and reporting helpers."""

import json

import pytest

from repro.analysis.reporting import format_table, save_results_json
from repro.analysis.statistics import (
    confidence_interval_95,
    mean,
    standard_deviation,
    summarize,
)
from repro.exceptions import ReproError


class TestStatistics:
    def test_mean_and_std(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert mean(samples) == 2.5
        assert standard_deviation(samples) == pytest.approx(1.29099, rel=1e-4)

    def test_single_sample(self):
        assert standard_deviation([5.0]) == 0.0
        assert confidence_interval_95([5.0]) == 0.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ReproError):
            mean([])
        with pytest.raises(ReproError):
            standard_deviation([])
        with pytest.raises(ReproError):
            confidence_interval_95([])
        with pytest.raises(ReproError):
            summarize([])

    def test_confidence_interval_with_t_quantile(self):
        # 10 samples -> t(9) = 2.262
        samples = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        expected = 2.262 * standard_deviation(samples) / (10 ** 0.5)
        assert confidence_interval_95(samples) == pytest.approx(expected)

    def test_large_sample_uses_normal_quantile(self):
        samples = [float(i % 5) for i in range(100)]
        expected = 1.96 * standard_deviation(samples) / 10.0
        assert confidence_interval_95(samples) == pytest.approx(expected)

    def test_summary_formatting_and_interval(self):
        samples = [1.7, 1.8, 1.75, 1.85, 1.72]
        summary = summarize(samples)
        text = summary.format("ms")
        assert "±" in text and "ms" in text
        assert summary.mean == pytest.approx(1.764)
        assert summary.ci95 == pytest.approx(confidence_interval_95(samples))
        assert summary.as_dict()["count"] == 5
        assert summary.minimum == 1.7
        assert summary.maximum == 1.85


class TestReporting:
    def test_format_table(self):
        text = format_table(["name", "value"], [["alpha", 1.23456], ["b", 2]], title="T")
        assert "T" in text
        assert "alpha" in text
        assert "1.235" in text

    def test_format_table_validation(self):
        with pytest.raises(ReproError):
            format_table([], [])
        with pytest.raises(ReproError):
            format_table(["a"], [["x", "y"]])

    def test_save_results_json(self, tmp_path):
        path = save_results_json(tmp_path / "out" / "results.json", {"ratio": 0.09})
        loaded = json.loads(path.read_text())
        assert loaded["ratio"] == 0.09
