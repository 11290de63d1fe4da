"""Tests for the metrics registry, distributions and the integrity verdict."""

import json
import os
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro.exceptions import ReplayError
from repro.replay import Distribution, IntegrityResult, MetricsRegistry

from recorded_samples import recorded_samples


class TestDistribution:
    def test_percentile_interpolation(self):
        dist = Distribution("latency")
        dist.extend([1.0, 2.0, 3.0, 4.0])
        assert dist.percentile(0) == 1.0
        assert dist.percentile(100) == 4.0
        assert dist.percentile(50) == pytest.approx(2.5)

    def test_single_sample(self):
        dist = Distribution()
        dist.add(5.0)
        assert dist.percentile(99) == 5.0

    def test_summary_keys(self):
        dist = Distribution()
        dist.extend(range(100))
        summary = dist.summary()
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(49.5)
        assert summary["p99"] == pytest.approx(98.01)
        assert summary["min"] == 0.0
        assert summary["max"] == 99.0

    def test_empty_distribution(self):
        dist = Distribution("empty")
        assert dist.empty
        assert dist.summary() == {"count": 0}
        with pytest.raises(ReplayError):
            dist.percentile(50)

    def test_an_array_extends_like_the_equal_list(self):
        """``extend`` takes an ``array('d')`` in C: the samples, their order
        (and so the summation order of the mean) and the registry's bytes
        are those of the equal list, onto existing samples too."""
        values = [0.1 * index + 1e-17 * (index % 7) for index in range(1000)]
        shown = []
        for given in (list(values), array("d", values)):
            metrics = MetricsRegistry()
            dist = metrics.distribution("link0.queueing_delay")
            dist.add(3.0)
            dist.extend(given)
            merged = Distribution("merged")
            merged.merge(dist)
            shown.append(
                (
                    recorded_samples(dist),
                    dist.mean(),
                    [dist.percentile(q) for q in (0, 1, 50, 99, 100)],
                    recorded_samples(merged),
                    json.dumps(metrics.as_dict(), sort_keys=True),
                )
            )
        assert shown[0] == shown[1]

    def test_percentile_bounds(self):
        dist = Distribution()
        dist.add(1.0)
        with pytest.raises(ReplayError):
            dist.percentile(101)


def _record(dist, method, value):
    if method == "add":
        dist.add(value)
    else:
        dist.extend([value])


@pytest.mark.parametrize("bounded", [False, True], ids=["exact", "bounded"])
@pytest.mark.parametrize("method", ["add", "extend"])
class TestSampleCoercion:
    """Every sample is stored as ``float(value)``, whatever the storage."""

    @pytest.mark.parametrize(
        "value, stored",
        [(3, 3.0), (0.25, 0.25), (True, 1.0), (False, 0.0), (2**53 + 1, 2.0**53),
         (Fraction(1, 3), 1 / 3), ("1.5", 1.5)],
        ids=repr,
    )
    def test_a_number_is_stored_as_its_double(self, bounded, method, value, stored):
        dist = Distribution("d", bounded=bounded)
        _record(dist, method, value)
        summary = dist.summary()
        assert (summary["min"], summary["max"], summary["mean"]) == (stored,) * 3
        assert type(summary["min"]) is float
        if not bounded:
            (sample,) = recorded_samples(dist)
            assert type(sample) is float and sample == stored

    @pytest.mark.parametrize(
        "value, error",
        [(None, TypeError), ("fast", ValueError), (b"\x01", ValueError),
         (object(), TypeError), (10**400, OverflowError)],
        ids=repr,
    )
    def test_a_non_number_raises_and_records_nothing(
        self, bounded, method, value, error
    ):
        dist = Distribution("d", bounded=bounded)
        with pytest.raises(error):
            _record(dist, method, value)
        assert dist.empty


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.increment("a.x")
        metrics.increment("a.x", 4)
        assert metrics.counter("a.x") == 5
        assert metrics.counter("never") == 0

    def test_merge_counters_namespaces(self):
        metrics = MetricsRegistry()
        metrics.merge_counters("link0", {"offered": 10, "dropped": 2, "skip": None})
        assert metrics.counter("link0.offered") == 10
        assert metrics.counter("link0.skip") == 0

    def test_gauges_last_write_wins(self):
        metrics = MetricsRegistry()
        metrics.set_gauge("occupancy", 3)
        metrics.set_gauge("occupancy", 7)
        assert metrics.as_dict()["gauges"] == {"occupancy": 7.0}

    def test_as_dict(self):
        metrics = MetricsRegistry()
        metrics.increment("encoder.hits", 12)
        metrics.set_gauge("encoder.entries", 3)
        metrics.distribution("lat").extend([1.0, 2.0])
        data = metrics.as_dict()
        assert data["counters"]["encoder.hits"] == 12
        assert data["distributions"]["lat"]["count"] == 2


class TestIntegrityResult:
    def test_lossless_in_order(self):
        result = IntegrityResult(
            sent=5, received=5, matched=5, corrupted=0, missing=0, out_of_order=0
        )
        assert result.intact and result.lossless_in_order

    def test_loss_is_counted_not_corruption(self):
        result = IntegrityResult(
            sent=5, received=3, matched=3, corrupted=0, missing=2, out_of_order=0
        )
        assert result.intact
        assert not result.lossless_in_order

    def test_corruption_breaks_intact(self):
        result = IntegrityResult(
            sent=5, received=5, matched=4, corrupted=1, missing=1, out_of_order=0
        )
        assert not result.intact


def test_replay_layer_does_not_import_the_analysis_layer():
    """The replay layer sits below the analysis layer: importing it in a
    fresh interpreter must not load ``repro.analysis``."""
    source = str(Path(repro.__file__).resolve().parents[1])
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, environment.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.replay; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))",
        ],
        env=environment, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
