"""Golden report bytes for the named presets.

The md5 of ``TopologyReport.json_text()`` is pinned for four presets at
small sizes, in both ``metrics_mode``s, and must be the same at
``workers`` 1 and 2.  A refactor or a simulator speed-up that keeps every
simulated statistic leaves these untouched; a change to the model — event
order, link timing, impairment draws, accounting — moves them, and then
the new values are recorded on purpose, in their own commit.

``TopologyEngine.run(until=t)`` is pinned too, at five cut points on the two
presets with the most in flight (frames inside impaired multi-hop links;
control frames and a decoder restart mid-learning): a truncated report
shows *when* each event ran, not only that it eventually did, so a change
that merges or reorders events moves these even when full runs agree.
"""

import hashlib

import pytest

from repro.topology import TopologyEngine, preset_topology, run_topology

#: Small enough for tier-1, large enough that every dynamic preset learns
#: (the traces outlast the ~1.8 ms learning delay) and the fan-in's queue
#: overflows and reorders.
PRESETS = {
    "paper-testbed": dict(chunks=400, bases=8, packet_rate=1e5, seed=7),
    "fan-in": dict(
        senders=3, chunks=300, bases=8, packet_rate=1e5, hops=2, loss=0.02,
        reorder=0.02, queue_capacity=4, bandwidth_gbps=0.15, seed=7,
    ),
    "rack-fan-in": dict(racks=2, senders=3, chunks=200, scenario="static", seed=7),
    "fault-storm": dict(senders=3, chunks=400, seed=7),
}

GOLDEN = {
    ("paper-testbed", "exact"): "f956d1a4fb5dde0d1005c8aa66e8e1b0",
    ("paper-testbed", "streaming"): "27e235e50ef65c0fdffcf878b563bca5",
    ("fan-in", "exact"): "091d78f2459c89ddddfa9bacb68b7017",
    ("fan-in", "streaming"): "e8382e10b1a09481cff53d28e058bc74",
    ("rack-fan-in", "exact"): "b73f198cc3b45925264904df5d470fd4",
    ("rack-fan-in", "streaming"): "1d53c6afa2d913cdf17609db59bfd5a9",
    ("fault-storm", "exact"): "04cac486395f0e498663bed3f9624bfb",
    ("fault-storm", "streaming"): "83d9b147b6ebd293809bf69b94c72d17",
}

#: (preset, until) -> md5 of the exact-mode report of a run cut at ``until``.
TRUNCATED = {
    ("fan-in", 0.0004): "f1d76f934e1adc9781c3acfc843b5735",
    ("fan-in", 0.0012): "0a9adacef73919db31bb272478c21914",
    ("fan-in", 0.002): "e7eda101fc032ebaaaaa6141ef15ce67",
    ("fan-in", 0.0028): "9cabbdfa1e50e3008df4757a6ec58b94",
    ("fan-in", 0.0036): "4d74c3483baefc87c581f3a88e272e21",
    ("fault-storm", 0.0004): "6e2f4c69d502454c1eee2e6776840ac1",
    ("fault-storm", 0.0012): "4b90e5389b63d05410caaf5c3f183c6d",
    ("fault-storm", 0.002): "bdcbea6db5bf5e1a6f40496e0f46187f",
    ("fault-storm", 0.0028): "5d0147d06ad20cd443de098a971a9162",
    ("fault-storm", 0.0036): "62c5ef4683c053bfddb8c96c11e06d89",
}


def report_md5(preset: str, metrics_mode: str, workers: int) -> str:
    report = run_topology(
        preset_topology(preset, **PRESETS[preset]),
        workers=workers,
        metrics_mode=metrics_mode,
    )
    return hashlib.md5(report.json_text().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("preset,metrics_mode", sorted(GOLDEN))
def test_report_bytes_match_golden(preset, metrics_mode, workers):
    assert report_md5(preset, metrics_mode, workers) == GOLDEN[(preset, metrics_mode)]


@pytest.mark.parametrize("preset,until", sorted(TRUNCATED))
def test_truncated_run_bytes_match_golden(preset, until):
    report = TopologyEngine(preset_topology(preset, **PRESETS[preset])).run(until=until)
    digest = hashlib.md5(report.json_text().encode("utf-8")).hexdigest()
    assert digest == TRUNCATED[(preset, until)]


def test_presets_exercise_what_they_pin():
    """The pins only mean something if the runs do the interesting things."""
    fan_in = run_topology(preset_topology("fan-in", **PRESETS["fan-in"]))
    counters = fan_in.metrics.as_dict()["counters"]
    for suffix in ("dropped_loss", "dropped_queue", "reordered"):
        assert any(
            value for key, value in counters.items() if key.endswith("." + suffix)
        ), suffix
    assert fan_in.learning_time is not None
    storm = run_topology(preset_topology("fault-storm", **PRESETS["fault-storm"]))
    counters = storm.metrics.as_dict()["counters"]
    assert counters["faults.restarts"] == 1
    assert counters["faults.resync_installs"] > 0
