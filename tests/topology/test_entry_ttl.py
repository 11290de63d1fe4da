"""A run with ``entry_ttl`` ends: idle polls run only while entries can expire.

Every preset, at a small size, without and with an entry TTL (0.2 ms and
0.5 s), under both control modes and both table scenarios, runs without
``until`` to a drained queue.  A generous ``max_events`` guards the run, so
a poll that re-arms forever fails the drained-queue assertion instead of
hanging the suite.

The traffic of each run ends within milliseconds, before the first idle
poll (50 ms after the start), so a TTL cannot change what the data path
does: the same mappings are learned, and every entry the encoder holds
when the traffic ends — what the run without a TTL leaves in its table —
times out and is recycled by the first poll after it has been idle for
``entry_ttl``.  That poll is the run's last, but for the removals it sends
over an in-network control link.
"""

import pytest

from repro.controlplane.manager import ControlPlaneTimings
from repro.topology import TOPOLOGY_PRESETS, TopologyEngine, preset_topology

SIZES = {
    "linear": dict(chunks=60, bases=4),
    "paper-testbed": dict(chunks=60, bases=4),
    "fan-in": dict(senders=2, chunks=40, bases=4),
    "fan-in-stress": dict(senders=3, chunks=30, bases=4),
    "rack-fan-in": dict(racks=2, senders=2, chunks=30, bases=4),
    "fault-storm": dict(senders=2, chunks=60, bases=4),
}

#: Far more events than any of these runs spends.
GUARD = 100_000

#: When the last table write of any of these runs lands, at the latest:
#: the traffic lasts well under a millisecond and learning takes ~1.8 ms.
ACTIVITY_ENDS = 5e-3

POLL = ControlPlaneTimings().idle_poll_interval

#: Longer than a control frame takes to reach the decoder.
LANDS = 1e-4


def _summed(counters, suffix, prefix):
    return sum(
        value
        for name, value in counters.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def _drained_run(preset, ttl, control, scenario):
    params = dict(SIZES[preset], entry_ttl=ttl, scenario=scenario, seed=3)
    if preset != "fault-storm":  # its control link is in-network by design
        params["control"] = control
    engine = TopologyEngine(preset_topology(preset, **params))
    report = engine.run(max_events=GUARD)
    assert engine.simulator.run(max_events=1) == 0, "events still pending"
    metrics = report.metrics.as_dict()
    counters, gauges = metrics["counters"], metrics["gauges"]
    return report, {
        "learned": _summed(counters, ".mappings_learned", "controlplane"),
        "recycled": _summed(counters, ".mappings_recycled", "controlplane"),
        "expired": _summed(counters, ".mappings_expired", "controlplane"),
        "entries": _summed(gauges, ".dictionary_entries", "encoder"),
    }


def test_every_preset_is_covered():
    assert set(SIZES) == set(TOPOLOGY_PRESETS)


#: Every preset under both control modes, but fault-storm, whose control
#: link is in-network by design.
SHAPES = [
    (preset, control)
    for preset in sorted(SIZES)
    for control in ("direct", "in-network")
    if not (preset == "fault-storm" and control == "direct")
]


@pytest.mark.parametrize("scenario", ["dynamic", "static"])
@pytest.mark.parametrize("preset,control", SHAPES)
def test_a_run_with_entry_ttl_drains(preset, control, scenario):
    plain, kept = _drained_run(preset, None, control, scenario)
    assert kept["entries"] > 0
    assert kept["expired"] == 0
    assert plain.duration < ACTIVITY_ENDS
    for ttl in (0.2e-3, 0.5):
        report, seen = _drained_run(preset, ttl, control, scenario)
        assert seen["learned"] == kept["learned"]
        assert seen["recycled"] == kept["recycled"]
        # Every entry the traffic left behind expires, and nothing else.
        assert seen["expired"] == kept["entries"]
        assert seen["entries"] == 0
        # The last poll is the first one after every entry went idle for
        # ``ttl``: on the poll grid, at most one interval past that; the
        # removals it sends over an in-network control link land a few
        # microseconds later.
        assert ttl < report.duration <= ACTIVITY_ENDS + ttl + POLL + LANDS
        last_poll = round(report.duration / POLL) * POLL
        assert report.duration == pytest.approx(last_poll, abs=LANDS)
