"""End-to-end telemetry: chunk lifecycle, off-mode invariance, sharding.

These are the integration contracts of the observability layer:

* every chunk's full lifecycle — source injection, encode, wire,
  decode, sink arrival — is reconstructable from the trace via its
  ``(flow, chunk)`` identity;
* tracing observes and never perturbs: the report of a traced run is
  byte-identical to the untraced one, at any worker count;
* the merged multi-worker trace is exactly the sequential trace.
"""

import hashlib

import pytest

from repro import obs
from repro.topology import TopologyEngine, preset_topology, run_topology


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    before = obs.TRACER
    yield
    obs.TRACER = before


def _spec(**overrides):
    kwargs = dict(chunks=30, bases=3, seed=2020)
    kwargs.update(overrides)
    return preset_topology("fan-in", **kwargs)


def _traced_run(workers=1, snapshot_interval=None):
    tracer = obs.enable(snapshot_interval=snapshot_interval)
    try:
        report = run_topology(_spec(), workers=workers)
    finally:
        obs.disable()
    return report, tracer.sink.events


class TestChunkLifecycle:
    def test_every_stage_of_one_chunk_is_reconstructable(self):
        report, events = _traced_run()
        assert report.integrity.intact

        chunk = [
            event for event in events
            if event.get("flow") == "flow0" and event.get("chunk") == 0
        ]
        stages = [event["name"] for event in chunk]
        for stage in ("flow.inject", "encode", "link.serialize",
                      "link.propagate", "decode", "flow.arrive"):
            assert stage in stages, f"missing lifecycle stage {stage}"
        # The lifecycle is causally ordered in simulated time.
        timestamps = [event["ts"] for event in chunk]
        assert timestamps == sorted(timestamps)
        arrive = next(e for e in chunk if e["name"] == "flow.arrive")
        assert arrive["args"]["outcome"] == "delivered"

    def test_every_chunk_of_every_flow_is_delivered_in_the_trace(self):
        report, events = _traced_run()
        arrivals = {
            (event["flow"], event["chunk"])
            for event in events
            if event["name"] == "flow.arrive"
            and event["args"]["outcome"] == "delivered"
        }
        spec = _spec()
        expected = {
            (flow.name, index)
            for flow in spec.flows
            for index in range(30)
        }
        assert arrivals == expected

    def test_dictionary_outcomes_are_annotated(self):
        # Dynamic scenario: the run (tens of us) ends before the control
        # plane's ~1.8 ms installs land, so every encode is a learn miss
        # carrying the basis it digested.
        _report, events = _traced_run()
        encodes = [event for event in events if event["name"] == "encode"]
        assert encodes
        assert all(e["args"]["outcome"] == "miss" for e in encodes)
        assert all("basis" in e["args"] for e in encodes)

        # Static scenario: mappings are preinstalled, every encode hits
        # and is annotated with the identifier it compressed to.
        tracer = obs.enable()
        try:
            run_topology(_spec(scenario="static"), workers=1)
        finally:
            obs.disable()
        hits = [e for e in tracer.sink.events if e["name"] == "encode"]
        assert hits
        assert all(e["args"]["outcome"] == "hit" for e in hits)
        assert all("identifier" in e["args"] for e in hits)


class TestOffModeInvariance:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_bytes_identical_with_tracing_on_and_off(self, workers):
        plain = run_topology(_spec(), workers=workers)
        traced_report, events = _traced_run(
            workers=workers, snapshot_interval=1e-5
        )
        assert traced_report.json_text() == plain.json_text()
        assert events, "traced run recorded nothing"

    def test_snapshots_do_not_change_the_trace_timeline(self):
        _report, bare = _traced_run()
        _report, sampled = _traced_run(snapshot_interval=1e-5)
        non_counter = [e for e in sampled if e["ph"] != "C"]
        # Snapshot counters are interleaved; everything else is unchanged
        # (sequence numbers differ because counters consume them).
        strip = lambda e: {k: v for k, v in e.items() if k != "seq"}
        assert [strip(e) for e in non_counter] == [strip(e) for e in bare]
        assert any(e["ph"] == "C" for e in sampled)


class TestSnapshotSeries:
    @pytest.mark.parametrize("scenario", ["static", "dynamic"])
    def test_final_ratio_is_the_reports_compression_ratio(self, scenario):
        """``ratio`` is wire bytes over payload bytes, like every other
        compression ratio in the repo — not its inverse."""
        from repro.replay import ChunkTraceSource, FixedRatePacing
        from repro.topology import TopologyEngine, linear_topology
        from repro.workloads import SyntheticSensorWorkload

        workload = SyntheticSensorWorkload(num_chunks=2500, distinct_bases=4, seed=3)
        source = (ChunkTraceSource(workload.trace()), FixedRatePacing(packet_rate=1e6))
        tracer = obs.enable(snapshot_interval=1e-4)
        try:
            engine = TopologyEngine(
                linear_topology(scenario=scenario), static_bases=workload.bases()
            )
            report = engine.run(sources={"flow0": source})
        finally:
            obs.disable()
        samples = [e["args"] for e in tracer.sink.events if e["ph"] == "C"]
        assert len(samples) > 2
        final = samples[-1]
        assert report.compression_ratio < 1.0
        assert final["ratio"] == report.compression_ratio
        assert final["wire_payload_bytes"] == report.wire_payload_bytes
        # pkt_per_s counts frames on the measured link, not injected ones.
        wire_frames = sum(
            report.metrics.counter(f"wire.{kind}_packets")
            for kind in ("raw", "uncompressed", "compressed")
        )
        assert final["pkt_per_s"] == wire_frames / report.duration


class TestShardedTraces:
    def test_merged_trace_is_worker_count_independent(self):
        _report, sequential = _traced_run(workers=1, snapshot_interval=1e-5)
        _report, sharded = _traced_run(workers=2, snapshot_interval=1e-5)
        assert sharded == sequential

    def test_snapshot_counters_survive_the_segment_round_trip(self):
        _report, sharded = _traced_run(workers=2, snapshot_interval=1e-5)
        counters = [e for e in sharded if e["ph"] == "C"]
        assert counters
        sample = counters[0]["args"]
        for series in ("ratio", "queue_depth", "pkt_per_s",
                       "dictionary_entries"):
            assert series in sample


#: Small versions of the golden-pinned presets: impaired multi-hop links, a
#: full drop-tail queue, control frames and a decoder restart mid-learning.
OBSERVED_PRESETS = {
    "fan-in": dict(
        senders=3, chunks=120, bases=8, packet_rate=1e5, hops=2, loss=0.02,
        reorder=0.02, queue_capacity=4, bandwidth_gbps=0.15, seed=7,
    ),
    "fault-storm": dict(senders=3, chunks=200, seed=7),
}


def _md5(report):
    return hashlib.md5(report.json_text().encode("utf-8")).hexdigest()


def _observed_engine_run(spec, traced, snapshots):
    """``(executed_events, report md5)`` of one in-process run, observed
    by the tracer and/or a periodic snapshotter."""
    if traced:
        obs.enable(snapshot_interval=1e-5 if snapshots else None)
    try:
        engine = TopologyEngine(spec)
        snapshotter = None
        if snapshots and not traced:
            # Attached by hand, feeding a tracer nobody installed: the run
            # itself stays untraced.
            snapshotter = obs.PeriodicSnapshotter(
                1e-5,
                obs.Tracer(obs.EventCollector(), clock=lambda: engine.simulator.now),
                lambda: {
                    "queue_depth": sum(link.queue_depth for link in engine.graph.links)
                },
            )
            engine.simulator.add_observer(snapshotter.on_event)
        report = engine.run()
    finally:
        obs.disable()
    if snapshotter is not None:
        assert snapshotter.samples_taken
    return engine.simulator.executed_events, _md5(report)


class TestObservationKeepsThePath:
    """Turning observation on must not change which code path runs: the
    tracer and a periodic snapshotter, alone or together and at any worker
    count, leave a run's events and report bytes as they were — including
    which frames a switch hands on stamped ahead of the clock."""

    @pytest.mark.parametrize("preset", sorted(OBSERVED_PRESETS))
    def test_events_and_report_bytes_do_not_depend_on_observation(self, preset):
        spec = preset_topology(preset, **OBSERVED_PRESETS[preset])
        outcomes = {
            (traced, snapshots): _observed_engine_run(spec, traced, snapshots)
            for traced in (False, True)
            for snapshots in (False, True)
        }
        assert len(set(outcomes.values())) == 1, outcomes
        executed, digest = outcomes[(False, False)]
        for interval in (None, 1e-5):
            tracer = obs.enable(snapshot_interval=interval)
            try:
                report = run_topology(spec, workers=2)
            finally:
                obs.disable()
            assert _md5(report) == digest
            events = [e for e in tracer.sink.events if e["name"] == "sim.event"]
            assert len(events) == executed
        assert _md5(run_topology(spec, workers=2)) == digest
