"""What a run promises about frames inside a switch pipeline.

A switch hands its output on stamped with the end of its pipeline latency
instead of spending a transmit event on it — into an emulated link, or
into a host — but never past the horizon of the run: ``run(until=t)``
reports nothing that happened after ``t``.  A direct edge into another
switch keeps its transmit event, because the program there reads its
tables at arrival time.
"""

import pytest

from repro.topology import TopologyEngine, linear_topology, paper_testbed_topology


def _spec(**overrides):
    params = dict(chunks=2, bases=1, packet_rate=1e3, scenario="static", seed=7)
    params.update(overrides)
    return linear_topology(**params)


def _event_times(spec, description):
    """Times of every event labelled ``description`` in a full run of ``spec``."""
    engine = TopologyEngine(spec)
    times = []
    engine.simulator.add_observer(
        lambda time, label: times.append(time) if label == description else None
    )
    engine.run()
    return times


def _latency(engine, node):
    return engine.graph.node(node).switch.pipeline.pipeline_latency


class TestRunHorizon:
    def test_a_cut_inside_the_decoders_pipeline_delivers_nothing(self):
        """The decoder has received the first chunk; its output is still in
        the pipeline at the cut, so the sink has not."""
        received = _event_times(_spec(), "link0:deliver")[0]
        latency = _latency(TopologyEngine(_spec()), "decoder")
        report = TopologyEngine(_spec()).run(until=received + latency / 2)
        (flow,) = report.flows
        assert report.metrics.counter("link0.delivered") == 1
        assert flow.delivered == 0
        assert flow.latency == {}
        assert flow.integrity.matched == 0
        assert report.duration == received + latency / 2
        # A delivery stamped exactly at the horizon is inside the run, as an
        # event at ``until`` would be.
        report = TopologyEngine(_spec()).run(until=received + latency)
        (flow,) = report.flows
        assert flow.delivered == 1
        assert flow.latency["count"] == 1

    def test_a_cut_inside_the_encoders_pipeline_leaves_the_wire_untouched(self):
        injected = _event_times(_spec(), "replay:inject")[0]
        latency = _latency(TopologyEngine(_spec()), "encoder")
        report = TopologyEngine(_spec()).run(until=injected + latency / 2)
        assert report.metrics.counter("link0.offered") == 0
        report = TopologyEngine(_spec()).run(until=injected + latency)
        assert report.metrics.counter("link0.offered") == 1

    @pytest.mark.parametrize("scenario", ["static", "dynamic"])
    def test_cut_and_resumed_runs_equal_the_uncut_run(self, scenario):
        """Frames a cut leaves waiting for their transmit event still reach
        the wire before the ones received after it: resuming gives the
        report of the run that was never cut, wherever the cuts fall."""
        spec = _spec(chunks=60, bases=4, packet_rate=2e6, scenario=scenario)
        expected = TopologyEngine(spec).run().json_text()
        for cut in (0.4e-6, 1.3e-6, 2.05e-6, 7.7e-6, 15e-6):
            engine = TopologyEngine(spec)
            engine.run(until=cut)
            engine.simulator.run()
            assert engine.report().json_text() == expected, cut

    def test_a_run_stopped_by_max_events_counts_what_was_handed_on(self):
        """``max_events`` cuts at an event, not at an instant.  The frame the
        decoder handed on during the last event is delivered; the clock
        stays at that event, because later events are still pending, and
        ``latest_stamp`` records how far the hand-off reached."""
        received = _event_times(_spec(), "link0:deliver")[0]
        engine = TopologyEngine(_spec())
        latency = _latency(engine, "decoder")
        report = engine.run(max_events=2)  # the first injection and delivery
        (flow,) = report.flows
        assert flow.delivered == 1
        assert flow.latency["count"] == 1
        simulator = engine.simulator
        assert simulator.now == report.duration == received
        assert simulator.latest_stamp == received + latency
        # The run that drains the queue settles the clock on the last stamp,
        # having run every event the cut left pending exactly once.
        drained = simulator.run()
        whole = TopologyEngine(_spec())
        full = whole.run()
        assert 2 + drained == whole.simulator.executed_events
        assert engine.report().json_text() == full.json_text()
        assert simulator.now == full.duration

    def test_only_a_switch_to_switch_edge_keeps_its_transmit_event(self):
        """The testbed's direct encoder → decoder hop keeps the encoder's
        transmit event; the decoder's hand-off into the sink and, on the
        emulated chain, the encoder's hand-off into the link do not."""
        chunks = 20
        for build, labels in (
            (linear_topology, {"replay:inject", "link0:deliver"}),
            (paper_testbed_topology, {"replay:inject", "encoder:tx:1"}),
        ):
            spec = build(chunks=chunks, bases=2, packet_rate=1e3, scenario="static", seed=7)
            engine = TopologyEngine(spec)
            seen = []
            engine.simulator.add_observer(lambda _time, label: seen.append(label))
            report = engine.run()
            assert set(seen) == labels
            assert engine.simulator.executed_events == 2 * chunks
            assert report.flows[0].delivered == chunks
