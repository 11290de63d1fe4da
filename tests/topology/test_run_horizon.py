"""What a run promises about frames inside a switch pipeline or on a wire.

A switch hands its output on stamped with the end of its pipeline latency
instead of spending a transmit event on it — into an emulated link, or
into a host — but never past the horizon of the run: ``run(until=t)``
reports nothing that happened after ``t``.  An edge into another switch
program hands the frame over at once too, stamped with its delivery
instant, exactly when nothing can touch that program before the stamp
(:class:`repro.sim.lookahead.Lookahead`); otherwise it keeps its delivery
or transmit event.
"""

import pytest
from arrival_capture import capture_arrivals

from repro.topology import (
    FaultPlan,
    FlowSpec,
    LinkSpec,
    NodeRestart,
    NodeSpec,
    TopologyEngine,
    TopologySpec,
    linear_topology,
    paper_testbed_topology,
)


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


def _first_arrival(spec):
    """When the sink host receives the first frame in a full run of ``spec``."""
    engine = TopologyEngine(spec)
    arrivals = capture_arrivals(engine)
    engine.run()
    return arrivals[0][0]


def _latency(engine, node):
    return engine.graph.node(node).switch.pipeline.pipeline_latency


class TestRunHorizon:
    def test_a_cut_inside_the_decoders_pipeline_delivers_nothing(self):
        """The decoder has received the first chunk; its output is still in
        the pipeline at the cut, so the sink has not."""
        arrival = _first_arrival(_spec())
        latency = _latency(TopologyEngine(_spec()), "decoder")
        report = TopologyEngine(_spec()).run(until=arrival - latency / 2)
        (flow,) = report.flows
        assert report.metrics.counter("link0.delivered") == 1
        assert flow.delivered == 0
        assert flow.latency == {}
        assert flow.integrity.matched == 0
        assert report.duration == arrival - latency / 2
        # A delivery stamped exactly at the horizon is inside the run, as an
        # event at ``until`` would be.
        report = TopologyEngine(_spec()).run(until=arrival)
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
        """``max_events`` cuts at an event, not at an instant.  The frame
        handed on during the last event — through the encoder, the wire and
        the decoder — is delivered; the clock stays at that event, because
        later events are still pending, and ``latest_stamp`` records how
        far the hand-offs reached."""
        injected = _event_times(_spec(), "replay:inject")[0]
        arrival = _first_arrival(_spec())
        engine = TopologyEngine(_spec())
        report = engine.run(max_events=1)  # the first injection
        (flow,) = report.flows
        assert flow.delivered == 1
        assert flow.latency["count"] == 1
        simulator = engine.simulator
        assert simulator.now == report.duration == injected
        assert simulator.latest_stamp == arrival
        # The run that drains the queue settles the clock on the last stamp,
        # having run every event the cut left pending exactly once.
        drained = simulator.run()
        whole = TopologyEngine(_spec())
        full = whole.run()
        assert 1 + drained == whole.simulator.executed_events
        assert engine.report().json_text() == full.json_text()
        assert simulator.now == full.duration


def _labels(engine, run=None):
    """Run ``engine`` (or call ``run``) and count its events by label."""
    seen = {}

    def observe(_time, label):
        seen[label] = seen.get(label, 0) + 1

    engine.simulator.add_observer(observe)
    (run or engine.run)()
    return seen


def _two_input_encoder_spec(chunks):
    """Two senders, each over its own link into one encoder, then one wire
    into the decoder: the encoder has two data inputs, the decoder one."""
    nodes = [
        NodeSpec(name="sender0", kind="host"),
        NodeSpec(name="sender1", kind="host"),
        NodeSpec(name="encoder", kind="encoder", forwarding={0: 2, 1: 2},
                 default_egress_port=2),
        NodeSpec(name="decoder", kind="decoder", forwarding={0: 1},
                 default_egress_port=1),
        NodeSpec(name="sink", kind="host"),
    ]
    links = [
        LinkSpec(name="in0", source=("sender0", 0), target=("encoder", 0)),
        LinkSpec(name="in1", source=("sender1", 0), target=("encoder", 1)),
        LinkSpec(name="wire", source=("encoder", 2), target=("decoder", 0),
                 measured=True),
        LinkSpec(name="egress", source=("decoder", 1), target=("sink", 0),
                 direct=True),
    ]
    flows = [
        FlowSpec(name=f"flow{index}", source=f"sender{index}", sink="sink",
                 chunks=chunks, bases=2, packet_rate=1e3, start=index * 1e-4)
        for index in range(2)
    ]
    return TopologySpec(name="two-inputs", nodes=nodes, links=links, flows=flows,
                        scenario="static", seed=7)


class TestLookaheadRule:
    """Which edges into a switch program keep their event.

    A reordering link, a program with two data inputs, a program with a
    control write or a restart in flight, and a stamp past ``until`` each
    keep theirs; every other edge into a program hands the frame over at
    once, so a static chain spends one event per chunk: its injection.
    """

    CHUNKS = 20

    @pytest.mark.parametrize("build", [linear_topology, paper_testbed_topology])
    def test_an_edge_the_rule_admits_spends_no_event(self, build):
        spec = build(chunks=self.CHUNKS, bases=2, packet_rate=1e3,
                     scenario="static", seed=7)
        engine = TopologyEngine(spec)
        assert _labels(engine) == {"replay:inject": self.CHUNKS}
        assert engine.report().flows[0].delivered == self.CHUNKS

    def test_a_reordering_link_keeps_its_delivery_events(self):
        engine = TopologyEngine(_spec(chunks=self.CHUNKS, reorder=0.3))
        labels = _labels(engine)
        assert engine.report().metrics.counter("link0.reordered") > 0
        assert labels == {"replay:inject": self.CHUNKS, "link0:deliver": self.CHUNKS}

    def test_a_program_with_two_data_inputs_keeps_their_events(self):
        engine = TopologyEngine(_two_input_encoder_spec(self.CHUNKS))
        labels = _labels(engine)
        assert labels == {
            "replay:inject": 2 * self.CHUNKS,
            "in0:deliver": self.CHUNKS,
            "in1:deliver": self.CHUNKS,
        }
        assert sum(flow.delivered for flow in engine.report().flows) == 2 * self.CHUNKS

    @pytest.mark.parametrize(
        "build, label",
        [(linear_topology, "link0:deliver"), (paper_testbed_topology, "encoder:tx:1")],
    )
    def test_a_program_with_a_write_in_flight_keeps_its_events(self, build, label):
        """A dynamic run shorter than the digest latency: every frame meets
        a learn digest on its way to the control plane, on the wire into
        the decoder and on the direct encoder → decoder hop alike."""
        spec = build(chunks=self.CHUNKS, bases=2, packet_rate=1e5,
                     scenario="dynamic", seed=7)
        engine = TopologyEngine(spec)
        labels = _labels(engine)
        assert labels[label] == self.CHUNKS
        assert engine.report().metrics.counter("controlplane.mappings_learned") > 0

    def test_a_program_with_a_restart_in_flight_keeps_its_events(self):
        """Frames sent before the decoder's restart keep their delivery
        event; once it has run (and its resync with it), none does."""
        spec = _spec(chunks=self.CHUNKS, bases=2)
        restart = 9.5e-3  # between the tenth and eleventh injection
        spec.faults = FaultPlan(restarts=(NodeRestart(node="decoder", time=restart),))
        engine = TopologyEngine(spec)
        times = []
        engine.simulator.add_observer(
            lambda time, label: times.append(time) if label == "link0:deliver" else None
        )
        report = engine.run()
        assert report.metrics.counter("faults.restarts") == 1
        assert len(times) == 10 and max(times) < restart

    @pytest.mark.parametrize("scenario, kept", [("static", True), ("no_table", False)])
    def test_a_stamp_beyond_the_control_planes_reaction_keeps_its_event(
        self, scenario, kept
    ):
        """A write nothing has started yet can land on the decoder a digest
        latency plus a processing step (~1.16 ms) after any instant, so
        with a control plane a 2 ms wire keeps its delivery events even
        with nothing in flight; without one nothing can write the decoder,
        and the wire hands every frame over at once."""
        spec = _spec(chunks=self.CHUNKS, propagation_us=2000.0, scenario=scenario)
        labels = _labels(TopologyEngine(spec))
        assert labels.get("link0:deliver", 0) == (self.CHUNKS if kept else 0)

    def test_a_stamp_past_the_horizon_keeps_its_event(self):
        """A cut while the first frame is on the wire: its delivery is an
        event after the cut; every later frame's is not."""
        engine = TopologyEngine(_spec(chunks=self.CHUNKS))
        arrival = _first_arrival(_spec(chunks=self.CHUNKS))
        cut = arrival - 1.5 * _latency(engine, "decoder")  # on the wire

        def cut_then_drain():
            engine.run(until=cut)
            engine.simulator.run()

        labels = _labels(engine, cut_then_drain)
        assert labels == {"replay:inject": self.CHUNKS, "link0:deliver": 1}
        assert engine.report().flows[0].delivered == self.CHUNKS
