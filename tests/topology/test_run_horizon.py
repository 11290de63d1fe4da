"""What a run promises about frames inside a switch pipeline or on a wire.

A switch hands its output on stamped with the end of its pipeline latency
instead of spending a transmit event on it — into an emulated link, or
into a host — but never past the horizon of the run: ``run(until=t)``
reports nothing that happened after ``t``.  An edge into another switch
program, and each hop of a chain of links into the next, hands the frame
over at once too, stamped with its delivery instant, exactly when nothing
can reach the receiver before the stamp
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
from repro.zipline.decoder_switch import ZipLineDecoderSwitch


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


def _decoder_arrivals(monkeypatch, engine_of):
    """Run the engine ``engine_of()`` builds, recording ``(clock, stamp)``
    each time a frame enters the decoder program."""
    arrivals = []
    receive = ZipLineDecoderSwitch.receive

    def recording(self, frame, port, time=None):
        arrivals.append((self.switch.simulator.now, time))
        return receive(self, frame, port, time)

    monkeypatch.setattr(ZipLineDecoderSwitch, "receive", recording)
    engine = engine_of()
    labels = _labels(engine)
    return engine, labels, arrivals


class TestLookaheadRule:
    """Which deliveries keep their event.

    A program with two data inputs keeps them all.  Otherwise an edge into
    a switch program, and each hop of a chain of links into the next,
    hands a frame over at once unless something can reach the receiver
    first: a frame the impairment model delays (it keeps its own event), a
    write pending at or before the frame's stamp, a stamp past ``until``
    or farther ahead than a new control write could land — and then every
    later frame of the link waits behind it.  A static chain of any length
    spends one event per chunk: its injection.
    """

    CHUNKS = 20

    @pytest.mark.parametrize(
        "build, hops",
        [(linear_topology, 1), (linear_topology, 3), (paper_testbed_topology, None)],
    )
    def test_an_edge_the_rule_admits_spends_no_event(self, build, hops):
        params = dict(chunks=self.CHUNKS, bases=2, packet_rate=1e3,
                      scenario="static", seed=7)
        if hops is not None:
            params["hops"] = hops
        engine = TopologyEngine(build(**params))
        assert _labels(engine) == {"replay:inject": self.CHUNKS}
        assert engine.report().flows[0].delivered == self.CHUNKS

    def test_only_a_reordered_frame_keeps_its_delivery_event(self):
        """On every hop of a reordering chain — into the next link and into
        the decoder alike — the frames the impairment model delays keep
        their delivery events, and no other frame does."""
        engine = TopologyEngine(_spec(chunks=self.CHUNKS, hops=3, reorder=0.3))
        labels = _labels(engine)
        counters = engine.report().metrics.as_dict()["counters"]
        for hop in range(3):
            assert counters[f"link{hop}.reordered"] > 0
            assert labels[f"link{hop}:deliver"] == counters[f"link{hop}.reordered"]
        assert engine.report().flows[0].delivered == self.CHUNKS

    def test_a_program_with_two_data_inputs_keeps_their_events(self):
        engine = TopologyEngine(_two_input_encoder_spec(self.CHUNKS))
        labels = _labels(engine)
        assert labels == {
            "replay:inject": 2 * self.CHUNKS,
            "in0:deliver": self.CHUNKS,
            "in1:deliver": self.CHUNKS,
        }
        assert sum(flow.delivered for flow in engine.report().flows) == 2 * self.CHUNKS

    def test_a_write_pending_at_t_holds_frames_stamped_from_t_on(self, monkeypatch):
        """A decoder restart pending at T, on a 50 µs wire with a frame
        sent every millisecond: the one frame on the wire across T keeps
        its delivery event and reaches the decoder once the restart has
        run; every other frame, stamped before T or sent after it, is
        handed over the moment it is sent."""
        restart = 9.02e-3  # the tenth frame is sent at 9 ms, stamped ~9.05 ms

        def engine_of():
            spec = _spec(chunks=self.CHUNKS, bases=2, propagation_us=50.0)
            spec.faults = FaultPlan(restarts=(NodeRestart(node="decoder", time=restart),))
            return TopologyEngine(spec)

        engine, labels, arrivals = _decoder_arrivals(monkeypatch, engine_of)
        assert engine.report().metrics.counter("faults.restarts") == 1
        assert labels["link0:deliver"] == 1
        assert len(arrivals) == self.CHUNKS
        # Nothing stamped from T on reaches the decoder before T ...
        assert all(clock >= restart for clock, stamp in arrivals if stamp >= restart)
        # ... and only the frame on the wire across T waits for its stamp:
        # every other one, stamped before T or sent after it, arrives the
        # moment it is sent, ahead of its stamp.
        waited = [(clock, stamp) for clock, stamp in arrivals if clock == stamp]
        assert len(waited) == 1 and waited[0][1] >= restart
        assert sum(clock < stamp for clock, stamp in arrivals) == self.CHUNKS - 1

    @pytest.mark.parametrize("build", [linear_topology, paper_testbed_topology])
    def test_a_write_pending_after_every_stamp_holds_nothing(self, build):
        """A dynamic run shorter than the digest latency: every frame is
        sent while learn digests are on their way to the control plane,
        yet each is stamped before the earliest of them lands, so the wire
        and the direct encoder → decoder hop hand every frame over."""
        spec = build(chunks=self.CHUNKS, bases=2, packet_rate=1e5,
                     scenario="dynamic", seed=7)
        engine = TopologyEngine(spec)
        labels = _labels(engine)
        assert labels["digest:zipline_learn_basis"] == self.CHUNKS
        assert set(labels) == {
            "replay:inject", "digest:zipline_learn_basis", "control-plane step",
        }
        assert engine.report().metrics.counter("controlplane.mappings_learned") > 0

    @pytest.mark.parametrize("scenario", ["static", "no_table"])
    def test_a_stamp_beyond_the_control_planes_reaction_keeps_its_event(
        self, scenario, monkeypatch
    ):
        """A write nothing has started yet can land on the decoder a digest
        latency plus a processing step (~1.16 ms) after any instant.  With
        a control plane, a 2 ms wire hands no frame over when it is sent;
        each is owed, and the event of the oldest hands the next one over
        once it is stamped less than that ahead of the clock — one event
        for every other frame at a frame per millisecond.  Without one
        nothing can write the decoder, and the wire hands every frame over
        at once."""

        def engine_of():
            return TopologyEngine(
                _spec(chunks=self.CHUNKS, propagation_us=2000.0, scenario=scenario)
            )

        engine, labels, arrivals = _decoder_arrivals(monkeypatch, engine_of)
        if scenario == "no_table":
            assert labels.get("link0:deliver", 0) == 0
            return
        reaction = engine.graph.node("decoder").lookahead.reaction
        assert 1e-3 < reaction < 2e-3
        assert labels["link0:deliver"] == self.CHUNKS // 2
        assert all(stamp - clock < reaction for clock, stamp in arrivals)

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
