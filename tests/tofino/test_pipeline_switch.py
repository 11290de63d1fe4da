"""Tests for the pipeline, digest engine and switch chassis."""

from functools import partial

import pytest

from repro.exceptions import ControlPlaneError, PipelineError, SimulationError
from repro.sim import Simulator
from repro.tofino.digest import DigestEngine
from repro.tofino.parser import Deparser, HeaderType, Parser, ParserState
from repro.tofino.pipeline import PacketContext, Pipeline
from repro.tofino.switch import TofinoSwitch

ETHERNET = HeaderType("ethernet_h", [("dst", 48), ("src", 48), ("ether_type", 16)])


def forwarding_pipeline(egress_port=1, emit_digest=False, drop=False):
    """A trivial program: parse Ethernet, forward to a fixed port."""

    def ingress(context: PacketContext) -> None:
        if emit_digest:
            context.emit_digest("seen", {"ether_type": context.packet.header("ethernet")["ether_type"]})
        if drop:
            context.drop()
        else:
            context.send_to_port(egress_port)

    parser = Parser([ParserState(name="start", extract=("ethernet", ETHERNET))])
    return Pipeline(
        name="forward",
        parser=parser,
        ingress=ingress,
        deparser=Deparser(["ethernet"]),
    )


def frame(ether_type=0x0800, payload=b"x" * 20):
    return bytes(6) + bytes(6) + ether_type.to_bytes(2, "big") + payload


class TestPipeline:
    def test_forwarding(self):
        pipeline = forwarding_pipeline()
        result = pipeline.process(frame(), ingress_port=0)
        assert result.egress_port == 1
        assert result.frame == frame()
        assert not result.dropped
        assert pipeline.packets_processed == 1

    def test_drop(self):
        pipeline = forwarding_pipeline(drop=True)
        result = pipeline.process(frame(), ingress_port=0)
        assert result.dropped
        assert pipeline.packets_dropped == 1

    def test_parse_error_drops_without_crashing(self):
        pipeline = forwarding_pipeline()
        result = pipeline.process(b"\x00" * 5, ingress_port=0)
        assert result.dropped
        assert pipeline.parse_errors == 1

    def test_digest_collection(self):
        pipeline = forwarding_pipeline(emit_digest=True)
        result = pipeline.process(frame(0x1234), ingress_port=0)
        assert result.digests == (("seen", {"ether_type": 0x1234}),)

    def test_invalid_ports(self):
        pipeline = forwarding_pipeline()
        with pytest.raises(PipelineError):
            pipeline.process(frame(), ingress_port=-1)
        context = PacketContext(packet=None, ingress_port=0)
        with pytest.raises(PipelineError):
            context.send_to_port(-2)

    def test_negative_latency_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline(
                name="bad",
                parser=Parser([ParserState(name="start")]),
                ingress=lambda ctx: None,
                deparser=Deparser(["ethernet"]),
                pipeline_latency=-1.0,
            )


class TestDigestEngine:
    def test_synchronous_delivery_without_simulator(self):
        engine = DigestEngine()
        received = []
        engine.subscribe("learn", received.append)
        assert engine.emit("learn", {"basis": 5})
        assert len(received) == 1
        assert received[0].data == {"basis": 5}
        assert engine.delivered == 1

    def test_timed_delivery_with_simulator(self):
        simulator = Simulator()
        engine = DigestEngine(simulator, delivery_latency=0.5e-3)
        times = []
        engine.subscribe("learn", lambda message: times.append(simulator.now))
        engine.emit("learn", {"basis": 1})
        assert times == []  # not yet delivered
        simulator.run()
        assert times == [pytest.approx(0.5e-3)]

    def test_delivery_events_share_one_label_per_digest_type(self):
        """The per-digest event carries a bound-method partial and a label
        formatted once per digest type, not a closure and an f-string each."""
        simulator = Simulator()
        engine = DigestEngine(simulator)
        got = []
        engine.subscribe("learn", got.append)
        engine.subscribe("other", got.append)
        scheduled = []
        schedule_at = simulator.schedule_at

        def recording(time, callback, description=""):
            scheduled.append((callback, description))
            return schedule_at(time, callback, description)

        simulator.schedule_at = recording
        for digest_type in ("learn", "other", "learn"):
            engine.emit(digest_type, {"basis": len(scheduled)})
        simulator.run()
        labels = [label for _callback, label in scheduled]
        assert labels == ["digest:learn", "digest:other", "digest:learn"]
        assert labels[0] is labels[2]
        assert all(type(callback) is partial for callback, _label in scheduled)
        assert [message.data["basis"] for message in got] == [0, 1, 2]
        assert engine.delivered == 3 and engine.dropped == 0

    def test_queue_overflow_drops(self):
        simulator = Simulator()
        engine = DigestEngine(simulator, queue_depth=2)
        engine.subscribe("learn", lambda message: None)
        assert engine.emit("learn", {})
        assert engine.emit("learn", {})
        assert not engine.emit("learn", {})
        assert engine.dropped == 1
        simulator.run()
        assert engine.delivered == 2

    def test_emit_without_subscriber_and_validation(self):
        engine = DigestEngine()
        engine.emit("learn", {})  # no subscriber, still fine
        with pytest.raises(ControlPlaneError):
            engine.subscribe("learn", "not callable")
        with pytest.raises(ControlPlaneError):
            DigestEngine(delivery_latency=-1)
        with pytest.raises(ControlPlaneError):
            DigestEngine(queue_depth=0)


class TestTofinoSwitch:
    def test_receive_and_deliver(self):
        delivered = []
        switch = TofinoSwitch("sw", forwarding_pipeline(egress_port=2))
        switch.attach_port(2, lambda data, time: delivered.append(data))
        switch.receive(frame(), ingress_port=0)
        assert delivered == [frame()]
        assert switch.port_stats(0).rx_packets == 1
        assert switch.port_stats(2).tx_packets == 1

    def test_delivery_uses_simulator_latency(self):
        simulator = Simulator()
        delivered = []
        switch = TofinoSwitch("sw", forwarding_pipeline(egress_port=1), simulator=simulator)
        switch.attach_port(1, lambda data, time: delivered.append(time))
        switch.receive(frame(), ingress_port=0)
        assert delivered == []
        simulator.run()
        assert delivered[0] == pytest.approx(switch.pipeline.pipeline_latency)

    def test_unattached_port_discards_silently(self):
        switch = TofinoSwitch("sw", forwarding_pipeline(egress_port=3))
        switch.receive(frame(), ingress_port=0)
        assert switch.port_stats(3).tx_packets == 1

    def test_digests_forwarded_to_engine(self):
        switch = TofinoSwitch("sw", forwarding_pipeline(emit_digest=True))
        switch.receive(frame(), ingress_port=0)
        assert switch.digest_engine.emitted == 1

    def test_port_validation(self):
        switch = TofinoSwitch("sw", forwarding_pipeline(), port_count=4)
        with pytest.raises(PipelineError):
            switch.receive(frame(), ingress_port=4)
        with pytest.raises(PipelineError):
            switch.attach_port(9, lambda d, t: None)
        with pytest.raises(PipelineError):
            switch.attach_port(0, "not callable")
        with pytest.raises(PipelineError):
            TofinoSwitch("bad", forwarding_pipeline(), port_count=0)

    def test_transmit_names_a_bad_port(self):
        # The receive side of the same rule, on the compiled ZipLine
        # programs: tests/zipline/test_switch_fastpath.py::
        # TestEncoderSwitchFastPath::test_unknown_ingress_port_raises_before_anything_is_counted
        switch = TofinoSwitch("sw", forwarding_pipeline(), port_count=4)
        for bad in (4, -1, None):
            with pytest.raises(PipelineError, match="sw: port .* out of range"):
                switch.transmit(bad, frame(), 0.0)
            with pytest.raises(PipelineError, match="sw: port .* out of range"):
                switch.port_stats(bad)
        assert all(
            (stats.tx_packets, stats.rx_packets) == (0, 0)
            for stats in map(switch.port_stats, range(switch.port_count))
        )

    def test_transmit_schedules_one_labelled_event_per_frame(self):
        simulator = Simulator()
        delivered = []
        switch = TofinoSwitch("sw", forwarding_pipeline(), simulator=simulator)
        switch.attach_port(3, lambda data, time: delivered.append((data, time)))
        labels = []
        simulator.add_observer(lambda _time, label: labels.append(label))
        switch.transmit(3, frame(), 2e-6)
        assert delivered == []
        assert simulator.run() == 1
        assert delivered == [(frame(), 2e-6)]
        assert labels == ["sw:tx:3"]

    def test_a_timed_port_is_handed_the_frame_at_once_inside_a_run(self):
        """No transmit event: the sink is called during the receive, with
        the stamp the event would have carried, and a drained run rests
        the clock on that stamp."""
        simulator = Simulator()
        switch = TofinoSwitch("sw", forwarding_pipeline(), simulator=simulator)
        delivered = []
        switch.attach_port(
            1, lambda data, time: delivered.append((time, simulator.now)), timed=True
        )
        simulator.schedule_at(1.0, partial(switch.receive, frame(), 0))
        simulator.run()
        latency = switch.pipeline.pipeline_latency
        assert delivered == [(1.0 + latency, 1.0)]
        assert simulator.executed_events == 1
        assert simulator.now == simulator.latest_stamp == 1.0 + latency
        # Outside a run there is no horizon to hand anything on within.
        switch.receive(frame(), 0)
        assert len(delivered) == 1
        assert simulator.run() == 1
        assert len(delivered) == 2

    def test_past_the_horizon_a_timed_port_waits_and_keeps_its_order(self):
        """A frame whose stamp lies past ``run(until=…)`` keeps its transmit
        event, and later frames of the port wait behind it until it has
        run; after that the port hands frames on again."""
        simulator = Simulator()
        switch = TofinoSwitch("sw", forwarding_pipeline(), simulator=simulator)
        latency = switch.pipeline.pipeline_latency
        delivered = []
        switch.attach_port(1, lambda data, time: delivered.append(time), timed=True)
        arrivals = (1.0, 1.0 + 0.75 * latency, 1.0 + 3 * latency)
        for at in arrivals:
            simulator.schedule_at(at, partial(switch.receive, frame(), 0))
        simulator.run(until=1.0 + latency / 2)
        assert delivered == []
        simulator.run()
        assert delivered == [at + latency for at in arrivals]
        # Three receives and the two transmits that waited.
        assert simulator.executed_events == 5

    def test_transmit_rejects_a_negative_or_nan_latency(self):
        simulator = Simulator()
        switch = TofinoSwitch("sw", forwarding_pipeline(), simulator=simulator)
        switch.attach_port(1, lambda data, time: None)
        simulator.run(until=1.0)
        for bad in (-1e-6, float("nan")):
            with pytest.raises(SimulationError):
                switch.transmit(1, frame(), bad)
        assert simulator.run() == 0

    def test_port_counters(self):
        switch = TofinoSwitch("sw", forwarding_pipeline(egress_port=1))
        switch.receive(frame(), ingress_port=0)
        switch.receive(frame(), ingress_port=0)
        assert (switch.port_stats(0).rx_packets, switch.port_stats(0).tx_packets) == (2, 0)
        assert (switch.port_stats(1).rx_packets, switch.port_stats(1).tx_packets) == (0, 2)
        assert switch.port_stats(1).tx_bytes == 2 * len(frame())
