"""Tests for the pipeline record, digest engine and switch chassis."""

from functools import partial

import pytest

from repro.exceptions import ControlPlaneError, PipelineError, SimulationError
from repro.sim import Simulator
from repro.tofino.digest import DigestEngine
from repro.tofino.pipeline import Pipeline
from repro.tofino.switch import TofinoSwitch
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK


def chassis(port_count=32, simulator=None):
    """A bare chassis: ports and a digest engine, hosting no program."""
    return TofinoSwitch(
        "sw", Pipeline("forward"), simulator=simulator, port_count=port_count
    )


def frame(ether_type=0x0800, payload=b"x" * 20):
    return bytes(6) + bytes(6) + ether_type.to_bytes(2, "big") + payload


LATENCY = Pipeline("any").pipeline_latency


class TestPipeline:
    def test_accounting_starts_at_zero(self):
        pipeline = Pipeline("forward")
        assert (pipeline.name, pipeline.pipeline_latency) == ("forward", 0.6e-6)
        assert pipeline.packets_processed == pipeline.packets_dropped == 0
        assert pipeline.parse_errors == 0

    def test_negative_latency_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline(name="bad", pipeline_latency=-1.0)


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
    """The chassis: ports, ``transmit`` and the digest path.  A frame is
    received by the program the chassis hosts; the cases that need one run
    a ZipLine encoder."""

    def test_transmit_and_deliver(self):
        delivered = []
        switch = chassis()
        switch.attach_port(2, lambda data, time: delivered.append(data))
        switch.transmit(2, frame(), LATENCY)
        assert delivered == [frame()]
        assert switch.port_stats(2).tx_packets == 1
        assert switch.port_stats(0).rx_packets == 0

    def test_delivery_uses_simulator_latency(self):
        simulator = Simulator()
        delivered = []
        switch = chassis(simulator=simulator)
        switch.attach_port(1, lambda data, time: delivered.append(time))
        switch.transmit(1, frame(), LATENCY)
        assert delivered == []
        simulator.run()
        assert delivered[0] == pytest.approx(switch.pipeline.pipeline_latency)

    def test_unattached_port_discards_silently(self):
        switch = chassis()
        switch.transmit(3, frame(), LATENCY)
        assert switch.port_stats(3).tx_packets == 1

    def test_a_program_forwards_its_digests_to_the_engine(self):
        program = ZipLineEncoderSwitch(forwarding={0: 1})
        program.receive(frame(ETHERTYPE_RAW_CHUNK, bytes(32)), ingress_port=0)
        assert program.switch.digest_engine.emitted == 1

    def test_port_validation(self):
        program = ZipLineEncoderSwitch(forwarding={0: 1}, port_count=4)
        with pytest.raises(PipelineError):
            program.receive(frame(), ingress_port=4)
        switch = chassis(port_count=4)
        with pytest.raises(PipelineError):
            switch.attach_port(9, lambda d, t: None)
        with pytest.raises(PipelineError):
            switch.attach_port(0, "not callable")
        with pytest.raises(PipelineError):
            TofinoSwitch("bad", Pipeline("forward"), port_count=0)

    def test_transmit_names_a_bad_port(self):
        # The receive side of the same rule, on the compiled ZipLine
        # programs: tests/zipline/test_switch_fastpath.py::
        # TestEncoderSwitchFastPath::test_unknown_ingress_port_raises_before_anything_is_counted
        switch = chassis(port_count=4)
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
        switch = chassis(simulator=simulator)
        switch.attach_port(3, lambda data, time: delivered.append((data, time)))
        labels = []
        simulator.add_observer(lambda _time, label: labels.append(label))
        switch.transmit(3, frame(), 2e-6)
        assert delivered == []
        assert simulator.run() == 1
        assert delivered == [(frame(), 2e-6)]
        assert labels == ["sw:tx:3"]

    def test_a_timed_port_is_handed_the_frame_at_once_inside_a_run(self):
        """No transmit event: the sink is called during the event that
        transmits, with the stamp the event would have carried, and a
        drained run rests the clock on that stamp."""
        simulator = Simulator()
        switch = chassis(simulator=simulator)
        delivered = []
        switch.attach_port(
            1, lambda data, time: delivered.append((time, simulator.now)), timed=True
        )
        simulator.schedule_at(1.0, partial(switch.transmit, 1, frame(), LATENCY))
        simulator.run()
        assert delivered == [(1.0 + LATENCY, 1.0)]
        assert simulator.executed_events == 1
        assert simulator.now == simulator.latest_stamp == 1.0 + LATENCY
        # Outside a run there is no horizon to hand anything on within.
        switch.transmit(1, frame(), LATENCY)
        assert len(delivered) == 1
        assert simulator.run() == 1
        assert len(delivered) == 2

    def test_past_the_horizon_a_timed_port_waits_and_keeps_its_order(self):
        """A frame whose stamp lies past ``run(until=…)`` keeps its transmit
        event, and later frames of the port wait behind it until it has
        run; after that the port hands frames on again."""
        simulator = Simulator()
        switch = chassis(simulator=simulator)
        delivered = []
        switch.attach_port(1, lambda data, time: delivered.append(time), timed=True)
        arrivals = (1.0, 1.0 + 0.75 * LATENCY, 1.0 + 3 * LATENCY)
        for at in arrivals:
            simulator.schedule_at(at, partial(switch.transmit, 1, frame(), LATENCY))
        simulator.run(until=1.0 + LATENCY / 2)
        assert delivered == []
        simulator.run()
        assert delivered == [at + LATENCY for at in arrivals]
        # Three transmitting events and the two transmits that waited.
        assert simulator.executed_events == 5

    def test_transmit_rejects_a_negative_or_nan_latency(self):
        simulator = Simulator()
        switch = chassis(simulator=simulator)
        switch.attach_port(1, lambda data, time: None)
        simulator.run(until=1.0)
        for bad in (-1e-6, float("nan")):
            with pytest.raises(SimulationError):
                switch.transmit(1, frame(), bad)
        assert simulator.run() == 0

    def test_port_counters(self):
        program = ZipLineEncoderSwitch(forwarding={0: 1})
        program.receive(frame(), ingress_port=0)
        program.receive(frame(), ingress_port=0)
        switch = program.switch
        assert (switch.port_stats(0).rx_packets, switch.port_stats(0).tx_packets) == (2, 0)
        assert (switch.port_stats(1).rx_packets, switch.port_stats(1).tx_packets) == (0, 2)
        assert switch.port_stats(1).tx_bytes == 2 * len(frame())
