"""Tests for the ZipLine control plane manager."""

import pytest

from repro.controlplane import events
from repro.controlplane.events import (
    DecoderMappingInstalled,
    DigestIgnored,
    EncoderMappingInstalled,
    MappingEvicted,
)
from repro.controlplane.manager import (
    LEARN_DIGEST,
    ControlPlaneTimings,
    ZipLineControlPlane,
    apply_switch_command,
)
from repro.exceptions import ControlPlaneError
from repro.sim import Simulator
from repro.tofino.digest import DigestEngine


class FakeEncoderSwitch:
    """Minimal stand-in implementing the encoder-side control interface."""

    def __init__(self):
        self.mappings = {}
        self.install_times = []
        self.expired = []

    def install_basis_mapping(self, basis, identifier, ttl=None):
        self.mappings[basis] = identifier

    def remove_basis_mapping(self, basis):
        self.mappings.pop(basis, None)

    def expired_bases(self, now):
        return list(self.expired)


class FakeDecoderSwitch:
    """Minimal stand-in implementing the decoder-side control interface."""

    def __init__(self):
        self.mappings = {}

    def install_identifier_mapping(self, identifier, basis):
        self.mappings[identifier] = basis

    def remove_identifier_mapping(self, identifier):
        self.mappings.pop(identifier, None)


def build(simulator=None, identifier_bits=4, entry_ttl=None, timings=None,
          digest_latency=0.9e-3):
    engine = DigestEngine(simulator, delivery_latency=digest_latency)
    encoder = FakeEncoderSwitch()
    decoder = FakeDecoderSwitch()
    manager = ZipLineControlPlane(
        digest_engine=engine,
        encoder_switch=encoder,
        decoder_switch=decoder,
        simulator=simulator,
        identifier_bits=identifier_bits,
        entry_ttl=entry_ttl,
        timings=timings,
        seed=0,
    )
    return engine, encoder, decoder, manager


class TestLearning:
    def test_digest_learns_a_mapping_synchronously(self):
        engine, encoder, decoder, manager = build(simulator=None)
        engine.emit(LEARN_DIGEST, {"basis": 0xAB})
        assert encoder.mappings == {0xAB: 0}
        assert decoder.mappings == {0: 0xAB}
        assert manager.stats.mappings_learned == 1

    def test_decoder_mapping_installed_before_encoder_mapping(self):
        simulator = Simulator()
        engine, encoder, decoder, manager = build(simulator=simulator)
        engine.emit(LEARN_DIGEST, {"basis": 7})
        simulator.run()
        decoder_event = manager.events.of_type(DecoderMappingInstalled)[-1]
        encoder_event = manager.events.of_type(EncoderMappingInstalled)[-1]
        assert decoder_event is not None and encoder_event is not None
        assert decoder_event.time < encoder_event.time

    def test_learning_latency_matches_paper(self):
        # digest (0.9 ms) + processing (0.27 ms) + 2 table writes (0.3 ms
        # each) = 1.77 ms end to end, the paper's measured value.
        simulator = Simulator()
        timings = ControlPlaneTimings(jitter_fraction=0.0)
        engine, encoder, decoder, manager = build(simulator=simulator, timings=timings)
        engine.emit(LEARN_DIGEST, {"basis": 7})
        simulator.run()
        event = manager.events.of_type(EncoderMappingInstalled)[-1]
        assert event.time == pytest.approx(1.77e-3, rel=1e-6)

    def test_duplicate_digests_are_ignored(self):
        simulator = Simulator()
        engine, encoder, decoder, manager = build(simulator=simulator)
        engine.emit(LEARN_DIGEST, {"basis": 7})
        engine.emit(LEARN_DIGEST, {"basis": 7})  # while the first is pending
        simulator.run()
        engine.emit(LEARN_DIGEST, {"basis": 7})  # after it is installed
        simulator.run()
        assert manager.stats.mappings_learned == 1
        assert manager.stats.digests_ignored == 2
        reasons = {event.reason for event in manager.events.of_type(DigestIgnored)}
        assert reasons == {"install pending", "already mapped"}

    def test_missing_basis_field_rejected(self):
        engine, encoder, decoder, manager = build(simulator=None)
        with pytest.raises(ControlPlaneError):
            engine.emit(LEARN_DIGEST, {"wrong": 1})

    def test_invalid_identifier_bits(self):
        with pytest.raises(ControlPlaneError):
            ZipLineControlPlane(DigestEngine(), identifier_bits=0)


class TestRecycling:
    def test_lru_recycling_removes_mappings_from_both_switches(self):
        engine, encoder, decoder, manager = build(simulator=None, identifier_bits=1)
        engine.emit(LEARN_DIGEST, {"basis": 1})
        engine.emit(LEARN_DIGEST, {"basis": 2})
        engine.emit(LEARN_DIGEST, {"basis": 3})
        assert manager.stats.mappings_recycled == 1
        assert 1 not in encoder.mappings  # basis 1 was the LRU binding
        assert len(encoder.mappings) == 2
        assert len(decoder.mappings) == 2
        evicted = manager.events.of_type(MappingEvicted)
        assert evicted and evicted[0].basis == 1

    def test_idle_timeout_sweep_releases_mappings(self):
        simulator = Simulator()
        timings = ControlPlaneTimings(idle_poll_interval=10e-3, jitter_fraction=0.0)
        engine, encoder, decoder, manager = build(
            simulator=simulator, entry_ttl=1.0, timings=timings
        )
        engine.emit(LEARN_DIGEST, {"basis": 5})
        simulator.run(until=5e-3)
        assert 5 in encoder.mappings
        encoder.expired = [5]
        simulator.run(until=30e-3)
        assert manager.stats.mappings_expired >= 1
        assert 5 not in encoder.mappings
        assert manager.pool.identifier_for(5) is None


class TestStaticPreload:
    def test_preload_installs_both_directions_immediately(self):
        engine, encoder, decoder, manager = build(simulator=None)
        count = manager.preload_static_mappings([10, 11, 12, 10])
        assert count == 3
        assert set(encoder.mappings) == {10, 11, 12}
        assert set(decoder.mappings.values()) == {10, 11, 12}

    def test_preload_skips_already_mapped(self):
        engine, encoder, decoder, manager = build(simulator=None)
        manager.preload_static_mappings([10])
        assert manager.preload_static_mappings([10, 11]) == 1


class TestTimings:
    def test_jitter_bounds(self):
        import random

        timings = ControlPlaneTimings(jitter_fraction=0.1)
        rng = random.Random(0)
        for _ in range(100):
            value = timings.jittered(1e-3, rng)
            assert 0.9e-3 <= value <= 1.1e-3

    def test_zero_jitter(self):
        import random

        timings = ControlPlaneTimings(jitter_fraction=0.0)
        assert timings.jittered(1e-3, random.Random(0)) == 1e-3

    def test_stats_dict(self):
        engine, encoder, decoder, manager = build(simulator=None)
        engine.emit(LEARN_DIGEST, {"basis": 3})
        stats = manager.stats.as_dict()
        assert stats["mappings_learned"] == 1
        assert stats["digests_received"] == 1


class TestOneDispatcher:
    def test_a_direct_write_is_the_degenerate_transport(self):
        # No transport given == a transport that applies the command to the
        # decoder at once and acknowledges it inline.
        def drive(with_transport):
            simulator = Simulator()
            engine = DigestEngine(simulator, delivery_latency=0.9e-3)
            encoder, decoder = FakeEncoderSwitch(), FakeDecoderSwitch()

            def transport(command, on_applied=None, on_drop=None):
                apply_switch_command(decoder, command)
                if on_applied is not None:
                    on_applied()

            manager = ZipLineControlPlane(
                digest_engine=engine,
                encoder_switch=encoder,
                decoder_switch=decoder,
                simulator=simulator,
                identifier_bits=2,
                seed=0,
                decoder_transport=transport if with_transport else None,
            )
            for offset, basis in enumerate([1, 2, 3, 4, 5, 1, 6, 2]):
                simulator.schedule_at(
                    offset * 1e-3, lambda b=basis: engine.emit(LEARN_DIGEST, {"basis": b})
                )
            simulator.schedule_at(4.5e-3, lambda: manager.force_evict(2))
            simulator.run()
            manager.resync_decoder()
            return (
                list(manager.events),
                manager.snapshot_state(),
                manager.stats.as_dict(),
                encoder.mappings,
                decoder.mappings,
            )

        direct, transported = drive(False), drive(True)
        assert direct == transported
        assert direct[2]["mappings_recycled"] > 0 and direct[2]["storm_evictions"] == 2

    def test_a_decoder_reached_only_through_a_transport_gets_every_command(self):
        sent = []

        def transport(command, on_applied=None, on_drop=None):
            sent.append(dict(command))
            if on_applied is not None:
                on_applied()

        engine = DigestEngine(None)
        manager = ZipLineControlPlane(
            digest_engine=engine, identifier_bits=1, decoder_transport=transport
        )
        for basis in (7, 8, 9):
            engine.emit(LEARN_DIGEST, {"basis": basis})
        assert [(command["op"], command["identifier"]) for command in sent] == [
            ("install_identifier", 0),
            ("install_identifier", 1),
            ("remove_identifier", 0),
            ("install_identifier", 0),
        ]
        assert manager.pool.bindings() == {1: 8, 0: 9}

    def test_unknown_operation_is_a_control_plane_error(self):
        with pytest.raises(ControlPlaneError, match="unknown control command 'reboot'"):
            apply_switch_command(FakeDecoderSwitch(), {"op": "reboot"})


class TestEventLogIsBounded:
    def test_keeps_the_most_recent_events_and_counts_the_rest(self, monkeypatch):
        monkeypatch.setattr(events, "MAX_EVENTS", 4)
        log = events.EventLog()
        for time in range(10):
            log.append(events.DigestReceived(time=float(time), basis=time))
        assert (len(log), log.dropped) == (4, 6)
        assert [event.basis for event in log] == [6, 7, 8, 9]
        assert log.of_type(events.DigestReceived)[-1].basis == 9

    def test_the_constant_is_far_above_what_tests_and_examples_read(self):
        engine, _encoder, _decoder, manager = build(simulator=None, identifier_bits=3)
        for basis in range(200):
            engine.emit(LEARN_DIGEST, {"basis": basis % 20})
        assert manager.events.dropped == 0
        assert 200 < len(manager.events) < events.MAX_EVENTS // 16
