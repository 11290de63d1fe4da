"""ControlChannel: command serialisation, delivery, and transports."""

import pytest

from repro.exceptions import ControlPlaneError
from repro.replay.link import EmulatedLink
from repro.sim.simulator import Simulator
from repro.topology import ControlChannel, apply_switch_command


class _RecordingSwitch:
    def __init__(self):
        self.calls = []

    def install_identifier_mapping(self, identifier, basis):
        self.calls.append(("install_identifier", identifier, basis))

    def remove_identifier_mapping(self, identifier):
        self.calls.append(("remove_identifier", identifier))

    def install_basis_mapping(self, basis, identifier, ttl):
        self.calls.append(("install_basis", basis, identifier, ttl))

    def remove_basis_mapping(self, basis):
        self.calls.append(("remove_basis", basis))


class TestApplySwitchCommand:
    def test_every_operation_dispatches(self):
        switch = _RecordingSwitch()
        apply_switch_command(
            switch, {"op": "install_identifier", "identifier": 3, "basis": 99}
        )
        apply_switch_command(switch, {"op": "remove_identifier", "identifier": 3})
        apply_switch_command(
            switch, {"op": "install_basis", "basis": 5, "identifier": 1, "ttl": 2.0}
        )
        apply_switch_command(switch, {"op": "remove_basis", "basis": 5})
        assert switch.calls == [
            ("install_identifier", 3, 99),
            ("remove_identifier", 3),
            ("install_basis", 5, 1, 2.0),
            ("remove_basis", 5),
        ]

    def test_unknown_operation_rejected(self):
        with pytest.raises(ControlPlaneError, match="unknown control command"):
            apply_switch_command(_RecordingSwitch(), {"op": "reboot"})


class TestControlChannel:
    def test_commands_arrive_after_link_latency(self):
        simulator = Simulator()
        link = EmulatedLink(
            simulator=simulator, name="ctl", bandwidth_bps=1e9,
            propagation_delay=10e-6,
        )
        switch = _RecordingSwitch()
        channel = ControlChannel(simulator, link, switch)
        channel.transport({"op": "install_identifier", "identifier": 7, "basis": 123})
        assert switch.calls == []  # in flight, not applied synchronously
        simulator.run()
        assert switch.calls == [("install_identifier", 7, 123)]
        assert simulator.now >= 10e-6  # at least the propagation delay
        assert channel.messages_sent == 1
        assert channel.messages_applied == 1
        assert channel.counters()["message_bytes"] > 14

    def test_control_plane_transport_defers_decoder_install(self):
        """With a transport, installs traverse the network; without, they don't."""
        from repro.controlplane.manager import ZipLineControlPlane
        from repro.tofino.digest import DigestEngine

        simulator = Simulator()
        link = EmulatedLink(
            simulator=simulator, name="ctl", bandwidth_bps=1e9,
            propagation_delay=5e-6,
        )
        decoder = _RecordingSwitch()
        channel = ControlChannel(simulator, link, decoder)
        digest_engine = DigestEngine(simulator)
        ZipLineControlPlane(
            digest_engine=digest_engine,
            decoder_switch=decoder,
            simulator=simulator,
            identifier_bits=4,
            seed=0,
            decoder_transport=channel.transport,
        )
        digest_engine.emit("zipline_learn_basis", {"basis": 77})
        simulator.run()
        assert ("install_identifier", 0, 77) in decoder.calls
        assert channel.messages_applied == 1


def _make_channel(simulator, rate=None, burst=8, queue_capacity=None,
                  propagation_delay=1e-6):
    link = EmulatedLink(
        simulator=simulator, name="ctl", bandwidth_bps=1e9,
        propagation_delay=propagation_delay,
    )
    switch = _RecordingSwitch()
    channel = ControlChannel(
        simulator, link, switch,
        rate=rate, burst=burst, queue_capacity=queue_capacity,
    )
    return link, switch, channel


class TestEpochIdempotency:
    """Regression: installs are idempotent by (identifier, epoch).

    Before the epoch guard, a reordered or duplicated install frame could
    re-apply an *older* binding for an identifier after a newer one — the
    decoder would then silently decode that identifier to the wrong basis
    (corruption, not loss).  The channel now stamps a monotone epoch on
    every identifier-carrying command and the receive side drops anything
    at or below the last applied epoch.
    """

    def _captured_frames(self, channel, link, commands):
        """Send commands while swallowing frames; return the wire bytes."""
        frames = []
        original_send = link.send
        link.send = lambda frame, time: frames.append(frame)
        try:
            for command in commands:
                channel.transport(command)
        finally:
            link.send = original_send
        return frames

    def test_reordered_install_cannot_resurrect_old_binding(self):
        simulator = Simulator()
        link, switch, channel = _make_channel(simulator)
        old, new = self._captured_frames(
            channel,
            link,
            [
                {"op": "install_identifier", "identifier": 3, "basis": 111},
                {"op": "install_identifier", "identifier": 3, "basis": 222},
            ],
        )
        # The wire reordered them: the newer binding arrives first.
        channel._on_frame(new, 1e-6)
        channel._on_frame(old, 2e-6)
        assert switch.calls == [("install_identifier", 3, 222)]
        assert channel.stale_ignored == 1
        assert channel.messages_applied == 1

    def test_duplicate_install_applies_once(self):
        simulator = Simulator()
        link, switch, channel = _make_channel(simulator)
        (frame,) = self._captured_frames(
            channel,
            link,
            [{"op": "install_identifier", "identifier": 5, "basis": 42}],
        )
        channel._on_frame(frame, 1e-6)
        channel._on_frame(frame, 2e-6)
        channel._on_frame(frame, 3e-6)
        assert switch.calls == [("install_identifier", 5, 42)]
        assert channel.stale_ignored == 2

    def test_stale_remove_is_ignored_after_newer_install(self):
        simulator = Simulator()
        link, switch, channel = _make_channel(simulator)
        remove, install = self._captured_frames(
            channel,
            link,
            [
                {"op": "remove_identifier", "identifier": 7},
                {"op": "install_identifier", "identifier": 7, "basis": 9},
            ],
        )
        channel._on_frame(install, 1e-6)
        channel._on_frame(remove, 2e-6)  # reordered: must not undo the install
        assert switch.calls == [("install_identifier", 7, 9)]
        assert channel.stale_ignored == 1

    def test_reordering_wire_never_regresses_switch_state(self):
        # End to end through a genuinely reordering link: the final applied
        # binding for every identifier equals the last one sent.
        from repro.replay.link import ImpairmentModel

        simulator = Simulator()
        link = EmulatedLink(
            simulator=simulator, name="ctl", bandwidth_bps=1e9,
            propagation_delay=1e-6,
            impairments=ImpairmentModel(
                reorder_probability=0.4, reorder_delay=50e-6, seed=7
            ),
        )
        switch = _RecordingSwitch()
        channel = ControlChannel(simulator, link, switch)
        import random

        rng = random.Random(3)
        last = {}
        for step in range(40):
            identifier = rng.randrange(4)
            basis = 100 + step
            last[identifier] = basis
            simulator.schedule_at(
                step * 5e-6,
                lambda i=identifier, b=basis: channel.transport(
                    {"op": "install_identifier", "identifier": i, "basis": b}
                ),
            )
        simulator.run()
        final = {}
        for call in switch.calls:
            final[call[1]] = call[2]
        assert final == last


class TestRateLimiting:
    def test_burst_then_paced_sends(self):
        simulator = Simulator()
        link, switch, channel = _make_channel(simulator, rate=1000.0, burst=2)
        for index in range(5):
            channel.transport(
                {"op": "install_identifier", "identifier": index, "basis": index}
            )
        assert channel.messages_sent == 2  # the burst goes out immediately
        assert channel.queue_depth == 3
        assert channel.deferred == 3
        simulator.run()
        assert channel.messages_sent == 5
        assert channel.queue_depth == 0
        # Three paced sends at 1000 cmd/s: the drain takes ~3 ms.
        assert simulator.now == pytest.approx(3e-3, rel=0.01)
        assert len(switch.calls) == 5

    def test_sub_token_refill_terminates(self):
        # Regression: the drain used to compare the refilled bucket against
        # exactly 1.0; the refill after a wait of (1 - tokens)/rate lands at
        # 0.999… in floating point, so the drain rescheduled itself with
        # ~1e-14 waits forever.  The epsilon comparison must terminate.
        simulator = Simulator()
        link, switch, channel = _make_channel(simulator, rate=5000.0, burst=1)
        for index in range(50):
            channel.transport(
                {"op": "install_identifier", "identifier": index, "basis": index}
            )
        simulator.run()  # must terminate
        assert channel.messages_sent == 50
        assert len(switch.calls) == 50

    def test_bounded_queue_drops_and_reports(self):
        simulator = Simulator()
        link, switch, channel = _make_channel(
            simulator, rate=1000.0, burst=1, queue_capacity=2
        )
        dropped = []
        for index in range(6):
            channel.transport(
                {"op": "install_identifier", "identifier": index, "basis": index},
                on_drop=lambda i=index: dropped.append(i),
            )
        # 1 sent from the burst, 2 queued, 3 dropped at the full queue.
        assert channel.dropped_backpressure == 3
        assert dropped == [3, 4, 5]
        simulator.run()
        assert channel.messages_sent == 3
        assert channel.counters()["dropped"] == 3

    def test_on_applied_fires_when_the_decoder_applies_the_write(self):
        simulator = Simulator()
        link, switch, channel = _make_channel(simulator, rate=1000.0, burst=1)
        applied_at = []
        channel.transport(
            {"op": "install_identifier", "identifier": 0, "basis": 0},
            on_applied=lambda: applied_at.append(simulator.now),
        )
        channel.transport(
            {"op": "install_identifier", "identifier": 1, "basis": 1},
            on_applied=lambda: applied_at.append(simulator.now),
        )
        # Acked-write model: nothing confirms until the frame arrives and
        # the decoder table is actually written — not at send time.
        assert applied_at == []
        simulator.run()
        assert len(applied_at) == 2
        assert len(switch.calls) == 2
        assert applied_at[0] >= 1e-6  # at least the link propagation delay
        # Second command waits a full pacing interval, then the wire.
        assert applied_at[1] >= 1e-3 + 1e-6

    def test_on_drop_fires_on_wire_loss(self):
        from repro.replay.link import ImpairmentModel

        simulator = Simulator()
        link = EmulatedLink(
            simulator=simulator, name="ctl", bandwidth_bps=1e9,
            propagation_delay=1e-6,
            impairments=ImpairmentModel(loss_probability=1.0, seed=3),
        )
        switch = _RecordingSwitch()
        channel = ControlChannel(simulator, link, switch)
        outcomes = []
        channel.transport(
            {"op": "install_identifier", "identifier": 0, "basis": 0},
            on_applied=lambda: outcomes.append("applied"),
            on_drop=lambda: outcomes.append("dropped"),
        )
        # Loss is detected synchronously from the link's drop counters, so
        # the issuer can roll its allocation back before anything else runs.
        assert outcomes == ["dropped"]
        simulator.run()
        assert outcomes == ["dropped"]
        assert switch.calls == []
        assert channel.counters()["dropped"] == 1
