"""Tests for the emulated link: serialisation, queueing, loss, reordering."""

import math
import random
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ReplayError, ReproError
from repro.net.ethernet import frame_wire_bytes
from repro.replay import EmulatedLink
from repro.replay.link import AHEAD, ImpairmentModel, LinkStats
from repro.sim.lookahead import Lookahead
from repro.sim.simulator import Simulator


def make_link(sim, **kwargs):
    arrivals = []
    link = EmulatedLink(sim, sink=lambda frame, time: arrivals.append((time, frame)), **kwargs)
    return link, arrivals


class TestSerialisation:
    def test_delivery_includes_serialisation_and_propagation(self):
        sim = Simulator()
        link, arrivals = make_link(sim, bandwidth_bps=1e9, propagation_delay=1e-6)
        frame = b"\x00" * 100
        link.send(frame, 0.0)
        sim.run()
        assert len(arrivals) == 1
        time, data = arrivals[0]
        # 100 B frame -> (100+4+8+12)*8 = 992 wire bits at 1 Gbit/s.
        assert time == pytest.approx(992 / 1e9 + 1e-6)
        assert data == frame

    def test_back_to_back_frames_queue_behind_each_other(self):
        sim = Simulator()
        link, arrivals = make_link(sim, bandwidth_bps=1e9, propagation_delay=0.0)
        for _ in range(3):
            link.send(b"\x00" * 100, 0.0)
        sim.run()
        serialisation = 992 / 1e9
        times = [time for time, _ in arrivals]
        assert times == pytest.approx(
            [serialisation, 2 * serialisation, 3 * serialisation]
        )
        assert link.stats.max_queue_depth == 3

    def test_busy_time_accumulates(self):
        sim = Simulator()
        link, _ = make_link(sim, bandwidth_bps=1e9)
        for _ in range(4):
            link.send(b"\x00" * 100, 0.0)
        sim.run()
        assert link.stats.busy_time == pytest.approx(4 * 992 / 1e9)

    def test_every_frame_length_gets_its_own_serialisation_delay(self):
        """The per-length memo returns the wire occupancy over the bandwidth,
        for lengths seen before and lengths seen for the first time alike."""
        sim = Simulator()
        link, arrivals = make_link(sim, bandwidth_bps=1e9, propagation_delay=0.0)
        lengths = [60, 1500, 60, 46, 9000, 1500, 61, 60]
        for index, length in enumerate(lengths):
            link.send(bytes(length), index * 1e-3)  # far apart: no queueing
        sim.run()

        def serialisation(length):
            return frame_wire_bytes(length) * 8 / 1e9

        assert [time for time, _ in arrivals] == [
            index * 1e-3 + serialisation(length)
            for index, length in enumerate(lengths)
        ]
        assert link.stats.busy_time == sum(serialisation(length) for length in lengths)

    def test_default_link_is_100_gbe_with_half_a_microsecond_of_propagation(self):
        sim = Simulator()
        link, arrivals = make_link(sim)
        link.send(bytes(1514), 0.0)
        sim.run()
        # 1514 B + 4 B FCS + 8 B preamble + 12 B gap = 1538 wire bytes.
        assert [time for time, _ in arrivals] == [1538 * 8 / 100e9 + 0.5e-6]

    def test_back_to_back_minimum_frames_arrive_at_the_line_rate_budget(self):
        sim = Simulator()
        link, arrivals = make_link(sim)
        for _ in range(100):
            link.send(bytes(60), 0.0)
        sim.run()
        times = [time for time, _ in arrivals]
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        # 84 wire bytes each: ≈ 148.8 Mpkt/s at 100 Gbit/s.
        assert gaps == pytest.approx([84 * 8 / 100e9] * 99)
        assert 1 / gaps[0] == pytest.approx(148.8e6, rel=0.01)


class TestBoundedQueue:
    def test_drop_tail_when_queue_full(self):
        sim = Simulator()
        link, arrivals = make_link(sim, bandwidth_bps=1e9, queue_capacity=2)
        for _ in range(5):
            link.send(b"\x00" * 100, 0.0)
        sim.run()
        assert link.stats.dropped_queue == 3
        assert link.stats.delivered == 2
        assert len(arrivals) == 2

    def test_queue_drains_over_time(self):
        sim = Simulator()
        link, arrivals = make_link(sim, bandwidth_bps=1e9, queue_capacity=2)
        serialisation = 992 / 1e9
        link.send(b"\x00" * 100, 0.0)
        link.send(b"\x00" * 100, 0.0)
        sim.run()
        link.send(b"\x00" * 100, sim.now)
        sim.run()
        assert link.stats.dropped_queue == 0
        assert link.stats.delivered == 3

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ReplayError):
            EmulatedLink(Simulator(), queue_capacity=0)


class TestImpairmentModel:
    def test_same_seed_same_decisions(self):
        first = ImpairmentModel(loss_probability=0.3, reorder_probability=0.2, seed=11)
        second = ImpairmentModel(loss_probability=0.3, reorder_probability=0.2, seed=11)
        decisions = [
            (first.should_drop(), first.reorder_penalty()) for _ in range(500)
        ]
        assert decisions == [
            (second.should_drop(), second.reorder_penalty()) for _ in range(500)
        ]
        assert any(drop for drop, _ in decisions)
        assert any(penalty > 0 for _, penalty in decisions)

    def test_different_seeds_diverge(self):
        first = ImpairmentModel(loss_probability=0.5, seed=1)
        second = ImpairmentModel(loss_probability=0.5, seed=2)
        assert [first.should_drop() for _ in range(200)] != [
            second.should_drop() for _ in range(200)
        ]

    def test_fork_is_deterministic_and_independent(self):
        base = ImpairmentModel(loss_probability=0.4, seed=9)
        fork_a = base.fork(0)
        fork_b = base.fork(1)
        fork_a_again = ImpairmentModel(loss_probability=0.4, seed=9).fork(0)
        stream_a = [fork_a.should_drop() for _ in range(200)]
        assert stream_a == [fork_a_again.should_drop() for _ in range(200)]
        assert stream_a != [fork_b.should_drop() for _ in range(200)]
        with pytest.raises(ReproError):
            base.fork(-1)

    def test_fork_seeds_are_pinned(self):
        """Reports of multi-hop runs depend on these exact streams."""
        assert ImpairmentModel(seed=9).fork(0).seed == 9 * 1_000_003 + 1
        assert ImpairmentModel(seed=5_000).fork(3).seed == (
            5_000 * 1_000_003 + 4
        ) & 0xFFFFFFFF
        fork = ImpairmentModel(loss_probability=0.4, seed=9).fork(2)
        rng = random.Random(9 * 1_000_003 + 3)
        assert [fork.should_drop() for _ in range(100)] == [
            rng.random() < 0.4 for _ in range(100)
        ]

    def test_fork_keeps_the_parameters(self):
        base = ImpairmentModel(
            loss_probability=0.1, reorder_probability=0.2, reorder_delay=3e-6, seed=4
        )
        fork = base.fork(7)
        assert (fork.loss_probability, fork.reorder_probability, fork.reorder_delay) == (
            0.1, 0.2, 3e-6
        )
        assert fork.seed != base.seed

    def test_no_impairment_never_draws(self):
        model = ImpairmentModel(seed=3)
        assert not model.should_drop()
        assert model.reorder_penalty() == 0.0

    def test_a_disabled_impairment_leaves_the_other_stream_alone(self):
        """Loss-only draws no reorder decisions, reorder-only no loss ones."""
        alone = ImpairmentModel(loss_probability=0.3, seed=6)
        interleaved = ImpairmentModel(loss_probability=0.3, seed=6)
        drops = []
        for _ in range(200):
            assert interleaved.reorder_penalty() == 0.0
            drops.append(interleaved.should_drop())
        assert drops == [alone.should_drop() for _ in range(200)]

        alone = ImpairmentModel(reorder_probability=0.3, seed=6)
        interleaved = ImpairmentModel(reorder_probability=0.3, seed=6)
        penalties = []
        for _ in range(200):
            assert not interleaved.should_drop()
            penalties.append(interleaved.reorder_penalty())
        assert penalties == [alone.reorder_penalty() for _ in range(200)]

    def test_certain_loss_and_reordering(self):
        lossy = ImpairmentModel(loss_probability=1.0, seed=1)
        assert all(lossy.should_drop() for _ in range(100))
        late = ImpairmentModel(reorder_probability=1.0, reorder_delay=2e-6, seed=1)
        assert {late.reorder_penalty() for _ in range(100)} == {2e-6}

    def test_validation(self):
        with pytest.raises(ReproError):
            ImpairmentModel(loss_probability=1.5)
        with pytest.raises(ReproError):
            ImpairmentModel(reorder_probability=-0.1)
        with pytest.raises(ReproError):
            ImpairmentModel(reorder_delay=-1e-6)


class TestImpairments:
    def test_seeded_loss_is_deterministic(self):
        def run(seed):
            sim = Simulator()
            link, arrivals = make_link(
                sim, impairments=ImpairmentModel(loss_probability=0.3, seed=seed)
            )
            for index in range(200):
                link.send(bytes([index % 256]) * 60, sim.now)
                sim.run()
            return link.stats.dropped_loss, [data for _, data in arrivals]

        first_drops, first_frames = run(7)
        second_drops, second_frames = run(7)
        other_drops, _ = run(8)
        assert first_drops > 0
        assert (first_drops, first_frames) == (second_drops, second_frames)
        assert other_drops != first_drops or run(8)[1] != first_frames

    def test_reordering_lets_later_frames_overtake(self):
        sim = Simulator()
        # Reorder every frame deterministically via probability 1 on frame 0
        # only: use a generous penalty and two frames, first gets penalty.
        link, arrivals = make_link(
            sim,
            bandwidth_bps=1e12,
            propagation_delay=0.0,
            impairments=ImpairmentModel(
                reorder_probability=0.5, reorder_delay=1e-3, seed=3
            ),
        )
        for index in range(20):
            link.send(bytes([index]) * 60, sim.now)
        sim.run()
        assert link.stats.reordered > 0
        order = [data[0] for _, data in arrivals]
        assert order != sorted(order)
        # Nothing lost: reordering only delays.
        assert sorted(order) == list(range(20))

    @staticmethod
    def _delayed_into_an_admitting_receiver(
        bandwidth_bps, size=60, delay=10e-6, propagation=0.5e-6
    ):
        """One frame of ``size`` bytes, delayed by ``delay``, sent from an
        event at 0 into a link whose receiver's lookahead admits everything
        nothing holds: the link, the receiver, the arrivals as ``(clock,
        stamp)``, the link's delivery events and the frame's completion."""
        simulator = Simulator()
        arrivals = []
        link = EmulatedLink(
            simulator,
            bandwidth_bps=bandwidth_bps,
            propagation_delay=propagation,
            impairments=ImpairmentModel(reorder_probability=1.0, reorder_delay=delay, seed=1),
        )
        receiver = Lookahead(simulator)
        link.attach(lambda frame, time: arrivals.append((simulator.now, time)), receiver)
        events = []
        simulator.add_observer(lambda _time, label: events.append(label))
        simulator.schedule_at(0.0, lambda: link.send(bytes(size), 0.0))
        simulator.run()
        done = frame_wire_bytes(size) * 8 / bandwidth_bps
        return link, receiver, arrivals, events.count("link:deliver"), done

    def test_a_delay_no_later_frame_can_overtake_holds_nothing(self):
        """At 66 Mb/s the shortest frame serialises in 10.18 µs, longer
        than the 10 µs delay: no frame sent later can be delivered first,
        so the delayed frame reaches the admitting receiver at once, from
        the send's event, stamped with its delayed instant, and raises no
        ``hold``.  It still counts as reordered."""
        link, receiver, arrivals, deliveries, done = self._delayed_into_an_admitting_receiver(66e6)
        assert arrivals == [(0.0, done + 0.5e-6 + 10e-6)]
        assert deliveries == 0
        assert receiver.hold == -math.inf
        assert link.stats.reordered == 1
        assert link.stats.delivered == 1

    def test_a_delay_a_later_frame_can_overtake_keeps_its_event(self):
        """At 100 GbE the shortest frame serialises in 6.7 ns: a later
        frame could overtake the delayed one, which keeps its own delivery
        event and holds the receiver until that has run."""
        link, receiver, arrivals, deliveries, done = self._delayed_into_an_admitting_receiver(100e9)
        stamp = done + 0.5e-6 + 10e-6
        assert arrivals == [(stamp, stamp)]
        assert deliveries == 1
        assert receiver.hold == stamp
        assert link.stats.reordered == 1

    def test_the_shortest_frame_decides_not_the_delayed_one(self):
        """At 30 Mb/s a 200-byte frame serialises in 59.7 µs, longer than
        its 30 µs delay, but a 60-byte frame sent after it serialises in
        22.4 µs and could be delivered first: it keeps its event."""
        _link, receiver, _arrivals, deliveries, done = self._delayed_into_an_admitting_receiver(
            30e6, size=200, delay=30e-6
        )
        assert deliveries == 1
        assert receiver.hold == done + 0.5e-6 + 30e-6

    def test_a_tie_with_the_earliest_later_delivery_keeps_its_event(self):
        """Everything a power of two: the shortest frame serialises in
        exactly the delay, so a later frame could be delivered at the very
        instant of the delayed one, which therefore keeps its event."""
        bandwidth_bps = frame_wire_bytes(0) * 8 * 2.0**17
        _link, receiver, arrivals, deliveries, _done = self._delayed_into_an_admitting_receiver(
            bandwidth_bps, delay=2.0**-17, propagation=0.0
        )
        assert arrivals == [(2.0**-16, 2.0**-16)]
        assert deliveries == 1
        assert receiver.hold == 2.0**-16

    def test_no_sink_raises(self):
        link = EmulatedLink(Simulator())
        with pytest.raises(ReplayError):
            link.send(b"\x00" * 60, 0.0)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bandwidth(self, bad):
        with pytest.raises(ReplayError):
            EmulatedLink(Simulator(), bandwidth_bps=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-6])
    def test_rejects_propagation_delay(self, bad):
        with pytest.raises(ReplayError):
            EmulatedLink(Simulator(), propagation_delay=bad)


# ---------------------------------------------------------------------------
# equivalence with an explicit serialisation-done event
# ---------------------------------------------------------------------------


class ReferenceLink:
    """The link model with its queue depth driven by an explicit event.

    Every admitted frame schedules a serialisation-done event that
    decrements the depth — one event more per traversal than
    :class:`EmulatedLink`, whose derived depth must agree with this one in
    every statistic, delivery and drop decision.
    """

    def __init__(self, simulator, bandwidth_bps, propagation_delay,
                 queue_capacity=None, impairments=None):
        self.simulator = simulator
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.queue_capacity = queue_capacity
        self.impairments = impairments
        self.stats = LinkStats()
        self.queue_depth = 0
        self._busy_until = 0.0

    def attach(self, sink):
        self.sink = sink

    def send(self, frame, time):
        stats = self.stats
        now = max(self.simulator.now, time)
        stats.offered += 1
        stats.offered_bytes += len(frame)
        if self.impairments is not None and self.impairments.should_drop():
            stats.dropped_loss += 1
            return
        if self.queue_capacity is not None and self.queue_depth >= self.queue_capacity:
            stats.dropped_queue += 1
            return
        serialisation = frame_wire_bytes(len(frame)) * 8 / self.bandwidth_bps
        start = max(now, self._busy_until)
        done = self._busy_until = start + serialisation
        stats.busy_time += serialisation
        self.queue_depth += 1
        stats.max_queue_depth = max(stats.max_queue_depth, self.queue_depth)
        stats.queueing_delays.append(start - now)
        penalty = 0.0
        if self.impairments is not None:
            penalty = self.impairments.reorder_penalty()
            stats.reordered += penalty > 0.0
        deliver_at = done + self.propagation_delay + penalty
        self.simulator.schedule_at(done, self._serialised)
        self.simulator.schedule_at(deliver_at, lambda: self._deliver(frame, deliver_at))

    def _serialised(self):
        self.queue_depth -= 1

    def _deliver(self, frame, deliver_at):
        self.stats.delivered += 1
        self.stats.delivered_bytes += len(frame)
        self.sink(frame, deliver_at)


class TieWatchingLink(EmulatedLink):
    """Notes whether a send at the clock met a frame handed on ahead of the
    clock at that frame's completion instant: the tie with no saved event
    to order by (see :attr:`EmulatedLink.queue_depth`)."""

    met_the_unordered_tie = False

    def send(self, frame, time):
        now = self.simulator.now
        if time <= now and any(
            entry[0] == now and entry[1] == AHEAD for entry in self._serialising
        ):
            self.met_the_unordered_tie = True
        super().send(frame, time)


#: 992 wire bits per second: a 100-byte frame serialises in exactly 1 s and
#: a 224-byte frame in exactly 2 s, so sends on a half-second grid land on
#: completion times to the last bit.
GRID_BANDWIDTH = 992.0
FRAMES = (bytes(100), bytes(224))


class Pair:
    """One scenario built twice: on the reference and on the real link."""

    def __init__(self, propagation_delay=0.5, queue_capacity=None, impairments=None,
                 echo_every=0):
        self.sides = []
        for kind in (ReferenceLink, EmulatedLink):
            simulator = Simulator()
            arrivals = []
            link = kind(
                simulator,
                bandwidth_bps=GRID_BANDWIDTH,
                propagation_delay=propagation_delay,
                queue_capacity=queue_capacity,
                impairments=None if impairments is None else ImpairmentModel(**impairments),
            )

            def sink(frame, time, link=link, arrivals=arrivals):
                arrivals.append((time, frame))
                # Feedback: some deliveries re-enter the link at that instant.
                if echo_every and len(arrivals) % echo_every == 0:
                    link.send(frame, time)

            link.attach(sink)
            self.sides.append((simulator, link, arrivals))

    def each(self, action):
        """Apply ``action(simulator, link)`` to both sides."""
        for simulator, link, _arrivals in self.sides:
            action(simulator, link)

    def assert_equal(self):
        (_, reference, expected), (_, link, arrivals) = self.sides
        assert arrivals == expected
        assert link.stats.as_dict() == reference.stats.as_dict()
        assert link.stats.queueing_delays == reference.stats.queueing_delays
        assert link.queue_depth == reference.queue_depth

    def run_to(self, until=None):
        self.each(lambda simulator, _link: simulator.run(until=until))
        self.assert_equal()


def schedule_sends(pattern):
    """Schedule ``(time, frame)`` sends as events, in the given order."""
    def action(simulator, link):
        for time, frame in pattern:
            simulator.schedule_at(time, partial(link.send, frame, time))
    return action


def run_hand_offs(kind, hand_offs, latency, ahead, queue_capacity=None,
                  impairments=None, cuts=()):
    """Hand frames to a link the way a switch with a constant pipeline
    ``latency`` does, and return everything the link decided.

    Each ``(at, frame)`` is an event at ``at`` that hands ``frame`` on
    stamped ``at + latency``: ``ahead`` calls ``link.send`` from inside
    that event (recording the stamp, as a switch does), otherwise the event
    schedules the send at the stamp — the transmit event the hand-off
    replaces.  As on a switch port, a hand-off stamped past the run's
    horizon, or behind a frame still waiting for its transmit event, takes
    the transmit event too.  The simulator runs to each of ``cuts`` in
    turn, then drains; the queue depth is read after each cut.
    """
    simulator = Simulator()
    link = kind(
        simulator,
        bandwidth_bps=GRID_BANDWIDTH,
        propagation_delay=0.5,
        queue_capacity=queue_capacity,
        impairments=None if impairments is None else ImpairmentModel(**impairments),
    )
    arrivals = []
    link.attach(lambda frame, time: arrivals.append((time, frame)))
    decisions = []

    def send(frame, time):
        stats = link.stats
        before = (stats.dropped_loss, stats.dropped_queue)
        link.send(frame, time)
        decisions.append((stats.dropped_loss - before[0], stats.dropped_queue - before[1]))

    hold = -math.inf  # the stamp of the last hand-off that took an event

    def hand_off(frame):
        nonlocal hold
        stamp = simulator.now + latency
        if ahead and hold < simulator.now and stamp <= simulator.horizon:
            simulator.latest_stamp = max(simulator.latest_stamp, stamp)
            send(frame, stamp)
        else:
            hold = stamp
            simulator.schedule_at(stamp, partial(send, frame, stamp))

    for at, frame in hand_offs:
        simulator.schedule_at(at, partial(hand_off, frame))
    depths = []
    for cut in cuts:
        simulator.run(until=cut)
        depths.append(link.queue_depth)
    simulator.run()
    return dict(
        depths=depths,
        arrivals=arrivals,
        decisions=decisions,
        stats=link.stats.as_dict(),
        delays=link.stats.queueing_delays,
        end=simulator.now,
    )


@st.composite
def hand_off_schedules(draw):
    """Hand-offs on a half-second grid, so stamps land on completions."""
    sizes = draw(st.lists(st.sampled_from([100, 224]), min_size=1, max_size=40))
    hand_offs = [
        (draw(st.integers(0, 60)) / 2.0, bytes([index]) + bytes(size - 1))
        for index, size in enumerate(sizes)
    ]
    return dict(
        hand_offs=hand_offs,
        latency=draw(st.sampled_from([0.5, 1.0, 2.0, 3.5])),
        queue_capacity=draw(st.integers(1, 4)),
        impairments=dict(
            loss_probability=0.1, reorder_probability=0.2, reorder_delay=1.5,
            seed=draw(st.integers(0, 7)),
        ),
    )


class TestMatchesExplicitCompletionEvent:
    def test_burst_fills_the_queue_and_drains(self):
        pair = Pair(queue_capacity=3)
        pair.each(schedule_sends([(0.0, FRAMES[0])] * 6 + [(2.0, FRAMES[1])] * 3))
        for until in (0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 7.0, None):
            pair.run_to(until)
        (_, reference, _), _ = pair.sides
        # Three of the first six fit; at t = 2 only the completion at 1 s
        # has passed (the sends tie with the one at 2 s and predate it).
        assert reference.stats.dropped_queue == 5
        assert reference.stats.max_queue_depth == 3
        assert reference.stats.delivered == 4

    def test_send_at_a_completion_time_scheduled_before_the_frame_entered(self):
        """The second send's event predates the first frame's admission, so
        at the tie it runs *before* the completion and finds the queue full."""
        pair = Pair(queue_capacity=1)
        pair.each(schedule_sends([(0.0, FRAMES[0]), (1.0, FRAMES[0])]))
        pair.run_to()
        (_, reference, _), _ = pair.sides
        assert reference.stats.dropped_queue == 1

    def test_send_at_a_completion_time_scheduled_after_the_frame_entered(self):
        """Scheduled from inside the first send's event, the second send
        orders *after* the completion and finds the queue empty."""
        pair = Pair(queue_capacity=1)

        def action(simulator, link):
            def first():
                link.send(FRAMES[0], 0.0)
                simulator.schedule_at(1.0, partial(link.send, FRAMES[0], 1.0))
            simulator.schedule_at(0.0, first)

        pair.each(action)
        pair.run_to()
        (_, reference, _), _ = pair.sides
        assert reference.stats.dropped_queue == 0
        assert reference.stats.delivered == 2

    def test_sends_stamped_ahead_of_an_idle_clock_enter_at_their_stamps(self):
        """Nothing runs between the sends, yet each is positioned at its own
        stamp — where the transmit event it replaces would have run — so
        every earlier frame has finished serialising by then: the link
        equals the reference fed the same sends as events."""
        pair = Pair(queue_capacity=4)
        pattern = [(10.0 * index, FRAMES[0]) for index in range(6)]
        (reference_simulator, reference, _), (_, link, _) = pair.sides
        schedule_sends(pattern)(reference_simulator, reference)
        for time, frame in pattern:
            link.send(frame, time)
        assert link.stats.dropped_queue == 0
        assert link.stats.max_queue_depth == 1
        pair.run_to()
        assert reference.stats.delivered == 6
        assert link.queue_depth == 0

    def test_a_run_cut_at_a_hand_offs_completion_has_passed_it(self):
        """A frame handed on ahead of the clock finishes serialising at
        exactly the ``until`` of the run: the idle clock after that run
        follows the completion, as the explicit event would have run."""
        pair = Pair(queue_capacity=1)
        (reference_simulator, reference, _), (simulator, link, _) = pair.sides
        reference_simulator.schedule_at(0.5, partial(reference.send, FRAMES[0], 0.5))
        simulator.schedule_at(0.0, partial(link.send, FRAMES[0], 0.5))
        pair.run_to(1.5)
        assert link.queue_depth == 0
        link.send(FRAMES[0], 1.5)
        reference.send(FRAMES[0], 1.5)
        assert link.stats.dropped_queue == reference.stats.dropped_queue == 0
        pair.run_to()

    def test_depth_read_between_events_and_at_completion_instants(self):
        pair = Pair(propagation_delay=0.0)
        pair.each(schedule_sends([(0.0, FRAMES[1]), (0.0, FRAMES[0]), (3.0, FRAMES[0])]))
        depths = []
        for until in (0.0, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0):
            pair.run_to(until)
            depths.append(pair.sides[1][1].queue_depth)
        # Completions at 2, 3 and 4 s; ``run(until)`` includes its instant.
        assert depths == [2, 2, 1, 1, 1, 1, 0]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("propagation_delay", [0.0, 0.5])
    def test_seeded_patterns_with_loss_reordering_and_feedback(
        self, seed, propagation_delay
    ):
        rng = random.Random(seed)
        pattern = [
            (rng.randrange(0, 240) / 2.0, rng.choice(FRAMES)) for _ in range(80)
        ]  # insertion order ≠ time order
        pair = Pair(
            propagation_delay=propagation_delay,
            queue_capacity=rng.choice([1, 2, 5, None]),
            impairments=dict(
                loss_probability=0.1, reorder_probability=0.2, reorder_delay=1.5,
                seed=seed,
            ),
            echo_every=5,
        )
        pair.each(schedule_sends(pattern))
        for until in sorted(rng.randrange(0, 300) / 2.0 for _ in range(25)):
            pair.run_to(until)
        pair.run_to()
        (_, reference, expected), _ = pair.sides
        assert reference.stats.dropped_loss and reference.stats.reordered
        assert reference.stats.offered > 80  # the echoes went in
        assert len(expected) == reference.stats.delivered > 20

    @given(schedule=hand_off_schedules())
    @settings(max_examples=150, deadline=None)
    def test_a_hand_off_equals_the_transmit_event_it_replaces(self, schedule):
        """``link.send(frame, t)`` from an event at an earlier instant
        decides every drop, delay and arrival exactly as the event
        ``schedule_at(t, send)`` would — on this link and on the reference
        with explicit completion events — ties on the grid included."""
        ahead = run_hand_offs(EmulatedLink, ahead=True, **schedule)
        assert ahead == run_hand_offs(EmulatedLink, ahead=False, **schedule)
        assert ahead == run_hand_offs(ReferenceLink, ahead=False, **schedule)

    @pytest.mark.parametrize("step", [0.5, 1.0, 2.5])
    @given(schedule=hand_off_schedules())
    @settings(max_examples=40, deadline=None)
    def test_hand_offs_cut_into_runs_match_at_every_cut(self, schedule, step):
        """Runs cut every ``step`` seconds on the grid, so completions land on
        cuts: the queue depth read at each cut's idle clock, and everything
        the link decides, equal the reference with explicit events — but
        for the one tie :attr:`EmulatedLink.queue_depth` says it cannot
        order, which cuts make possible and this test leaves out."""
        links = []

        def watched(*args, **kwargs):
            links.append(TieWatchingLink(*args, **kwargs))
            return links[-1]

        cuts = [step * index for index in range(1, int(40 / step))]
        ahead = run_hand_offs(watched, ahead=True, cuts=cuts, **schedule)
        assume(not links[0].met_the_unordered_tie)
        assert ahead == run_hand_offs(ReferenceLink, ahead=False, cuts=cuts, **schedule)

    def test_exact_tie_rule_for_sends_stamped_ahead_of_the_clock(self):
        """The tie rule :attr:`EmulatedLink.queue_depth` states, one case at a
        time: capacity 1, and a 100-byte frame serialises in exactly 1 s."""
        frame = FRAMES[0]
        # Two hand-offs, at 0 and at 1, the second stamped exactly when the
        # first finishes serialising.  The first is gone iff the clock had
        # passed its stamp when the second was handed on: not yet at
        # latency 2 (stamp 2 > 1), already at latency 0.5 (stamp 0.5 < 1).
        for latency, dropped in ((2.0, 1), (0.5, 0)):
            hand_offs = [(0.0, frame), (1.0, frame)]
            ahead = run_hand_offs(
                EmulatedLink, hand_offs, latency, ahead=True, queue_capacity=1
            )
            assert ahead["decisions"] == [(0, 0), (0, dropped)]
            assert ahead == run_hand_offs(
                ReferenceLink, hand_offs, latency, ahead=False, queue_capacity=1
            )

        def tie(first, second):
            simulator = Simulator()
            link, _ = make_link(
                simulator, bandwidth_bps=GRID_BANDWIDTH, queue_capacity=1
            )
            first(simulator, link)
            second(simulator, link)
            simulator.run()
            return link.stats.dropped_queue

        # A frame sent at the clock entered before any later hand-off was
        # made, so a hand-off stamped at its completion finds it gone.
        assert tie(
            lambda simulator, link: simulator.schedule_at(
                0.0, partial(link.send, frame, 0.0)
            ),
            lambda simulator, link: simulator.schedule_at(
                0.5, partial(link.send, frame, 1.0)
            ),
        ) == 0
        # A frame handed on ahead of the clock and met at its completion
        # instant by a send *at* the clock has no saved event to order by:
        # it is still counted, even though the send's event was scheduled
        # after the frame's stamp.
        assert tie(
            lambda simulator, link: simulator.schedule_at(
                0.0, partial(link.send, frame, 0.5)
            ),
            lambda simulator, link: simulator.schedule_at(
                1.0,
                lambda: simulator.schedule_at(1.5, partial(link.send, frame, 1.5)),
            ),
        ) == 1

    def test_hand_offs_out_of_time_order_are_refused(self):
        simulator = Simulator()
        link, arrivals = make_link(simulator)
        link.send(FRAMES[0], 5.0)
        with pytest.raises(ReplayError, match="time order"):
            link.send(FRAMES[1], 3.0)
        # Nor may a send at the clock slip in behind a frame handed on
        # ahead of it.
        simulator.schedule_at(4.0, partial(link.send, FRAMES[1], 4.0))
        with pytest.raises(ReplayError, match="time order"):
            simulator.run()
        assert link.stats.offered == 1
        simulator.run()
        assert [frame for _time, frame in arrivals] == [FRAMES[0]]


class RefusingLookahead(Lookahead):
    """The lookahead rule switched off: every delivery keeps its event."""

    __slots__ = ()

    def admits(self, stamp):
        return False


def run_chain(lookahead, sends, capacities, impairments=None, cuts=(), sizes=None):
    """Links in series, one per capacity, on the half-second grid: each hop
    hands frames to the next through ``lookahead(simulator)``, as
    ``TopologyGraph.wire`` does.  Sends are events at their instants into
    the first hop, send ``i`` a frame of ``sizes[i]`` bytes (100 without
    ``sizes``); the simulator runs to each of ``cuts``, reading every hop's
    queue depth, then drains.  Returns everything the links decided.
    """
    simulator = Simulator()
    links = [
        EmulatedLink(
            simulator,
            bandwidth_bps=GRID_BANDWIDTH,
            propagation_delay=0.5,
            queue_capacity=capacity,
            impairments=None if impairments is None else ImpairmentModel(
                seed=index, **impairments
            ),
        )
        for index, capacity in enumerate(capacities)
    ]
    for upstream, downstream in zip(links, links[1:]):
        upstream.attach(downstream.send, lookahead(simulator))
    arrivals = []
    links[-1].attach(lambda frame, time: arrivals.append((time, frame)))
    for at, size in zip(sends, sizes or [len(FRAMES[0])] * len(sends)):
        simulator.schedule_at(at, partial(links[0].send, bytes(size), at))
    depths = []
    for cut in cuts:
        simulator.run(until=cut)
        depths.append([link.queue_depth for link in links])
    simulator.run()
    return dict(
        arrivals=arrivals,
        depths=depths,
        stats=[link.stats.as_dict() for link in links],
        delays=[list(link.stats.queueing_delays) for link in links],
    )


@st.composite
def chain_schedules(draw):
    return dict(
        sends=sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=40))),
        capacities=draw(
            st.lists(st.sampled_from([1, 2, 3, None]), min_size=2, max_size=3)
        ),
        # A 1.5 s delay can be overtaken (the shortest frame serialises in
        # 0.68 s on the grid), a 0.5 s one cannot.
        impairments=draw(st.sampled_from([
            None,
            dict(loss_probability=0.1, reorder_probability=0.2, reorder_delay=1.5),
            dict(loss_probability=0.1, reorder_probability=0.2, reorder_delay=0.5),
        ])),
        cuts=sorted(set(draw(st.lists(st.integers(1, 120), max_size=6)))),
    )


@pytest.mark.xfail(
    strict=True,
    reason="known defect: with two frame sizes, two hand-ons at one instant on "
    "different hops can resolve a downstream completion tie differently from "
    "the rule switched off (ROADMAP item 20)",
)
def test_two_sizes_resolve_a_downstream_tie_as_the_rule_off_would():
    """Sends at 0, 2, 2 (224 B), 2.5, 5.5 and 5.5 s into links of capacity
    2, 2 and 1: with the lookahead on the third link delivers four frames,
    with it off three.  The 224-byte frame's longer serialisation lines two
    hand-ons up at one instant on different hops."""
    schedule = dict(
        sends=[0.0, 2.0, 2.0, 2.5, 5.5, 5.5],
        sizes=[100, 100, 224, 100, 100, 100],
        capacities=[2, 2, 1],
    )
    assert run_chain(Lookahead, **schedule) == run_chain(RefusingLookahead, **schedule)


class TestLinkToLinkHandOn:
    """A hop hands each frame to the next link at once, stamped with its
    delivery instant, when the next link's lookahead admits it — and the
    next link decides exactly what it would have from the delivery event.
    A frame handed on from an upstream link's owed deliveries (or a
    reordered frame's event) carries the key of the event its upstream
    send ran in, so exact ties with a completion downstream resolve as
    that event would have."""

    @given(schedule=chain_schedules())
    @example(schedule=dict(sends=[0, 0], capacities=[2, 1], impairments=None, cuts=[1]))
    @settings(max_examples=150, deadline=None)
    def test_a_chain_decides_as_one_delivery_event_per_frame_would(self, schedule):
        """On the half-second grid frames meet completions at exact
        instants on every hop.  Every drop, delay, arrival and queue depth
        read at each cut equals the chain's with the rule off.  The frames
        are of one size, as every ZipLine frame fills the same minimum wire
        slot (with two sizes, two hand-ons at one instant on different
        hops can still resolve a downstream tie the other way)."""
        schedule["sends"] = [at / 2.0 for at in schedule["sends"]]
        schedule["cuts"] = [cut / 2.0 for cut in schedule["cuts"]]
        assert run_chain(Lookahead, **schedule) == run_chain(RefusingLookahead, **schedule)

    def test_an_owed_frame_meets_a_completion_as_its_event_would(self):
        """Two frames at 0 into a two-hop chain, the run cut at 0.5 s: both
        deliveries from the first hop lie past the cut and are owed.  The
        first reaches the next link from its event at 1.5 s; the second is
        handed on from that event, stamped 2.5 s — exactly when the first
        finishes there.  Its delivery event was scheduled at 0, before the
        first frame entered, so at that tie the first is still serialising
        and the second finds the one-frame queue full."""
        schedule = dict(sends=[0.0, 0.0], capacities=[2, 1], cuts=[0.5])
        chain = run_chain(Lookahead, **schedule)
        assert [stats["dropped_queue"] for stats in chain["stats"]] == [0, 1]
        assert chain == run_chain(RefusingLookahead, **schedule)
