"""The lookahead predicate and the pending writes it reads."""

from math import inf

import pytest

from repro.controlplane.manager import (
    LEARN_DIGEST,
    ControlPlaneTimings,
    ZipLineControlPlane,
)
from repro.exceptions import SimulationError
from repro.sim.lookahead import InFlight, Lookahead
from repro.sim.simulator import Simulator
from repro.zipline.decoder_switch import ZipLineDecoderSwitch
from repro.zipline.encoder_switch import ZipLineEncoderSwitch


def _inside_a_run(simulator, check, until=None):
    """Call ``check()`` from an event at 1 ms, within a run to ``until``."""
    results = []
    simulator.schedule_at(1e-3, lambda: results.append(check()))
    simulator.run(until=until)
    return results[0]


def _admits_from(simulator, program, checks):
    """Ask ``program`` about each ``(clock, stamp)`` from an event at
    ``clock``; run; return the answers in order."""
    seen = []
    for clock, stamp in checks:
        simulator.schedule_at(
            clock, lambda stamp=stamp: seen.append(program.admits(stamp))
        )
    simulator.run()
    return seen


class TestAdmits:
    def test_admits_a_stamp_ahead_of_the_clock_and_records_it(self):
        simulator = Simulator()
        lookahead = Lookahead(simulator)
        assert _inside_a_run(simulator, lambda: lookahead.admits(1.5e-3))
        assert simulator.latest_stamp == 1.5e-3
        assert simulator.now == 1.5e-3  # the drained run settles there

    @pytest.mark.parametrize(
        "stamp, until",
        [
            (0.5e-3, None),  # before the clock
            (2.5e-3, 2e-3),  # past the run's horizon
        ],
    )
    def test_refuses_a_stamp_outside_the_clock_and_horizon(self, stamp, until):
        simulator = Simulator()
        lookahead = Lookahead(simulator)
        assert not _inside_a_run(simulator, lambda: lookahead.admits(stamp), until)
        assert simulator.latest_stamp == 0.0

    def test_admits_a_stamp_at_the_horizon(self):
        simulator = Simulator()
        lookahead = Lookahead(simulator)
        assert _inside_a_run(simulator, lambda: lookahead.admits(2e-3), until=2e-3)

    def test_refuses_outside_a_run(self):
        """Between runs the horizon is -inf: nothing is handed on early."""
        lookahead = Lookahead(Simulator())
        assert not lookahead.admits(1e-6)

    def test_refuses_a_stamp_a_new_write_could_precede(self):
        simulator = Simulator()
        lookahead = Lookahead(simulator)
        lookahead.reaction = 1e-3
        assert _inside_a_run(simulator, lambda: lookahead.admits(1e-3 + 0.999e-3))
        simulator = Simulator()
        lookahead = Lookahead(simulator)
        lookahead.reaction = 1e-3
        assert not _inside_a_run(simulator, lambda: lookahead.admits(2e-3))

    def test_a_refusal_holds_nothing(self):
        """The caller keeps what the rule refused behind anything it still
        owes the receiver; the rule itself holds nothing back."""
        simulator = Simulator()
        lookahead = Lookahead(simulator)
        seen = []

        def first():
            seen.append(lookahead.admits(2.5e-3))  # past the horizon
            seen.append(lookahead.admits(1.1e-3))

        simulator.schedule_at(1e-3, first)
        simulator.run(until=2e-3)
        assert seen == [False, True]
        assert (lookahead.hold, lookahead.writes) == (-inf, [])

    def test_hold_refuses_every_stamp_until_the_clock_has_passed_it(self):
        """A delivery kept as its own event while later frames could
        overtake it (a reordered frame) holds the receiver for every stamp,
        before it or not, until the clock is past it."""
        simulator = Simulator()
        lookahead = Lookahead(simulator)
        lookahead.hold = 2e-3
        checks = [(1e-3, 1.1e-3), (1.5e-3, 2.5e-3), (2e-3, 2.1e-3), (2.2e-3, 2.3e-3)]
        assert _admits_from(simulator, lookahead, checks) == [False, False, False, True]


class TestInFlight:
    def test_watching_keeps_the_smallest_reaction(self):
        simulator = Simulator()
        encoder, decoder, other = (Lookahead(simulator) for _ in range(3))
        writes = InFlight(simulator)
        writes.watch(encoder, reaction=2e-3)
        writes.watch(decoder, reaction=1e-3)
        writes.watch(decoder, reaction=3e-3)  # the smallest reaction stays
        assert (encoder.reaction, decoder.reaction, other.reaction) == (2e-3, 1e-3, inf)
        assert writes.programs == [encoder, decoder]

    def test_a_write_pending_at_t_holds_frames_stamped_from_t_on(self):
        """Only the earliest pending write counts, and only for stamps at
        or after it: a frame stamped before every pending write reaches the
        program first whatever those writes do."""
        simulator = Simulator()
        program, other = Lookahead(simulator), Lookahead(simulator)
        writes = InFlight(simulator)
        writes.watch(program)
        for instant in (1e-3, 2e-3, 1.5e-3):
            writes.schedule_at(instant, lambda: None)
        assert sorted(program.writes) == [1e-3, 1.5e-3, 2e-3]
        assert other.writes == []
        checks = [
            (0.5e-3, 0.9e-3),  # before the earliest write
            (0.5e-3, 1e-3),  # at it: the write's event runs first
            (0.5e-3, 1.9e-3),
            (1e-3, 1.2e-3),  # at the write's own instant, it may not have run
            (1.2e-3, 1.4e-3),  # the 1 ms write has run; 1.5 ms is next
            (1.2e-3, 1.5e-3),
            (2.1e-3, 5e-3),  # every write has run
        ]
        assert _admits_from(simulator, program, checks) == [
            True, False, False, False, True, False, True,
        ]
        assert program.writes == []  # read after the last write: pruned

    def test_counted_writes_hold_every_stamp(self):
        simulator = Simulator()
        program = Lookahead(simulator)
        writes = InFlight(simulator)
        writes.watch(program)
        writes.add(1)
        assert program.in_flight == 1
        simulator.schedule_at(1.5e-3, lambda: writes.add(-1))
        checks = [(1e-3, 1.01e-3), (2e-3, 2.01e-3)]
        assert _admits_from(simulator, program, checks) == [False, True]
        assert program.in_flight == 0

    def test_a_program_nobody_asks_holds_only_what_may_be_pending(self):
        """Writes are pruned when pushed, too: a program whose edges never
        ask the rule (a fan-in encoder) keeps no history of past writes."""
        simulator = Simulator()
        program = Lookahead(simulator)
        writes = InFlight(simulator)
        writes.watch(program)

        def step(count):
            writes.schedule_at(simulator.now + 0.5e-3, lambda: None)
            if count:
                simulator.schedule_in(1e-3, lambda: step(count - 1))

        simulator.schedule_at(0.0, lambda: step(100))
        simulator.run()
        assert len(program.writes) == 1  # the last write only, of 101

    def test_an_offset_holds_a_program_from_the_event_plus_it(self):
        """Watched with ``after``, a program is held from each event's
        instant plus that offset; watched without one, from the instant
        itself.  Watched twice, it keeps the smaller offset."""
        simulator = Simulator()
        late, plain, twice = (Lookahead(simulator) for _ in range(3))
        writes = InFlight(simulator)
        writes.watch(late, after=0.5e-3)
        writes.watch(plain)
        writes.watch(twice, after=0.5e-3)
        writes.watch(twice, after=0.2e-3)
        writes.schedule_at(1e-3, lambda: None)
        assert (late.writes, plain.writes) == ([1e-3 + 0.5e-3], [1e-3])
        assert twice.writes == [1e-3 + 0.2e-3]
        seen = []
        for stamp in (0.9e-3, 1e-3, 1.4e-3, 1.5e-3):
            simulator.schedule_at(
                0.5e-3,
                lambda stamp=stamp: seen.append((late.admits(stamp), plain.admits(stamp))),
            )
        simulator.run()
        assert seen == [(True, True), (True, False), (True, False), (False, False)]

    def test_a_refused_schedule_holds_nothing(self):
        simulator = Simulator()
        program = Lookahead(simulator)
        writes = InFlight(simulator)
        writes.watch(program)
        with pytest.raises(SimulationError):
            writes.schedule_at(-1.0, lambda: None)
        assert program.writes == []


class TestALearnDigestHolds:
    """A learn digest delivered at ``D`` reaches the control plane, which
    writes a table no sooner than one processing step later.  The encoder's
    digest queue counts down at ``D`` itself, so the encoder is held from
    ``D``; the decoder only from ``D`` plus the least processing step."""

    def _decisions(self, program, stamps):
        simulator = Simulator()
        encoder = ZipLineEncoderSwitch(simulator=simulator)
        decoder = ZipLineDecoderSwitch(simulator=simulator)
        timings = ControlPlaneTimings()
        ZipLineControlPlane(
            digest_engine=encoder.digest_engine,
            encoder_switch=encoder,
            decoder_switch=decoder,
            simulator=simulator,
            timings=timings,
        )
        engine = encoder.digest_engine
        engine.emit(LEARN_DIGEST, {"basis": 5}, 0.0)
        delivered = engine.delivery_latency
        step = timings.least(timings.processing_latency)
        lookahead = {"encoder": encoder, "decoder": decoder}[program].lookahead
        return _admits_from(
            simulator, lookahead, [(0.1e-3, at(delivered, step)) for at in stamps]
        )

    STAMPS = (
        lambda d, step: d * 0.999,
        lambda d, step: d,
        lambda d, step: d + step * 0.999,
        lambda d, step: d + step,
        lambda d, step: d + step * 1.001,
    )

    def test_the_encoder_is_held_from_the_delivery(self):
        assert self._decisions("encoder", self.STAMPS) == [True, False, False, False, False]

    def test_the_decoder_is_held_from_the_first_possible_write(self):
        assert self._decisions("decoder", self.STAMPS) == [True, True, True, False, False]
