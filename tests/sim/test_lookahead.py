"""The lookahead predicate and the in-flight counts it reads."""

from math import inf

import pytest

from repro.exceptions import SimulationError
from repro.sim.lookahead import InFlight, Lookahead
from repro.sim.simulator import Simulator


def _inside_a_run(simulator, check, until=None):
    """Call ``check()`` from an event at 1 ms, within a run to ``until``."""
    results = []
    simulator.schedule_at(1e-3, lambda: results.append(check()))
    simulator.run(until=until)
    return results[0]


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

    def test_a_refused_stamp_holds_the_program_until_its_event_has_run(self):
        """The caller schedules what the rule refused; nothing overtakes it."""
        simulator = Simulator()
        lookahead = Lookahead(simulator)
        seen = []

        def first():
            assert not lookahead.admits(2.5e-3)  # past the horizon
            simulator.schedule_at(2.5e-3, lambda: None)
            seen.append(lookahead.admits(1.1e-3))  # behind the held delivery

        simulator.schedule_at(1e-3, first)
        simulator.run(until=2e-3)
        assert seen == [False]
        assert lookahead.hold == 2.5e-3
        simulator.schedule_at(3e-3, lambda: seen.append(lookahead.admits(3.1e-3)))
        simulator.run()
        assert seen == [False, True]


class TestInFlight:
    def test_holds_and_counts_every_program_it_watches(self):
        simulator = Simulator()
        encoder, decoder, other = (Lookahead(simulator) for _ in range(3))
        writes = InFlight(simulator)
        writes.watch(encoder, reaction=2e-3)
        writes.watch(decoder, reaction=1e-3)
        writes.watch(decoder, reaction=3e-3)  # the smallest reaction stays
        assert (encoder.reaction, decoder.reaction, other.reaction) == (2e-3, 1e-3, inf)
        writes.schedule_at(1e-3, lambda: None)
        writes.schedule_at(2e-3, lambda: None)
        writes.schedule_at(1.5e-3, lambda: None)
        assert (encoder.hold, decoder.hold, other.hold) == (2e-3, 2e-3, -inf)
        writes.add(1)
        assert (encoder.in_flight, decoder.in_flight, other.in_flight) == (1, 1, 0)
        seen = []

        def check(stamp):
            seen.append((decoder.admits(stamp), other.admits(stamp)))

        simulator.schedule_at(1.8e-3, lambda: check(1.9e-3))  # held to 2 ms
        simulator.schedule_at(2.1e-3, lambda: check(2.2e-3))  # still counted
        simulator.schedule_at(2.3e-3, lambda: writes.add(-1))
        simulator.schedule_at(2.4e-3, lambda: check(2.5e-3))
        simulator.run()
        assert seen == [(False, True), (False, True), (True, True)]
        assert (encoder.in_flight, decoder.in_flight) == (0, 0)

    def test_a_refused_schedule_holds_nothing(self):
        simulator = Simulator()
        program = Lookahead(simulator)
        writes = InFlight(simulator)
        writes.watch(program)
        with pytest.raises(SimulationError):
            writes.schedule_at(-1.0, lambda: None)
        assert program.hold == -inf
