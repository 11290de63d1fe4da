"""Tests for the discrete-event simulator."""

import math

import pytest

from repro.exceptions import SimulationError
from repro.sim import MICROSECONDS, MILLISECONDS, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule_at(2.0, lambda: order.append("late"))
        simulator.schedule_at(1.0, lambda: order.append("early"))
        simulator.schedule_at(1.5, lambda: order.append("middle"))
        simulator.run()
        assert order == ["early", "middle", "late"]
        assert simulator.now == 2.0
        assert simulator.executed_events == 3

    def test_simultaneous_events_run_in_insertion_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule_at(1.0, lambda: order.append("first"))
        simulator.schedule_at(0.5, lambda: order.append("earlier"))
        simulator.schedule_at(1.0, lambda: order.append("second"))
        simulator.schedule_in(1.0, lambda: order.append("third"))
        simulator.run()
        assert order == ["earlier", "first", "second", "third"]

    def test_scheduling_returns_nothing_and_observers_see_time_and_description(self):
        simulator = Simulator()
        seen = []
        simulator.add_observer(lambda time, description: seen.append((time, description)))
        assert simulator.schedule_at(1.0, lambda: None, description="probe") is None
        assert simulator.schedule_in(2.0, lambda: None) is None
        simulator.run()
        assert seen == [(1.0, "probe"), (2.0, "")]

    def test_schedule_in_and_now(self):
        simulator = Simulator()
        times = []
        simulator.schedule_in(5 * MILLISECONDS, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [pytest.approx(0.005)]

    def test_zero_delay_runs_after_current_event(self):
        simulator = Simulator()
        order = []

        def outer():
            order.append("outer")
            simulator.schedule_in(0.0, lambda: order.append("inner"))

        simulator.schedule_at(1.0, outer)
        simulator.run()
        assert order == ["outer", "inner"]
        assert simulator.now == 1.0

    def test_cannot_schedule_in_the_past(self):
        simulator = Simulator()
        simulator.schedule_at(1.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_in(-1.0, lambda: None)

    def test_invalid_callback_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_at(0.0, "not callable")

    def test_negative_start_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(start_time=-1.0)


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        simulator = Simulator()
        ran = []
        simulator.schedule_at(1.0, lambda: ran.append(1))
        simulator.schedule_at(5.0, lambda: ran.append(5))
        executed = simulator.run(until=2.0)
        assert executed == 1
        assert ran == [1]
        assert simulator.now == 2.0
        simulator.run()
        assert ran == [1, 5]

    def test_max_events_guard(self):
        simulator = Simulator()

        def reschedule():
            simulator.schedule_in(0.001, reschedule)

        simulator.schedule_in(0.001, reschedule)
        executed = simulator.run(max_events=10)
        assert executed == 10

    def test_a_drawn_sequence_orders_the_event_where_it_was_drawn(self):
        simulator = Simulator()
        order = []
        drawn = simulator.next_sequence()
        simulator.schedule_at(1.0, lambda: order.append("scheduled after the draw"))
        simulator.schedule_drawn(1.0, drawn, lambda: order.append("drawn first"))
        simulator.run()
        assert order == ["drawn first", "scheduled after the draw"]
        with pytest.raises(SimulationError):
            simulator.schedule_drawn(0.5, simulator.next_sequence(), lambda: None)

    def test_a_train_is_events_counted_traced_and_observed_one_by_one(self):
        """A callback that runs more events of its own through ``advance``:
        each is counted and shown to the observers at its own instant, the
        clock and ``current_key`` move to it, and ``max_events`` stops the
        train where it would stop one event at a time."""

        def train_run(max_events):
            simulator = Simulator()
            seen, keys = [], []
            simulator.add_observer(lambda time, label: seen.append((time, label)))

            def train():
                keys.append(simulator.current_key)
                for time in (1.1, 1.2, 1.3):
                    sequence = simulator.next_sequence()
                    if not simulator.advance(time, sequence, "car"):
                        return
                    keys.append(simulator.current_key)
                    assert simulator.now == time
                    assert simulator.current_key == (time, sequence)

            simulator.schedule_at(1.0, train, "car")
            simulator.schedule_at(2.0, lambda: None, "after")
            executed = simulator.run(max_events=max_events)
            return executed, simulator.executed_events, seen, len(keys)

        assert train_run(None) == (
            5, 5, [(1.0, "car"), (1.1, "car"), (1.2, "car"), (1.3, "car"), (2.0, "after")], 4
        )
        assert train_run(2) == (2, 2, [(1.0, "car"), (1.1, "car")], 2)
        assert train_run(1) == (1, 1, [(1.0, "car")], 1)
        # Outside a run nothing advances: ``step`` runs the event alone.
        simulator = Simulator()
        refused = []
        simulator.schedule_at(
            1.0,
            lambda: refused.append(simulator.advance(1.5, simulator.next_sequence(), "x")),
        )
        assert simulator.step() and refused == [False] and simulator.now == 1.0

    def test_the_horizon_is_the_until_of_the_current_run(self):
        simulator = Simulator()
        seen = []
        for time in (1.0, 2.0, 3.0):
            simulator.schedule_at(time, lambda: seen.append(simulator.horizon))
        assert simulator.horizon == -math.inf
        simulator.run(until=1.5)
        simulator.run(max_events=1)
        simulator.run()
        assert seen == [1.5, math.inf, math.inf]
        assert simulator.horizon == -math.inf

    def test_a_drained_run_rests_at_the_latest_stamp(self):
        simulator = Simulator()

        def hand_on(stamp):
            simulator.latest_stamp = max(simulator.latest_stamp, stamp)

        simulator.schedule_at(1.0, lambda: hand_on(4.0))
        simulator.schedule_at(2.0, lambda: hand_on(3.0))
        simulator.run(max_events=1)
        # Stopped by the cap: the event at 2.0 still pends before the stamp.
        assert simulator.now == 1.0
        assert simulator.latest_stamp == 4.0
        simulator.run()
        assert simulator.now == 4.0
        assert (4.0, 10**9) < simulator.current_key  # after all of t=4
        simulator.schedule_at(5.0, lambda: hand_on(6.0))
        simulator.run(until=9.0)
        assert simulator.now == 9.0  # ``until`` bounds every stamp of its run

    def test_a_removed_observer_is_not_called(self):
        simulator = Simulator()
        seen = []

        def observer(time, description):
            seen.append(time)

        simulator.add_observer(observer)
        simulator.schedule_at(1.0, lambda: simulator.remove_observer(observer))
        simulator.schedule_at(2.0, lambda: None)
        simulator.run()
        assert seen == []  # removed by the event itself, before it was observed
        simulator.remove_observer(observer)  # absent: a no-op

    def test_run_until_behind_the_clock_leaves_it_where_it_is(self):
        simulator = Simulator()
        simulator.schedule_at(2.0, lambda: None)
        simulator.schedule_at(3.0, lambda: None)
        assert simulator.run(max_events=1) == 1
        assert simulator.run(until=1.0) == 0
        assert simulator.now == 2.0
        assert simulator.run() == 1

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_reentrant_run_rejected(self):
        simulator = Simulator()

        def inner():
            simulator.run()

        simulator.schedule_at(1.0, inner)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_units_are_consistent(self):
        assert MILLISECONDS == pytest.approx(1e-3)
        assert MICROSECONDS == pytest.approx(1e-6)

    def test_nested_scheduling_chain_latency(self):
        # Mirrors how the control plane chains processing + 2 table writes.
        simulator = Simulator()
        finish_times = []

        def step_one():
            simulator.schedule_in(0.3e-3, step_two)

        def step_two():
            simulator.schedule_in(0.3e-3, lambda: finish_times.append(simulator.now))

        simulator.schedule_in(1.17e-3, step_one)
        simulator.run()
        assert finish_times[0] == pytest.approx(1.77e-3)
