"""Property: the event kernel runs events in ``(time, insertion)`` order.

The oracle is deliberately naive — a list scanned with ``min`` for the
smallest ``(time, insertion)`` — and shares nothing with the simulator's
heap.  Schedules are generated with deliberate ties (times drawn from a
tiny set) and callbacks that schedule more events, at ``now`` and later.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.sim import Simulator

TIMES = [0.0, 1.0, 1.0, 2.0, 2.5]
DELAYS = [0.0, 0.0, 0.5, 1.0]


@dataclass
class Plan:
    """One event to schedule: where, and what its callback schedules."""

    label: int
    time: float  # absolute for roots, a delay for children
    children: List["Plan"] = field(default_factory=list)


@st.composite
def plans(draw) -> List[Plan]:
    labels = iter(range(10_000))

    def plan(depth: int, times) -> Plan:
        children = []
        if depth < 2:
            children = [
                plan(depth + 1, DELAYS)
                for _ in range(draw(st.integers(0, 2 if depth == 0 else 1)))
            ]
        return Plan(
            label=next(labels),
            time=draw(st.sampled_from(times)),
            children=children,
        )

    return [plan(0, TIMES) for _ in range(draw(st.integers(1, 8)))]


def reference_order(roots: List[Plan]) -> List[Tuple[int, float]]:
    """``(label, time)`` in execution order, by linear scan for the minimum."""
    pending = []  # [time, insertion, plan]
    insertion = 0
    for root in roots:
        pending.append((root.time, insertion, root))
        insertion += 1
    order = []
    while pending:
        entry = min(pending, key=lambda item: item[:2])
        pending.remove(entry)
        now, _insertion, item = entry
        order.append((item.label, now))
        for child in item.children:
            pending.append((now + child.time, insertion, child))
            insertion += 1
    return order


class Driver:
    """Schedules a plan on a real simulator and logs what runs."""

    def __init__(self, roots: List[Plan]):
        self.simulator = Simulator()
        self.log: List[Tuple[int, float]] = []
        self.keys = []
        self.observed: List[Tuple[float, str]] = []
        self.simulator.add_observer(
            lambda time, description: self.observed.append((time, description))
        )
        for root in roots:
            self._schedule(root, root.time)

    def _schedule(self, item: Plan, time: float) -> None:
        self.simulator.schedule_at(
            time, lambda: self._run(item), description=str(item.label)
        )

    def _run(self, item: Plan) -> None:
        simulator = self.simulator
        self.log.append((item.label, simulator.now))
        self.keys.append(simulator.current_key)
        for child in item.children:
            self._schedule(child, simulator.now + child.time)


@given(roots=plans())
@settings(max_examples=150, deadline=None)
def test_run_executes_in_time_insertion_order(roots):
    driver = Driver(roots)
    expected = reference_order(roots)
    assert driver.simulator.run() == len(expected)
    assert driver.log == expected
    assert driver.simulator.executed_events == len(expected)
    assert driver.simulator.step() is False
    # Observers see each event's time and description, after it ran.
    assert driver.observed == [(time, str(label)) for label, time in expected]
    # The key the simulator reports inside a callback is that event's own:
    # its time, and a sequence that grows with the execution order.
    assert [key[0] for key in driver.keys] == [time for _label, time in expected]
    assert driver.keys == sorted(driver.keys)
    assert len({key[1] for key in driver.keys}) == len(driver.keys)


@given(roots=plans(), until=st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 9.0]))
@settings(max_examples=100, deadline=None)
def test_run_until_executes_exactly_the_events_up_to_it(roots, until):
    driver = Driver(roots)
    expected = reference_order(roots)
    # Nothing can be scheduled behind the clock, so the events at or before
    # ``until`` are a prefix of the order.
    prefix = [entry for entry in expected if entry[1] <= until]
    assert driver.simulator.run(until=until) == len(prefix)
    assert driver.log == prefix
    assert driver.simulator.now == until
    assert driver.simulator.current_key[0] == until
    driver.simulator.run()
    assert driver.log == expected


@given(roots=plans(), budget=st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_run_max_events_executes_a_prefix_and_resumes(roots, budget):
    driver = Driver(roots)
    expected = reference_order(roots)
    executed = driver.simulator.run(max_events=budget)
    assert executed == min(budget, len(expected))
    assert driver.log == expected[:executed]
    if executed:
        # A capped run leaves the clock at the last event it executed.
        assert driver.simulator.now == expected[executed - 1][1]
    driver.simulator.run()
    assert driver.log == expected


@given(roots=plans())
@settings(max_examples=100, deadline=None)
def test_step_by_step_matches_run(roots):
    driver = Driver(roots)
    expected = reference_order(roots)
    steps = 0
    while driver.simulator.step():
        steps += 1
        assert driver.log == expected[:steps]
    assert steps == len(expected)
    assert driver.simulator.step() is False


@given(roots=plans(), until=st.sampled_from([1.0, 2.0]), budget=st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_until_and_max_events_together(roots, until, budget):
    driver = Driver(roots)
    expected = reference_order(roots)
    prefix = [entry for entry in expected if entry[1] <= until]
    executed = driver.simulator.run(until=until, max_events=budget)
    assert executed == min(budget, len(prefix))
    assert driver.log == prefix[:executed]
    if executed == len(prefix):
        assert driver.simulator.now == until
    # Whatever the cap left pending still runs, in order, without tripping
    # the scheduled-in-the-past check.
    driver.simulator.run()
    assert driver.log == expected


class TestPosition:
    def test_idle_position_brackets_the_events_of_its_instant(self):
        simulator = Simulator()
        assert simulator.current_key < (0.0, 0)  # before anything at t=0
        simulator.schedule_at(1.0, lambda: None)
        simulator.run(until=2.0)
        assert (2.0, 10**9) < simulator.current_key  # after all of t=2

    def test_sequence_numbers_interleave_with_scheduled_events(self):
        simulator = Simulator()
        keys = []
        simulator.schedule_at(1.0, lambda: keys.append(simulator.current_key))
        taken = simulator.next_sequence()
        simulator.schedule_at(1.0, lambda: keys.append(simulator.current_key))
        simulator.run()
        assert keys[0] < (1.0, taken) < keys[1]


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_schedule_at_rejects(self, bad):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.schedule_at(bad, lambda: None)
        assert simulator.run() == 0
        assert simulator.now == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_schedule_in_rejects(self, bad):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.schedule_in(bad, lambda: None)
        assert simulator.step() is False

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_start_time_rejects(self, bad):
        with pytest.raises(SimulationError):
            Simulator(start_time=bad)
