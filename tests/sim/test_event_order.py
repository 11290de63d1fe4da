"""Property: the event kernel runs events in ``(time, priority, insertion)`` order.

The oracle is deliberately naive — a list scanned with ``min`` for the
smallest ``(time, priority, insertion)`` — and shares nothing with the
simulator's heap.  Schedules are generated with deliberate ties (times and
priorities drawn from tiny sets), cancellations (before the run and from
inside callbacks) and callbacks that schedule more events, at ``now`` and
later, at lower and higher priority than the event that schedules them.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.sim import Simulator

TIMES = [0.0, 1.0, 1.0, 2.0, 2.5]
DELAYS = [0.0, 0.0, 0.5, 1.0]
PRIORITIES = [-1, 0, 0, 1]


@dataclass
class Plan:
    """One event to schedule: where, and what its callback does."""

    label: int
    time: float  # absolute for roots, a delay for children
    priority: int
    cancelled: bool = False
    #: Label of another event this one's callback cancels (if still pending).
    cancels: Optional[int] = None
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
            priority=draw(st.sampled_from(PRIORITIES)),
            cancelled=depth == 0 and draw(st.integers(0, 5)) == 0,
            children=children,
        )

    roots = [plan(0, TIMES) for _ in range(draw(st.integers(1, 8)))]
    every = list(_walk(roots))
    for item in every:
        if draw(st.integers(0, 4)) == 0:
            item.cancels = draw(st.sampled_from(every)).label
    return roots


def _walk(items: List[Plan]):
    for item in items:
        yield item
        yield from _walk(item.children)


def reference_order(roots: List[Plan]) -> List[Tuple[int, float]]:
    """``(label, time)`` in execution order, by linear scan for the minimum."""
    pending = []  # [time, priority, insertion, plan]
    insertion = 0
    cancelled = set()
    for root in roots:
        pending.append((root.time, root.priority, insertion, root))
        insertion += 1
        if root.cancelled:
            cancelled.add(root.label)
    order = []
    while pending:
        entry = min(pending, key=lambda item: item[:3])
        pending.remove(entry)
        now, _priority, _insertion, item = entry
        if item.label in cancelled:
            continue
        order.append((item.label, now))
        if any(other[3].label == item.cancels for other in pending):
            cancelled.add(item.cancels)
        for child in item.children:
            pending.append((now + child.time, child.priority, insertion, child))
            insertion += 1
    return order


class Driver:
    """Schedules a plan on a real simulator and logs what runs."""

    def __init__(self, roots: List[Plan]):
        self.simulator = Simulator()
        self.log: List[Tuple[int, float]] = []
        self.keys = []
        self.handles = {}
        for root in roots:
            self._schedule(root, root.time)
            if root.cancelled:
                self.handles[root.label].cancelled = True

    def _schedule(self, item: Plan, time: float) -> None:
        self.handles[item.label] = self.simulator.schedule_at(
            time, lambda: self._run(item), priority=item.priority,
            description=str(item.label),
        )

    def _run(self, item: Plan) -> None:
        simulator = self.simulator
        self.log.append((item.label, simulator.now))
        self.keys.append(simulator.current_key)
        if item.cancels is not None and item.cancels in self.handles:
            self.handles[item.cancels].cancelled = True
        for child in item.children:
            self._schedule(child, simulator.now + child.time)


@given(roots=plans())
@settings(max_examples=150, deadline=None)
def test_run_executes_in_time_priority_insertion_order(roots):
    driver = Driver(roots)
    expected = reference_order(roots)
    assert driver.simulator.run() == len(expected)
    assert driver.log == expected
    assert driver.simulator.executed_events == len(expected)
    assert driver.simulator.step() is False
    # The key the simulator reports inside a callback is that event's own.
    for (label, time), key in zip(driver.log, driver.keys):
        assert key[0] == time
        assert key[1] == next(
            item.priority for item in _walk(roots) if item.label == label
        )
    assert len({key[2] for key in driver.keys}) == len(driver.keys)


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


class TestCancelledHead:
    def test_run_until_stops_at_a_cancelled_head_without_counting_it(self):
        simulator = Simulator()
        ran = []
        simulator.schedule_at(1.0, lambda: ran.append("kept"))
        simulator.schedule_at(2.0, lambda: ran.append("dropped")).cancelled = True
        simulator.schedule_at(5.0, lambda: ran.append("late"))
        assert simulator.run(until=4.0) == 1
        assert ran == ["kept"]
        assert simulator.now == 4.0
        assert simulator.run(max_events=5) == 1
        assert ran == ["kept", "late"]

    def test_only_cancelled_events_means_nothing_to_step(self):
        simulator = Simulator()
        for time in (1.0, 1.0, 2.0):
            simulator.schedule_at(time, lambda: None).cancelled = True
        assert simulator.step() is False
        assert simulator.executed_events == 0
        assert simulator.now == 0.0


class TestPosition:
    def test_idle_position_brackets_the_events_of_its_instant(self):
        simulator = Simulator()
        assert simulator.current_key < (0.0, -5, 0)  # before anything at t=0
        simulator.schedule_at(1.0, lambda: None)
        simulator.run(until=2.0)
        assert (2.0, 10**9, 10**9) < simulator.current_key  # after all of t=2
        simulator.reset()
        assert simulator.current_key < (0.0, -5, 0)

    def test_sequence_numbers_interleave_with_scheduled_events(self):
        simulator = Simulator()
        keys = []
        simulator.schedule_at(1.0, lambda: keys.append(simulator.current_key))
        taken = simulator.next_sequence()
        simulator.schedule_at(1.0, lambda: keys.append(simulator.current_key))
        simulator.run()
        assert keys[0] < (1.0, 0, taken) < keys[1]


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
