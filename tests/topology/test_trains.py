"""Trains: one event injects every paced frame that precedes the rest.

A train is consecutive events run without the heap, so nothing a run
shows may depend on how long trains are.  With the cap patched to one
frame per event (every injection its own heap entry) the reports, every
trace event and every observer call must be byte-identical to the default
over the shapes ``test_train_pins.py`` pins — including the cuts that land
inside what is one train by default.  The grid must also reach the train's
rare paths: frames handed back because a frame before them scheduled an
event that comes first, and because the run's ``max_events`` ran out.

Those runs are observed, so they run every train frame by frame.  Without
an observer the part of a train every hop takes crosses each hop as one
list (``repro.topology.crossing``); the same grid, plus a static rack
whose decoder restarts inside a train and a chain that learns slower than
a digest lands, compares that against frame by frame.
"""

import pytest

from repro import obs
from repro.sim.simulator import Simulator
from repro.topology import (
    FaultPlan,
    NodeRestart,
    TopologyEngine,
    linear_topology,
    rack_fan_in_topology,
    validate_spec_faults,
)
from repro.topology import flows

from test_train_pins import CUT, FULL, _rack


def restart_mid_train(seed):
    """The pinned static rack with ``decoder0`` restarting at 64.1 µs, inside
    a train: the frames on the rack wire whose delivery would land at or
    after the restart split the train's crossing and wait for it."""
    spec = _rack(seed)
    spec.faults = FaultPlan(restarts=(NodeRestart(node="decoder0", time=64.1e-6),))
    validate_spec_faults(spec)
    return spec


def slow_learning_chain(seed):
    """One flow learning at 1,000 frames/s: a train spans far longer than
    a learn digest's 0.9 ms, so a miss's digest lands inside it and a
    crossing must stop before the miss."""
    return linear_topology(chunks=400, bases=4, packet_rate=1e3, scenario="dynamic", seed=seed)


#: Shapes of the grid beside the pinned ones.
EXTRA = {
    "rack-static-restart-mid-train": restart_mid_train,
    "slow-learning-chain": slow_learning_chain,
}


def _observed(spec, cut):
    """Report bytes, trace events, observer calls and event count of a run."""
    tracer = obs.enable()
    calls = []
    try:
        engine = TopologyEngine(spec)
        engine.simulator.add_observer(lambda time, label: calls.append((time, label)))
        report = engine.run(**cut)
    finally:
        obs.disable()
    events = [
        (event["name"], event["ph"], event.get("ts"), repr(event.get("args")))
        for event in tracer.sink.events
    ]
    return report.json_text(), events, calls, engine.simulator.executed_events


GRID = [(shape, {}) for shape in sorted({**FULL, **EXTRA})] + [
    (shape, bound) for shape, bound in sorted(CUT)
]


def _build(shape, bound):
    if bound:
        build, cut = CUT[(shape, bound)]
        return build(2020), cut
    return {**FULL, **EXTRA}[shape](2020), {}


@pytest.mark.parametrize("shape,bound", GRID, ids=[f"{s}-{b or 'full'}" for s, b in GRID])
def test_one_frame_per_event_changes_nothing(shape, bound, monkeypatch):
    spec, cut = _build(shape, bound)
    trained = _observed(spec, cut)
    monkeypatch.setattr(flows, "TRAIN_CAP", 1)
    one_by_one = _observed(spec, cut)
    assert trained[0] == one_by_one[0]
    assert trained[1] == one_by_one[1]
    assert trained[2] == one_by_one[2]
    assert trained[3] == one_by_one[3]


def _crossed(spec, cut, observed):
    """Report bytes, trace events (each without its ``seq``, as a sorted
    list) and event count of a run, watched by an observer or not."""
    tracer = obs.enable()
    try:
        engine = TopologyEngine(spec)
        if observed:
            engine.simulator.add_observer(lambda time, label: None)
        report = engine.run(**cut)
    finally:
        obs.disable()
    events = sorted(
        repr(sorted((key, value) for key, value in event.items() if key != "seq"))
        for event in tracer.sink.events
    )
    return report.json_text(), events, engine.simulator.executed_events


@pytest.mark.parametrize("shape,bound", GRID, ids=[f"{s}-{b or 'full'}" for s, b in GRID])
def test_crossing_a_train_as_lists_changes_nothing(shape, bound):
    """An observer must see the state each event leaves, so a run it watches
    runs every train frame by frame; without one, the part of a train that
    every hop takes crosses each hop as one list.  The report, the event
    count and every trace event are the same (a crossing emits the events
    hop by hop, so their ``seq`` order differs)."""
    spec, cut = _build(shape, bound)
    assert _crossed(spec, cut, False) == _crossed(spec, cut, True)


def test_the_grid_crosses_and_splits(monkeypatch):
    """The restart shape crosses trains as lists, and its restart splits a
    crossing: the frames its write holds run one by one after the others
    crossed."""
    crossed = []
    cross = flows.cross

    def counting(simulator, train, description):
        ran = cross(simulator, train, description)
        crossed.append((len(train), ran))
        return ran

    monkeypatch.setattr(flows, "cross", counting)
    spec, cut = _build("rack-static-restart-mid-train", {})
    TopologyEngine(spec).run(**cut)
    assert sum(ran for _, ran in crossed) > 0
    assert any(0 < ran < length for length, ran in crossed)


def test_the_grid_hands_frames_back(monkeypatch):
    """Some train of the grid stops, with frames collected, at an event a
    frame before it scheduled, and some at the ``max_events`` budget."""
    handed_back = {"pending event": 0, "max_events": 0}
    requeue = flows.FlowInjector._requeue
    advance = Simulator.advance
    refusals = []

    def refused(self, time, sequence, description):
        if advance(self, time, sequence, description):
            return True
        refusals.append(True)
        return False

    def counting(self, rest):
        assert rest
        handed_back["max_events" if refusals else "pending event"] += 1
        refusals.clear()
        requeue(self, rest)

    monkeypatch.setattr(flows.FlowInjector, "_requeue", counting)
    monkeypatch.setattr(Simulator, "advance", refused)
    for shape, bound in GRID:
        spec, cut = _build(shape, bound)
        TopologyEngine(spec).run(**cut)
    assert all(handed_back.values()), handed_back


def test_a_static_rack_injects_in_trains(monkeypatch):
    """Nothing is pending on a static rack but the next injection, so one
    event runs a whole train: the cap, until the flows drain."""
    steps = []
    step = Simulator.step

    def counted(self):
        steps.append(self.now)
        return step(self)

    monkeypatch.setattr(Simulator, "step", counted)
    spec = rack_fan_in_topology(racks=1, senders=4, chunks=1000, bases=8, scenario="static")
    engine = TopologyEngine(spec)
    report = engine.run()
    assert engine.simulator.executed_events == report.chunks_sent == 4000
    assert len(steps) == -(-4000 // flows.TRAIN_CAP)
