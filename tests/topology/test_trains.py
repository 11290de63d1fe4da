"""Trains: one event injects every paced frame that precedes the rest.

A train is consecutive events run without the heap, so nothing a run
shows may depend on how long trains are.  With the cap patched to one
frame per event (every injection its own heap entry) the reports, every
trace event and every observer call must be byte-identical to the default
over the shapes ``test_train_pins.py`` pins — including the cuts that land
inside what is one train by default.  The grid must also reach the train's
rare paths: frames handed back because a frame before them scheduled an
event that comes first, and because the run's ``max_events`` ran out.
"""

import pytest

from repro import obs
from repro.sim.simulator import Simulator
from repro.topology import TopologyEngine, rack_fan_in_topology
from repro.topology import flows

from test_train_pins import CUT, FULL


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


GRID = [(shape, {}) for shape in sorted(FULL)] + [
    (shape, bound) for shape, bound in sorted(CUT)
]


def _build(shape, bound):
    if bound:
        build, cut = CUT[(shape, bound)]
        return build(2020), cut
    return FULL[shape](2020), {}


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


def test_the_grid_hands_frames_back(monkeypatch):
    """Some train of the grid stops at an event a frame before scheduled,
    and some at the ``max_events`` budget, with frames collected; and some
    run of frames injected one by one, before a train, stops at the
    budget too."""
    handed_back = {"pending event": 0, "max_events": 0, "one by one": 0}
    requeue = flows.FlowInjector._requeue
    advance = Simulator.advance
    train = flows.FlowInjector._train
    in_train = []

    def refused(self, time, sequence, description):
        if advance(self, time, sequence, description):
            return True
        handed_back["max_events" if in_train else "one by one"] += 1
        return False

    def counting(self, rest):
        if rest:
            handed_back["pending event"] += 1
        requeue(self, rest)

    def training(self, cap):
        in_train.append(True)
        try:
            train(self, cap)
        finally:
            in_train.pop()

    monkeypatch.setattr(flows.FlowInjector, "_requeue", counting)
    monkeypatch.setattr(flows.FlowInjector, "_train", training)
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
