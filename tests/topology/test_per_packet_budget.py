"""A guard on the per-packet path: Python calls and events per chunk.

Wall time on a shared host cannot guard the per-packet budget; these two
counts can, because they repeat exactly on any machine.  The engine is
built first, so only ``TopologyEngine.run()`` is counted: injection, both
compiled switch programs, the emulated rack wire, host delivery and flow
accounting, with everything the graph and the constructors resolve once
already resolved.

History of ``calls per chunk`` on this exact spec (``scripts/
per_packet_profile.py --preset rack-fan-in --quick`` prints the same
number with a per-function table): 90.575 before the path was bound at
wire/construction time (three adapter hops, an ``EventHandle`` per event,
a three-call counter chain, ~15 property reads, a CRC loop per decoded
chunk), 54.637 after; 46.639 once each switch hands its output on stamped
with the end of its pipeline latency instead of waiting it out in a
transmit event — two events per chunk instead of four, and eight calls
fewer: ``step``, ``schedule_at`` and ``Event.__init__`` twice each, the
link's ``queue_depth`` property, and its ``current_key`` read, which only
a completion at exactly the send's instant still needs.  39.649 once no
frame builds a record nobody reads — seven calls fewer: a
``PipelineResult`` per switch pass, the compiled programs'
``TofinoSwitch.record_rx`` and ``NamedCounterSet.count`` per pass (they
count through per-port statistics and counter cells bound when they are
built) and the source's ``TimedFrame`` per injected frame.  The 0.010
above 39.639 is ``NamedCounterSet.index`` behind the report's counter
reads, twenty calls per run.  The same spec in ``exact`` metrics mode
went 47.604 → 39.614: its tap also stopped building a ``LinkTapRecord``
per frame, so the two modes now differ only in what the flow accounts
and links keep.  37.647 (exact: 37.612) once an event is its heap entry
— a ``(time, sequence, callback, description)`` tuple, with no
cancellation or priority — and ``schedule_at`` stopped building an
``Event`` per call: two ``Event.__init__`` calls fewer.  28.627 (exact:
30.591) once the rack wire hands each frame to the decoder at once,
stamped with its delivery instant, because nothing can touch the decoder
before it (``repro.sim.lookahead``; one event per chunk instead of two:
``step``, ``schedule_at`` and the link's ``_deliver`` fewer,
``Lookahead.admits`` more), and the path it runs on was flattened: the
tap forwards to its link itself (no ``tapped`` closure), the injection
event schedules its successor itself (no ``_schedule_next``), an arrival
goes straight to its flow's account (no ``FlowState.record_arrival``),
the CRC extern's count is a plain attribute (two ``record_invocation``
calls fewer) and a bounded ``Distribution.add`` is its sketch's, with
``_bucket_index`` inlined (two calls fewer, streaming only).
"""

import sys

import pytest

from repro.topology import TopologyEngine, rack_fan_in_topology

#: Python-level ``call`` events per chunk the run may spend, per metrics
#: mode.  Just above today's counts: a new per-frame call — or a per-frame
#: record only one mode keeps — is a decision, not an accident.
MAX_CALLS_PER_CHUNK = {"streaming": 28.7, "exact": 30.6}


def _count_python_calls(function) -> int:
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("metrics_mode", ["streaming", "exact"])
def test_static_rack_fan_in_stays_within_its_per_chunk_budget(metrics_mode):
    spec = rack_fan_in_topology(
        racks=2, senders=4, chunks=250, bases=8, scenario="static", seed=2020
    )
    engine = TopologyEngine(spec, metrics_mode=metrics_mode)
    calls = _count_python_calls(engine.run)
    chunks = sum(state.chunks_sent for state in engine.flow_states)
    assert chunks == 2 * 4 * 250
    # The injection only: both switches hand their output on stamped with
    # the end of their pipeline latency, the rack wire hands each frame to
    # the decoder stamped with its delivery instant (nothing can write the
    # decoder's table before it), and no event is spent on bookkeeping.
    assert engine.simulator.executed_events / chunks == 1.0
    assert calls / chunks <= MAX_CALLS_PER_CHUNK[metrics_mode], calls / chunks
