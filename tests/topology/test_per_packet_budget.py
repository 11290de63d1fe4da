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
``_bucket_index`` inlined (two calls fewer, streaming only).  25.697
(exact: 25.657) once one injector per shard runs every paced frame that
precedes all other pending events inside one event — a train, each frame
still its own executed event through ``Simulator.advance`` — and primes
the encoder's syndromes for the whole train with one ``lane_remainders``
call: ``Simulator.step`` falls from 1.0 to 0.004 calls per chunk (one per
256-frame train), and ``step``, ``schedule_at``, the injection callback
and the CRC byte loop give way to ``advance``; exact mode also stopped
converting every queueing-delay and latency sample on its way into the
report (``Distribution.extend`` takes an ``array('d')`` whole; two calls
fewer).  Calls stayed at 25.697 (exact: 25.657) when the interpreted P4
model left ``src/`` for the test oracle: the compiled programs stopped
writing what only the diff against it read — the parser's
``packets_parsed`` and the const syndrome table's lookup, hit and
per-entry hit metadata, no call among them — so bytecodes per chunk fell
by 82 instead (1,788.7 → 1,706.7 streaming, 1,735.9 → 1,653.9 exact).

The learning shapes of the benchmark (``fanin-thrash-learn``,
``dns-lossy-multihop``, at their ``--quick`` sizes, exact mode) had an
event due before nearly every injection, so each injection ran alone —
the one-frame path.  Their counts were 45.703 and 68.349 before trains,
and 43.701 and 64.453 after (the ``Distribution.extend`` change); one
program form left them there, at 82 bytecodes per chunk fewer (2,579.4 →
2,497.0 and 3,403.3 → 3,321.1).  40.312 and 58.525 once the lookahead
went hop by hop through every link of a chain and a write held a program
only for frames stamped at or after the earliest pending one
(``repro.sim.lookahead``): a frame crosses the lossy chain's three links
into the decoder without a delivery event unless one of them delays it,
a pending write precedes its stamp or an earlier delivery on the same
link is still owed, and those wait behind one event per link.  Events
per chunk fell from 2.810 and 4.772 to 1.990 and 2.451, ``Simulator.step``
calls to 1.574 and 2.113 — the injections now run between the deliveries
that are left, the first ``ONE_BY_ONE`` of a run one by one and the rest
as a train — and at the benchmark's full size the DNS chain went from
4.1145 to 0.997 ``step`` calls per chunk.  Bytecodes per chunk:
2,497.0 → 2,462.1 and 3,321.1 → 3,401.4 (the link keeps each frame's
entry key and its owed deliveries).  The static rack pays for that too,
1,653.9 → 1,697.4 bytecodes, and 0.028 calls per chunk more in both modes
(25.685 exact, 25.725 streaming): the first frames of each train now run
one by one, their syndromes not primed.

10.873 (exact: 10.833) calls and 1,494.9 (exact: 1,441.1) bytecodes per
chunk (Python 3.11) once the leading part of a train that every hop takes at once
crosses each hop as one list (``repro.topology.crossing``): the encoder's
compiled ingress over the list, its egress port, the tap, the link, the
decoder and the host one call each, after each hop judged the list
(``reach``).  ``advance``, ``HostNode.inject`` and ``deliver``, the two
``switch_ingress``, ``receive``, ``_compiled_ingress``, ``lookup_ref`` and
``transmit`` calls, ``LinkTap.observe``, ``EmulatedLink.send`` and
``Lookahead.admits`` leave the per-frame path; what is left per frame is
the source (workload, pacing), the flow account's send and arrival and
the bounded latency sketch.  The rack's two encoders share each train,
so ``ZipLineEncoderSwitch.leading_hits`` judges both lists for a miss
first (70 bytecodes per chunk).  The learning shapes' trains are short
or stop at a miss, so they barely cross: 40.324 and 58.529 calls
(2,458.9 and 3,393.6 bytecodes; the tap classifies a frame with one
dict lookup now); the DNS chain's reordering links take no list, so its
injector never tries.  1,494.0 (exact: 1,440.2) bytecodes once the
encoder's list ingress lost the learning branch no crossing ran (a
train stops before a miss), and with it the locals it bound per list.
Calls do not move with the version on this path (10.873 on 3.9 too;
10.687 on 3.12, which inlines comprehensions), so their bound holds on
every version; bytecodes do, so theirs is kept per version.

5.680 (exact: 5.562) calls and 1,149.4 (exact: 1,096.9) bytecodes per
chunk (Python 3.11; 1,110.4 / 1,058.8 on 3.9) once a crossing's flow
ends took lists too: the sink host hands its whole list to the flows in
one call, each flow's arrivals are matched as one list and its latency
samples binned with one ``extend``; an arrival equal to the oldest chunk
in flight matches it with one comparison; the crossing and the train
record each in-order send themselves; the injection event collects its
train from its own frame, so the first frames of a train no longer run
one by one and all but the event's own cross; the crossing gathers each
encoder's lists in C and judges misses only for encoders after the
first; and the list ingress and the tap count per (port or EtherType,
size) with one ``Counter``.  ``FlowAccount.record_sent`` and
``record_arrival``, the sketch's ``_add_bounded`` and
``raw_chunk_payload`` leave the rack's per-frame path; what is left per
frame is the source.  The learning shapes' trains are short, so they pay
the collection instead of a one-by-one run: 38.304 and 57.522 calls (the
thrash shape's sends are in order, so they no longer call
``record_sent``; an arrival no longer calls ``raw_chunk_payload``).
Each count is taken with the collector off, after a collection: in the
full suite a finalizer of an earlier test's garbage used to add 6–10
calls to a learning shape's run.

4.680 (exact: 4.562) calls and 1,112.5 (exact: 1,060.0) bytecodes per
chunk (Python 3.11) once a pacing became a map from the trace to timed
frames: the injector reads ``(inject_at, frame)`` pairs that ``count``
and ``zip`` build in C, so the per-frame ``inject_at`` call and the
pacing index leave the path; what is left per frame is the workload's
generator and the source's.  The learning shapes lose the same call
and 37 bytecodes: 37.304 and 56.522 calls (2,451.8 and 3,462.1
bytecodes).  The 3.9 bytecode bounds were not re-measured (no 3.9 on
the host that measured this); the change only removes bytecodes, so
they still hold.

4.648 (exact: 4.530) calls and 1,088.9 (exact: 1,036.4) bytecodes per
chunk (Python 3.11) once the encoder's list ingress took back the splits
``leading_hits`` worked out instead of splitting each chunk again (the
rack's trains hold both racks' frames, so the second encoder's are
judged whole) and the egress port's stamps were added up in C
(``map(add, ...)``) in ``TofinoSwitch.reach`` and ``transmit_batch``;
the event's own frame of each train now reads its chunk's split from
the encoder's per-frame memo.  The learning shapes: 36.677 and 55.385
calls (2,332.5 and 3,218.7 bytecodes): their per-frame encoder splits
each distinct chunk once, a frame reordered by less than the shortest
frame's serialisation no longer holds the next hop (the DNS chain's
1 % reorders at 66 Mb/s), and a learn digest holds the decoder only from
its delivery plus the least processing step.  The quick DNS chain's
``Simulator.step`` calls fell from 2.113 to 1.990 per chunk; at full
size, 0.997 → 0.513, and the thrash fan-in's 1.050 → 0.875.

33.872 and 53.370 calls (2,256.6 and 3,177.2 bytecodes) once the control
plane stopped keeping an event log that nothing read: each learn digest,
ignore, eviction and install used to build a frozen dataclass and append
it to a 65,536-entry deque (two calls each); it is now a
``controlplane.*`` trace instant behind ``tracer.enabled``, so an
untraced run pays one attribute load and one test per step.  The static
rack does not move (4.659 / 4.545 calls, 1,076.5 / 1,024.0 bytecodes): a
static preload records no step.
"""

import gc
import sys
from contextlib import contextmanager

import pytest

from repro.sim.simulator import Simulator
from repro.topology import (
    FaultPlan,
    TopologyEngine,
    fan_in_topology,
    linear_topology,
    rack_fan_in_topology,
    validate_spec_faults,
)

#: Python-level ``call`` events per chunk the run may spend, per metrics
#: mode.  Just above today's counts: a new per-frame call — or a per-frame
#: record only one mode keeps — is a decision, not an accident.
MAX_CALLS_PER_CHUNK = {"streaming": 4.67, "exact": 4.55}

#: Bytecodes per chunk the static rack may spend, per Python version and
#: metrics mode: what a crossing spends per frame is loop bodies, not
#: calls, so calls alone no longer size it.  The opcodes a function
#: executes differ between versions (3.11 added ``RESUME`` and
#: ``PRECALL``; 3.12 inlines comprehensions), so a bound holds only on the
#: version it was measured on: 1,088.9 / 1,036.4 on 3.11, 1,110.4 /
#: 1,058.8 on 3.9 before the pacing map (an upper bound since).  None on 3.12: there the first ``sys.settrace`` of a
#: process counted no opcode at all (3.12.1), so the streaming run read 0.
MAX_BYTECODES_PER_CHUNK = {
    (3, 9): {"streaming": 1116.0, "exact": 1065.0},
    (3, 11): {"streaming": 1094.0, "exact": 1042.0},
}

#: The same for the two learning shapes of the benchmark (exact), at
#: their isolated counts (33.8715 and 53.3695; 36.6765 and 55.3845 while
#: the control plane kept an event log).
MAX_LEARNING_CALLS_PER_CHUNK = {"fanin-thrash-learn": 33.88, "dns-lossy-multihop": 53.38}

#: ``Simulator.step`` calls per chunk the DNS chain may spend at its quick
#: size: its injections run in trains between the deliveries that keep an
#: event (1.990).
MAX_DNS_STEPS_PER_CHUNK = 2.00

#: ``Simulator.step`` calls per chunk each learning shape may spend at the
#: benchmark's full size, seed 2020 (0.513 and 0.875; 0.997 and 1.050
#: while every delayed frame held the next hop and every learn digest
#: held the decoder from its delivery).
MAX_FULL_SIZE_STEPS_PER_CHUNK = {"dns-lossy-multihop": 0.55, "fanin-thrash-learn": 0.90}


@contextmanager
def _collector_off():
    """Collect the garbage earlier tests left, then keep the collector off
    while a run is counted: a finalizer it would run mid-run is a call the
    run did not make (6–10 calls per learning shape in the full suite)."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _count_python_calls(function):
    """Python calls ``function()`` makes, and how many are ``Simulator.step``."""
    calls = steps = 0
    step = Simulator.step.__code__

    def profiler(frame, event, _arg):
        nonlocal calls, steps
        if event == "call":
            calls += 1
            if frame.f_code is step:
                steps += 1

    with _collector_off():
        sys.setprofile(profiler)
        try:
            function()
        finally:
            sys.setprofile(None)
    return calls, steps


def _count_bytecodes(function):
    """Bytecodes ``function()`` executes (``sys.settrace`` opcode events)."""
    executed = 0

    def local(frame, event, _arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return local

    def start(frame, _event, _arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    with _collector_off():
        sys.settrace(start)
        try:
            function()
        finally:
            sys.settrace(None)
    return executed


def _fanin_thrash_learn(chunks=500):
    spec = fan_in_topology(
        senders=4, workload="thrash", chunks=chunks, bases=10, packet_rate=1e5,
        identifier_bits=5, control="in-network", seed=2020,
    )
    spec.faults = FaultPlan(control_loss=0.1)
    validate_spec_faults(spec)
    return spec


def _dns_lossy_multihop(chunks=2000):
    return linear_topology(
        workload="dns", chunks=chunks, names=400, scenario="dynamic", hops=3,
        loss=0.01, reorder=0.01, queue_capacity=64, packet_rate=1e5,
        bandwidth_gbps=0.066, seed=2020,
    )


@pytest.mark.parametrize("metrics_mode", ["streaming", "exact"])
def test_static_rack_fan_in_stays_within_its_per_chunk_budget(metrics_mode):
    spec = rack_fan_in_topology(
        racks=2, senders=4, chunks=250, bases=8, scenario="static", seed=2020
    )
    engine = TopologyEngine(spec, metrics_mode=metrics_mode)
    calls, steps = _count_python_calls(engine.run)
    chunks = sum(state.chunks_sent for state in engine.flow_states)
    assert chunks == 2 * 4 * 250
    # The injection only: both switches hand their output on stamped with
    # the end of their pipeline latency, the rack wire hands each frame to
    # the decoder stamped with its delivery instant (nothing can write the
    # decoder's table before it), and no event is spent on bookkeeping.
    assert engine.simulator.executed_events / chunks == 1.0
    # Nothing else is pending, so the injections run in trains.
    assert steps / chunks <= 0.01, steps / chunks
    assert calls / chunks <= MAX_CALLS_PER_CHUNK[metrics_mode], calls / chunks
    bounds = MAX_BYTECODES_PER_CHUNK.get(sys.version_info[:2])
    if bounds is not None:
        twin = TopologyEngine(spec, metrics_mode=metrics_mode)
        bytecodes = _count_bytecodes(twin.run)
        assert bytecodes / chunks <= bounds[metrics_mode], bytecodes / chunks


LEARNING_SHAPES = {
    "fanin-thrash-learn": _fanin_thrash_learn,
    "dns-lossy-multihop": _dns_lossy_multihop,
}


@pytest.mark.parametrize("shape", sorted(LEARNING_SHAPES))
def test_a_learning_shape_stays_within_its_budget(shape):
    engine = TopologyEngine(LEARNING_SHAPES[shape](), metrics_mode="exact")
    calls, steps = _count_python_calls(engine.run)
    chunks = sum(state.chunks_sent for state in engine.flow_states)
    assert chunks == 2000
    assert calls / chunks <= MAX_LEARNING_CALLS_PER_CHUNK[shape], calls / chunks
    if shape == "dns-lossy-multihop":
        assert steps / chunks <= MAX_DNS_STEPS_PER_CHUNK, steps / chunks


FULL_SIZE = {
    "dns-lossy-multihop": lambda: _dns_lossy_multihop(chunks=16000),
    "fanin-thrash-learn": lambda: _fanin_thrash_learn(chunks=4000),
}


@pytest.mark.parametrize("shape", sorted(FULL_SIZE))
def test_a_learning_shape_at_full_size_spends_few_events(shape, monkeypatch):
    """The benchmark's learning shapes at full size (16,000 chunks each),
    ``Simulator.step`` counted by wrapping it, with no tracer: the DNS
    chain went from 4.1145 steps per chunk, when every hop but the last
    spent a delivery event per frame, to 0.997 with the lookahead hop by
    hop, and to 0.513 once a frame delayed too little to be overtaken
    held nothing and a learn digest held the decoder only from the first
    instant the control plane could write it; the thrash fan-in from
    1.050 to 0.875."""
    steps = 0
    step = Simulator.step

    def counting(self):
        nonlocal steps
        steps += 1
        return step(self)

    monkeypatch.setattr(Simulator, "step", counting)
    engine = TopologyEngine(FULL_SIZE[shape](), metrics_mode="exact")
    engine.run()
    chunks = sum(state.chunks_sent for state in engine.flow_states)
    assert chunks == 16000
    assert steps / chunks <= MAX_FULL_SIZE_STEPS_PER_CHUNK[shape], steps / chunks
