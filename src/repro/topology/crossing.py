"""A train's crossing: the frames every hop takes at once, as lists.

An injection train (:class:`~repro.topology.flows.FlowInjector`) is a run
of consecutive events, one per frame, each walking its frame through every
hop.  The leading part of a train that no hop would give an event of its
own — no refused ``admits``, no hold, no owed delivery, no impairment
delay, no table miss, within ``max_events`` and the run's horizon —
crosses each hop in one call instead: the encoder's compiled ingress over
the list, then its egress port, the tap, the link and the decoder, each
taking the whole list (``reach`` judges it first, without changing
anything, ``cross`` takes it).  Every frame is still its own executed
event, and every clock, key and sequence a hop reads is that frame's own,
passed with it.  A run an observer watches crosses nothing: the observer
must see the state each event leaves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro import obs as _obs
from repro.sim.events import next_sequence
from repro.sim.simulator import Simulator
from repro.zipline.headers import RAW_CHUNK_ETHERTYPE_BYTES

if TYPE_CHECKING:
    from repro.topology.flows import FlowState

__all__ = ["FIRST_CROSSING", "cross"]

#: How many frames a train's first crossing (:func:`cross`) judges before
#: the rest is judged as one; a shorter train runs frame by frame.  A
#: crossing costs a fixed ~30 calls (judging every hop, building its
#: lists), and a train that stops crossing stops early, at a learning
#: shape's next miss.  On ``fanin-thrash-learn``, whose trains are mostly
#: shorter: crossing every train ran 213 crossings over 343 of 16,000
#: frames and read 0.972× the parent's chunks/s (0/10 pairs); on its
#: ``--quick`` shape (exact) judging whole trains read 2,521.7 bytecodes
#: per chunk, 2,467.2 with this cap on the first crossing, 2,462.3 with
#: short trains left alone too, against 2,462.0 frame by frame.
FIRST_CROSSING = 16


def cross(
    simulator: Simulator,
    train: List[Tuple[float, "FlowState", bytes]],
    description: str,
) -> int:
    """Run the longest leading part of ``train`` that crosses every hop
    without an event of its own as lists, one call per hop; how many
    frames that was.

    Those are frames of flows whose hosts feed an encoder directly,
    that its program sends out through one egress port and every hop
    after it takes at once (``reach``), within the run's
    ``max_events``, up to the first frame an encoder's table misses:
    its learn digest must find the frames after it not yet run.  The
    frames of each encoder cross as one list; two encoders' frames
    share no hop but a host, which takes them in any order.  Each frame
    is still its own event
    (:meth:`~repro.sim.simulator.Simulator.advance_through`), and what
    a hop reads of its event — the clock, its key, the sequence a link
    send draws, the trace context — travels with it as its key
    ``(clock, sequence, draw, context)``, the draws taken in the order
    frame by frame takes them: the frame's link send, then its flow's
    next frame.  The event being executed is the one before the train's
    first frame; each frame's event is labelled ``description``.
    """
    count = max(0, min(len(train), simulator.room()))
    lists: Dict[Any, List[int]] = {}  # encoder -> train positions of its frames
    for at, (_time, state, _frame) in enumerate(train[:count]):
        if state.encoder is None:
            count = at
            break
        lists.setdefault(state.encoder, []).append(at)
    for encoder, positions in lists.items():
        frames, clocks, ports = [], [], []
        for at in positions:
            time, state, frame = train[at]
            frames.append(frame)
            clocks.append(time)
            ports.append(state.port)
        # A miss ends the crossing: judge the frames before it — with one
        # encoder only whether the first is, the ingress finds the rest.
        several = len(lists) > 1
        hits = encoder.leading_hits(frames if several else frames[:1])
        reached = min(
            hits if several else len(frames),
            encoder.reach(ports, clocks, clocks, max(map(len, frames)), False)
            if hits
            else 0,
        )
        if reached < len(positions):
            count = min(count, positions[reached])
    tracer = _obs.TRACER
    contexts: List[Any] = [None] * count
    if tracer.enabled:
        taken: Dict["FlowState", int] = {}
        for at, (_time, state, _frame) in enumerate(train[:count]):
            taken[state] = taken.get(state, state.frames_sent) + 1
            contexts[at] = (state.spec.name, taken[state] - 1)
    crossing = []
    for encoder, positions in lists.items():
        positions = [at for at in positions if at < count]
        if positions:
            clocks = [train[at][0] for at in positions]
            outs = encoder.ingress_batch(
                [train[at][2] for at in positions],
                [train[at][1].port for at in positions],
                clocks,
                [contexts[at] for at in positions],
            )
            if len(outs) < len(positions):  # one encoder only: see above
                count = positions[len(outs)]
            crossing.append((encoder, train[positions[0]][1].port, outs, clocks, positions))
    if not count:
        return 0
    keys = []
    for at, (time, state, frame) in enumerate(train[:count]):
        keys.append((time, state.sequence, next_sequence(), contexts[at]))
        state.sequence = next_sequence()
        state.frames_sent += 1
        if frame[12:14] == RAW_CHUNK_ETHERTYPE_BYTES:
            state.chunks_sent += 1
            state.chunk_bytes_sent += len(frame) - 14
            if state.account is not None:
                state.account.record_sent(frame, time)
    if tracer.enabled:  # the ingress left its last frame's context
        tracer.clear_context()
    simulator.advance_through([key[0] for key in keys], [key[1] for key in keys], description)
    try:
        if tracer.enabled:
            for (time, state, _frame), context in zip(train, contexts[:count]):
                tracer.restore_context(context)
                tracer.instant("flow.inject", state.spec.source, ts=time)
        for encoder, port, outs, clocks, positions in crossing:
            ran = len(outs)
            encoder.hand_on(port, outs, clocks[:ran], [keys[at] for at in positions[:ran]])
    finally:
        if tracer.enabled:
            tracer.clear_context()
    return count

