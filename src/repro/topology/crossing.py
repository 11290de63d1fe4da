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

from bisect import bisect_left
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro import obs as _obs
from repro.sim.events import next_sequence
from repro.sim.simulator import Simulator
from repro.zipline.headers import RAW_CHUNK_ETHERTYPE_BYTES

if TYPE_CHECKING:
    from repro.topology.flows import FlowState

__all__ = ["FIRST_CROSSING", "cross"]

#: A train entry's time, flow and frame, and a flow's encoder and its port.
_TIME = itemgetter(0)
_STATE = itemgetter(2)
_FRAME = itemgetter(3)
_ENCODER = attrgetter("encoder")
_PORT = attrgetter("port")

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
    train: List[Tuple[float, int, "FlowState", bytes]],
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
    encoders = list(map(_ENCODER, map(_STATE, train[:count])))
    if None in encoders:
        count = encoders.index(None)
        del encoders[count:]
    # encoder -> the train positions, frames, clocks and ports of its frames
    lists: Dict[Any, Tuple[List[int], List[bytes], List[float], List[int]]] = {}
    # encoder -> what its ``leading_hits`` split of its leading frames
    judged: Dict[Any, list] = {}
    distinct = dict.fromkeys(encoders)
    for encoder in distinct:
        if len(distinct) == 1:
            positions = list(range(count))
            entries = train[:count]
        else:
            positions = [at for at, fed in enumerate(encoders) if fed is encoder]
            entries = list(map(train.__getitem__, positions))
        lists[encoder] = (
            positions,
            list(map(_FRAME, entries)),
            list(map(_TIME, entries)),
            list(map(_PORT, map(_STATE, entries))),
        )
    first = True
    for encoder, (positions, frames, clocks, ports) in lists.items():
        # A miss ends the crossing.  The first encoder's ingress runs first
        # and finds its own (judged here only whether its first frame is
        # one); every other encoder's frames are judged before any ingress
        # runs, so none runs past another's miss.
        hits = judged[encoder] = encoder.leading_hits(frames[:1] if first else frames)
        reached = min(
            len(frames) if first else len(hits),
            encoder.reach(ports, clocks, clocks, max(map(len, frames)), False)
            if hits
            else 0,
        )
        first = False
        if reached < len(positions):
            count = min(count, positions[reached])
    tracer = _obs.TRACER
    contexts: List[Any] = [None] * count
    if tracer.enabled:
        taken: Dict["FlowState", int] = {}
        for at, (_time, _key, state, _frame) in enumerate(train[:count]):
            taken[state] = taken.get(state, state.frames_sent) + 1
            contexts[at] = (state.spec.name, taken[state] - 1)
    crossing = []
    for encoder, (positions, frames, clocks, ports) in lists.items():
        ran = bisect_left(positions, count)
        if ran:
            outs = encoder.ingress_batch(
                frames[:ran],
                ports[:ran],
                clocks[:ran],
                [contexts[at] for at in positions[:ran]] if tracer.enabled else [None] * ran,
                judged[encoder],
            )
            if len(outs) < ran:  # the first encoder only: see above
                count = positions[len(outs)]
            crossing.append((encoder, ports[0], outs, clocks, positions))
    if not count:
        return 0
    keys = []
    for (time, _key, state, frame), context in zip(train, contexts[:count]):
        keys.append((time, state.sequence, next_sequence(), context))
        state.sequence = next_sequence()
        state.frames_sent += 1
        if frame[12:14] == RAW_CHUNK_ETHERTYPE_BYTES:
            state.chunks_sent += 1
            state.chunk_bytes_sent += len(frame) - 14
            account = state.account
            if account is not None:
                if account.pending:
                    account.record_sent(frame, time)
                else:  # ``FlowAccount.record_sent``'s in-order send
                    account.in_order.append((frame, account.sent, time))
                    account.sent += 1
    if tracer.enabled:  # the ingress left its last frame's context
        tracer.clear_context()
    simulator.advance_through(keys, description)
    try:
        if tracer.enabled:
            for (time, _key, state, _frame), context in zip(train, contexts[:count]):
                tracer.restore_context(context)
                tracer.instant("flow.inject", state.spec.source, ts=time)
        for encoder, port, outs, clocks, positions in crossing:
            ran = len(outs)
            encoder.hand_on(port, outs, clocks[:ran], [keys[at] for at in positions[:ran]])
    finally:
        if tracer.enabled:
            tracer.clear_context()
    return count

