"""An emulated network hop on the discrete-event simulator.

:class:`EmulatedLink` is the piece the original two-switch deployment was
missing: the wire itself.  It models what a real hop does to a frame —

* **serialisation**: a store-and-forward output queue drained at
  ``bandwidth_bps``; wire occupancy (preamble, padding, FCS, inter-frame
  gap) is taken from :func:`repro.net.ethernet.frame_wire_bytes`;
* **propagation**: a constant one-way delay;
* **bounded queueing**: drop-tail when more than ``queue_capacity`` frames
  are in the output queue (``None`` = unbounded).  The depth is derived,
  not event-driven: the link remembers when each queued frame finishes
  serialising and counts the ones the simulator has not passed yet, so a
  traversal costs at most one event (the delivery), not two — and none
  for the hand-off into the link when a switch hands the frame on stamped
  with the end of its pipeline latency, ahead of the clock (see
  :attr:`EmulatedLink.queue_depth` for where such a frame is positioned),
  nor for the delivery into a receiver — a switch program, the next link
  of a chain — whose :class:`~repro.sim.lookahead.Lookahead` admits the
  frame's stamp, a frame delayed too little for any later one to
  overtake included;
* **seeded impairments**: loss and reordering drawn from a deterministic
  :class:`ImpairmentModel`, so replays are exactly reproducible.

Every frame that enters the link is accounted in :class:`LinkStats`
(offered/delivered/dropped, queue occupancy peaks, per-frame queueing
delay), which the metrics registry folds into the run's report.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from math import inf
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.exceptions import ReplayError
from repro.net.ethernet import frame_wire_bytes
from repro.replay.impairments import ImpairmentModel
from repro.sim.lookahead import Lookahead, crossing
from repro.sim.simulator import Simulator

__all__ = ["ImpairmentModel", "LinkStats", "EmulatedLink"]

#: How many frames a link keeps after a send found them complete, before
#: it drops those the clock has passed (see ``EmulatedLink.queue_depth``).
KEEP_COMPLETE = 256

#: ``sink(frame_bytes, time)`` — same shape as a switch port sink.
LinkSink = Callable[[bytes, float], None]

#: The sequence slot of a completion or reading positioned ahead of the
#: clock: above every sequence number, so at its instant it follows every
#: frame sent and every reading taken at the clock, and below the +inf of
#: the simulator's idle position after that instant.
AHEAD = sys.float_info.max


@dataclass
class LinkStats:
    """Counters and samples describing one link's behaviour during a run.

    ``queueing_delays`` holds one sample per admitted frame, in admission
    order, packed as C doubles (8 bytes each).
    """

    offered: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_queue: int = 0
    reordered: int = 0
    offered_bytes: int = 0
    delivered_bytes: int = 0
    max_queue_depth: int = 0
    busy_time: float = 0.0
    queueing_delays: array = field(default_factory=partial(array, "d"))

    @property
    def dropped(self) -> int:
        """Total frames lost on this link, for any reason."""
        return self.dropped_loss + self.dropped_queue

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the metrics registry."""
        return {
            "offered": self.offered,
            "delivered": self.delivered,
            "dropped_loss": self.dropped_loss,
            "dropped_queue": self.dropped_queue,
            "reordered": self.reordered,
            "offered_bytes": self.offered_bytes,
            "delivered_bytes": self.delivered_bytes,
            "max_queue_depth": self.max_queue_depth,
            "busy_time": self.busy_time,
        }


class EmulatedLink:
    """A one-directional emulated hop: queue → serialise → propagate → sink.

    Parameters
    ----------
    simulator:
        Shared discrete-event simulator (the link schedules deliveries on
        it, so it must be the same instance the switches use).
    sink:
        Where delivered frames go; settable later via :meth:`attach`.
    name:
        Link name for event descriptions and reports.
    bandwidth_bps:
        Drain rate of the output queue (100 GbE by default).
    propagation_delay:
        One-way propagation delay in seconds.
    queue_capacity:
        Maximum frames queued or in serialisation before drop-tail kicks
        in; ``None`` disables the bound.
    impairments:
        Seeded loss/reorder model; ``None`` means an ideal link.
    record_delays:
        Keep the per-frame queueing-delay samples (O(frames) memory, 8
        bytes a frame) for the percentile report.  Counters-only replays
        of very large traces disable this; the scalar counters always
        stay.
    """

    def __init__(
        self,
        simulator: Simulator,
        sink: Optional[LinkSink] = None,
        name: str = "link",
        bandwidth_bps: float = 100e9,
        propagation_delay: float = 0.5e-6,
        queue_capacity: Optional[int] = None,
        impairments: Optional[ImpairmentModel] = None,
        record_delays: bool = True,
    ):
        if not 0 < bandwidth_bps < inf:
            raise ReplayError(
                f"bandwidth must be positive and finite, got {bandwidth_bps}"
            )
        if not 0 <= propagation_delay < inf:
            raise ReplayError(
                "propagation delay must be finite and non-negative, "
                f"got {propagation_delay}"
            )
        if queue_capacity is not None and queue_capacity <= 0:
            raise ReplayError(
                f"queue capacity must be positive or None, got {queue_capacity}"
            )
        self.simulator = simulator
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.queue_capacity = queue_capacity
        self.impairments = impairments
        self.record_delays = record_delays
        self.stats = LinkStats()
        self._sink: Optional[LinkSink] = None
        # Whether the sink is the next link of a chain, which takes the key
        # of a frame's delivery event along with the frame.
        self._sink_is_link = False
        self._lookahead: Optional[Lookahead] = None
        self._crossing = None
        if sink is not None:
            self.attach(sink)
        self._busy_until = 0.0
        # The latest instant a frame was offered at: offers come in time
        # order, or a frame handed on ahead of the clock was overtaken.
        self._offered_until = 0.0
        # The frames still queued or being serialised, oldest first, each
        # as where an explicit serialisation-done event scheduled when it
        # entered would sit in the simulator's order, followed by the key of
        # the event its send runs in (where it entered): ``(done, sequence,
        # entered)`` for a frame sent at the clock, ``(done, AHEAD,
        # entered)`` for one handed on ahead of it, whose send runs in the
        # event the hand-on saved.  A reading's position takes the same
        # shape: the clock's key itself, ``(stamp, AHEAD, clock key)`` for a
        # send stamped ahead of it.
        self._serialising: List[tuple] = []
        # How many of the oldest of them the latest send found complete: a
        # send ahead of the clock reads at its own stamp, but the frames it
        # finds complete stay for readings at the clock, until more than
        # ``KEEP_COMPLETE`` pile up and those the clock has passed go.
        self._gone = 0
        # Deliveries owed to the receiver because the lookahead refused
        # them, oldest first, behind one event (see ``send``): ``(frame,
        # deliver_at, handoff, tracer context)``, where ``handoff`` — what a
        # link receiver takes as ``saved`` — is the sequence the delivery's
        # event is keyed by and the key of the event it was drawn in.
        self._owed: Deque[Tuple[bytes, float, Tuple[int, tuple], object]] = deque()
        # The event description is constant; format it once, not per frame.
        self._deliver_label = f"{name}:deliver"
        # frame length -> serialisation delay: traffic has a handful of
        # frame sizes, each worked out (padding, overheads, a division) once.
        self._serialisation: Dict[int, float] = {}
        # The shortest frame's serialisation: no frame sent after one that
        # completes at ``done`` completes before ``done`` plus this.
        self._least_serialisation = frame_wire_bytes(0) * 8 / bandwidth_bps

    # -- wiring ---------------------------------------------------------------

    def attach(self, sink: LinkSink, lookahead: Optional[Lookahead] = None) -> None:
        """Attach (or replace) the receiving end of the link.

        ``lookahead`` is the receiver's, handed over by
        :meth:`repro.topology.graph.TopologyGraph.wire` when this link is
        the receiver's only data input: a switch program's when the link is
        the last hop into it, a fresh one when the receiver is the next
        link of a chain.  A frame it admits is handed to ``sink`` as soon
        as it is sent, stamped with its delivery instant, instead of from a
        delivery event (see :meth:`send`).
        """
        if not callable(sink):
            raise ReplayError("link sink must be callable")
        self._sink = sink
        self._sink_is_link = isinstance(getattr(sink, "__self__", None), EmulatedLink)
        # The receiver as a hop that takes a train as lists (``None`` for
        # the next link of a chain, which takes frames one at a time).
        self._crossing = None if self._sink_is_link else crossing(sink)
        self._lookahead = lookahead

    @property
    def queue_depth(self) -> int:
        """Frames currently queued or being serialised.

        A frame counts from the instant it enters the link: one handed in
        ahead of the clock — by a switch at the end of its pipeline, or by
        the link upstream at its delivery instant — is not counted before
        the clock reaches that instant, while it is still in the pipeline
        or on the wire upstream.  A frame leaves the queue when its
        serialisation completes.  The link spends no event on that: it
        compares the frame's completion key with the *position* of each
        reading.  This property and a send at the clock read at the
        simulator's :attr:`~repro.sim.simulator.Simulator.current_key`.  A
        send stamped ahead of the clock — a switch handing a frame on with
        the end of its pipeline latency, a link upstream handing it on at
        its delivery instant — reads at its own stamp, where the event it
        saved would have run, not at the clock's position.

        Exact ties — a completion at precisely the reading's instant —
        resolve the way those events would have run: the frame is gone iff
        it entered the link before the reading's event was scheduled.  At
        the clock, that is the event being executed.  Ahead of the clock,
        the reading was scheduled by the event that handed it on: a frame
        sent at the clock entered before that and is gone; a frame itself
        handed on ahead is gone iff the clock had passed the event its
        hand-on saved.  A frame the link upstream hands on — at once, or
        later from its owed deliveries or a reordered frame's event —
        comes with the key of the event its upstream send ran in, which is
        when its delivery event was scheduled (``saved``; see
        :meth:`send`).  One case has no saved event to order by — a frame
        handed on ahead of the clock, met at its completion instant by a
        send at the clock from another source, which only happens across a
        run horizon — and there the frame is still counted.  Between runs,
        the clock's idle position after an instant follows every completion
        at it.
        """
        serialising = self._serialising
        key = self.simulator.current_key
        # Completions are strictly increasing, so the frames the reading has
        # passed are the oldest; sends come in time order, so the frames
        # yet to enter are the newest: those handed in ahead whose saved
        # event follows the clock.
        depth = len(serialising) - bisect_left(serialising, key)
        for entry in reversed(serialising):
            if entry[1] != AHEAD or entry[2] < key:
                break
            depth -= 1
        return depth

    # -- data path ------------------------------------------------------------

    def send(
        self, frame: bytes, time: float, saved: Optional[Tuple[int, tuple]] = None
    ) -> None:
        """Offer one frame to the link at simulated ``time``.

        Matches the :data:`~repro.tofino.switch.PortSink` signature, so a
        switch egress port can be attached directly to the link.  A
        ``time`` ahead of the clock is a hand-off stamped with the end of
        an upstream pipeline: the frame enters at that instant, positioned
        as :attr:`queue_depth` describes.  Frames must be offered in time
        order; one offered before an instant the link has already taken a
        frame at is a :class:`~repro.exceptions.ReplayError`.  ``saved``
        comes with a frame the link upstream hands on: the sequence its
        delivery event is (or would be) keyed by, and the key of the event
        that sequence was drawn in.  The frame then enters where that
        delivery event runs, wherever the clock is when it is handed on.

        A frame that survives the wire is handed to the sink at once,
        stamped with its delivery instant, when the receiver's lookahead
        admits that stamp and no earlier delivery is still owed to it.  A
        frame the impairment model delays past the earliest stamp a later
        frame could get — its own completion plus the shortest frame's
        serialisation, plus propagation — keeps its own delivery event and
        holds the receiver until that has run.  A shorter delay lets no
        frame overtake, so that frame is handed on, or owed, like any
        other, at its delayed stamp.  Any other frame is owed: the owed
        deliveries wait in order behind one event, keyed by the sequence
        drawn for the oldest of them here, which delivers it and hands on
        every following one the receiver then admits.
        """
        if self._sink is None:
            raise ReplayError(f"link {self.name!r} has no sink attached")
        simulator = self.simulator
        clock = now = simulator.now
        ahead = time > now
        if ahead:
            now = time
        if now < self._offered_until:
            raise ReplayError(
                f"link {self.name!r}: frame offered at {now:.9f}s after one "
                f"offered at {self._offered_until:.9f}s; hand-offs ahead of "
                "the clock must reach a link in time order"
            )
        self._offered_until = now
        tracer = _obs.TRACER
        stats = self.stats
        length = len(frame)
        stats.offered += 1
        stats.offered_bytes += length

        impairments = self.impairments
        if impairments is not None and impairments.should_drop():
            stats.dropped_loss += 1
            if tracer.enabled:
                tracer.instant(
                    "link.drop", self.name, args={"reason": "loss"}, ts=now
                )
            return
        # ``queue_depth`` at this send's position.  Completions are strictly
        # increasing, so the frames gone by then are the oldest, and a send
        # never reads before the last one: count on from ``_gone``.  At most
        # one can tie with ``now``, and only a tie needs the full key.
        serialising = self._serialising
        gone = self._gone
        queued = len(serialising)
        while gone < queued and serialising[gone][0] < now:
            gone += 1
        if gone < queued and serialising[gone][0] == now:
            entry = serialising[gone]
            if saved is not None:
                # The reading's event was scheduled while ``saved[1]`` ran.
                finished = entry[2] < saved[1]
            else:
                key = simulator.current_key
                finished = entry < ((now, AHEAD, key) if ahead else key)
            if finished:
                gone += 1
        if gone > KEEP_COMPLETE:
            passed = bisect_left(serialising, (clock,), 0, gone)
            del serialising[:passed]
            queued -= passed
            gone -= passed
        self._gone = gone
        depth = queued - gone
        if self.queue_capacity is not None and depth >= self.queue_capacity:
            stats.dropped_queue += 1
            if tracer.enabled:
                tracer.instant(
                    "link.drop",
                    self.name,
                    args={"reason": "queue", "depth": depth},
                    ts=now,
                )
            return

        serialisation = self._serialisation.get(length) or self._serialisation_of(length)
        start = self._busy_until
        if now > start:
            start = now
        done = start + serialisation
        stats.busy_time += serialisation
        self._busy_until = done
        # The key of the event this send runs in, where the delivery event
        # it schedules draws its sequence: the upstream's delivery event for
        # a frame handed on with ``saved``, the transmit event a hand-off
        # ahead of the clock saved, or the clock's.
        if ahead:
            runs_in = (time, simulator.next_sequence() if saved is None else saved[0])
            serialising.append((done, AHEAD, runs_in))
        else:
            runs_in = simulator.current_key if saved is None else (time, saved[0])
            serialising.append((done, simulator.next_sequence(), runs_in))
        if depth >= stats.max_queue_depth:
            stats.max_queue_depth = depth + 1
        if self.record_delays:
            stats.queueing_delays.append(start - now)

        penalty = 0.0
        if impairments is not None:
            penalty = impairments.reorder_penalty()
            if penalty > 0.0:
                stats.reordered += 1
        propagation = self.propagation_delay
        deliver_at = done + propagation + penalty
        # Whether a later frame could reach the receiver first: one sent
        # next completes at ``done + least serialisation`` at the earliest,
        # and float addition is monotone, so when that plus propagation lies
        # past this frame's delayed stamp nothing can overtake it.
        overtaken = (
            penalty > 0.0
            and (done + self._least_serialisation) + propagation <= deliver_at
        )

        if tracer.enabled:
            # One span per wire stage.
            if start > now:
                tracer.span("link.enqueue", self.name, now, start)
            tracer.span(
                "link.serialize",
                self.name,
                start,
                done,
                args={"bytes": len(frame)},
            )
            tracer.span("link.propagate", self.name, done, deliver_at)

        lookahead = self._lookahead
        if overtaken or self._owed or lookahead is None or not lookahead.admits(deliver_at):
            # A context capture, so the delivery made later (and everything
            # the sink does synchronously — decode, arrival accounting) is
            # attributed to the chunk that entered the wire, not whichever
            # chunk is current when it is made.
            context = tracer.context if tracer.enabled else None
            owed = self._owed
            handoff = (simulator.next_sequence(), runs_in)
            if overtaken:
                # Later frames may overtake this one: none may be handed on
                # before its event has run.
                if lookahead is not None and deliver_at > lookahead.hold:
                    lookahead.hold = deliver_at
                # A bound-method partial instead of a fresh closure per frame.
                simulator.schedule_drawn(
                    deliver_at,
                    handoff[0],
                    partial(self._deliver, frame, deliver_at, handoff, context),
                    self._deliver_label,
                )
                return
            if not owed:
                simulator.schedule_drawn(
                    deliver_at, handoff[0], self._deliver_owed, self._deliver_label
                )
            owed.append((frame, deliver_at, handoff, context))
            return
        stats.delivered += 1
        stats.delivered_bytes += length
        if self._sink_is_link:
            self._sink(frame, deliver_at, (simulator.next_sequence(), runs_in))
        else:
            self._sink(frame, deliver_at)

    def _serialisation_of(self, length: int) -> float:
        """Work out, and keep, the serialisation delay of a frame of
        ``length`` bytes (callers look in ``_serialisation`` first)."""
        serialisation = self._serialisation[length] = (
            frame_wire_bytes(length) * 8 / self.bandwidth_bps
        )
        return serialisation

    @property
    def takes_trains(self) -> bool:
        """Whether :meth:`reach` may ever take a frame: the receiver takes
        trains and is this link's only data input, and no frame is
        reordered (see :func:`repro.sim.lookahead.crossing`)."""
        impairments = self.impairments
        return (
            self._crossing is not None
            and self._lookahead is not None
            and not (impairments is not None and impairments.reorder_probability)
        )

    def reach(
        self, stamps: List[float], clocks: List[float], size: int, drawn: bool
    ) -> int:
        """How many leading frames of a list, frame ``i`` handed in at
        ``stamps[i]`` ahead of its event's clock ``clocks[i]`` and none
        longer than ``size`` bytes, this link and every hop after it take
        without an event of their own, as :meth:`send` would take each at
        its own clock.

        A link whose impairment model reorders, that owes its receiver a
        delivery, whose receiver is the next link of a chain or takes
        frames one at a time, or that a link upstream already drew for
        (``drawn``) takes none.  Delivery stamps are bounded from above by
        serialising every frame back to back, none dropped.  Changes
        nothing.
        """
        lookahead = self._lookahead
        hop = self._crossing
        impairments = self.impairments
        if (
            drawn
            or hop is None
            or lookahead is None
            or self._owed
            or (impairments is not None and impairments.reorder_probability)
            or not stamps
            or stamps[0] < self._offered_until
        ):
            return 0
        busy = self._busy_until
        propagation = self.propagation_delay
        serialisation = self._serialisation.get(size) or self._serialisation_of(size)
        delivers = []
        for stamp, clock in zip(stamps, clocks):
            if stamp <= clock:
                break
            busy = (busy if busy > stamp else stamp) + serialisation
            delivers.append(busy + propagation)
        count = lookahead.admitted(delivers, clocks)
        if not count:
            return 0
        return hop.reach(delivers[:count], clocks[:count], size, True)

    def cross(self, frames: List[bytes], stamps: List[float], keys: List[tuple]) -> None:
        """:meth:`send` a list of frames, frame ``i`` handed in at
        ``stamps[i]``, in one call, then hand the ones that survive the
        wire to the receiver as one list.

        Only for a list :meth:`reach` said the link takes: every frame is
        ahead of its clock and admitted at its delivery stamp, and none is
        delayed.  Each frame is positioned and its completion tie resolved
        as :meth:`send` would at its own event: ``keys[i]`` is ``(clock,
        sequence, draw, trace context)`` of the event frame ``i`` crosses
        in, ``draw`` the sequence its send takes where :meth:`send` would
        draw one.  Departures come from one running maximum over the
        serialisation times, and loss is drawn in the frames' order.
        """
        simulator = self.simulator
        stats = self.stats
        impairments = self.impairments
        capacity = self.queue_capacity
        record_delays = self.record_delays
        delays = stats.queueing_delays
        propagation = self.propagation_delay
        serialising = self._serialising
        append = serialising.append
        cache = self._serialisation
        serialisation_of = self._serialisation_of
        gone = self._gone
        busy = self._busy_until
        busy_time = stats.busy_time
        max_depth = stats.max_queue_depth
        latest = simulator.latest_stamp
        tracer = _obs.TRACER
        traced = tracer.enabled
        name = self.name
        offered_bytes = dropped_loss = dropped_queue = 0
        out_frames: List[bytes] = []
        out_stamps: List[float] = []
        out_keys: List[tuple] = []
        for frame, now, key in zip(frames, stamps, keys):
            length = len(frame)
            offered_bytes += length
            if traced:
                tracer.restore_context(key[3])
            if impairments is not None and impairments.should_drop():
                dropped_loss += 1
                if traced:
                    tracer.instant("link.drop", name, args={"reason": "loss"}, ts=now)
                continue
            queued = len(serialising)
            while gone < queued and serialising[gone][0] < now:
                gone += 1
            if (
                gone < queued
                and serialising[gone][0] == now
                and serialising[gone] < (now, AHEAD, key[:2])
            ):
                gone += 1
            if gone > KEEP_COMPLETE:
                passed = bisect_left(serialising, (key[0],), 0, gone)
                del serialising[:passed]
                queued -= passed
                gone -= passed
            depth = queued - gone
            if capacity is not None and depth >= capacity:
                dropped_queue += 1
                if traced:
                    tracer.instant(
                        "link.drop", name, args={"reason": "queue", "depth": depth}, ts=now
                    )
                continue
            serialisation = cache.get(length) or serialisation_of(length)
            start = busy if busy > now else now
            done = start + serialisation
            busy_time += serialisation
            busy = done
            append((done, AHEAD, (now, key[2])))
            if depth >= max_depth:
                max_depth = depth + 1
            if record_delays:
                delays.append(start - now)
            deliver_at = done + propagation
            if traced:
                if start > now:
                    tracer.span("link.enqueue", name, now, start)
                tracer.span("link.serialize", name, start, done, args={"bytes": length})
                tracer.span("link.propagate", name, done, deliver_at)
            if deliver_at > latest:
                latest = deliver_at
            out_frames.append(frame)
            out_stamps.append(deliver_at)
            out_keys.append(key)
        self._gone = gone
        self._busy_until = busy
        self._offered_until = stamps[-1]
        simulator.latest_stamp = latest
        stats.offered += len(frames)
        stats.offered_bytes += offered_bytes
        stats.dropped_loss += dropped_loss
        stats.dropped_queue += dropped_queue
        stats.busy_time = busy_time
        stats.max_queue_depth = max_depth
        stats.delivered += len(out_frames)
        stats.delivered_bytes += sum(map(len, out_frames))
        if out_frames:
            self._crossing.cross(out_frames, out_stamps, out_keys)

    def _deliver(self, frame: bytes, deliver_at: float, handoff, context) -> None:
        """The delivery event of a frame the impairment model delayed
        enough for a later frame to overtake it."""
        self.stats.delivered += 1
        self.stats.delivered_bytes += len(frame)
        tracer = _obs.TRACER
        if tracer.enabled:
            outer = tracer.context
            tracer.restore_context(context)
        try:
            if self._sink_is_link:
                self._sink(frame, deliver_at, handoff)
            else:
                self._sink(frame, deliver_at)
        finally:
            if tracer.enabled:
                tracer.restore_context(outer)

    def _deliver_owed(self) -> None:
        """The event of the oldest delivery owed: make it, then hand on
        every following one the receiver admits now, and leave the rest
        behind the event of the next.

        Each delivery is made while it still heads the queue, so a frame
        the sink sends back into this link queues behind it.
        """
        owed = self._owed
        stats = self.stats
        sink = self._sink
        to_link = self._sink_is_link
        lookahead = self._lookahead
        tracer = _obs.TRACER
        traced = tracer.enabled
        if traced:
            outer = tracer.context
        frame, deliver_at, handoff, context = owed[0]
        try:
            while True:
                stats.delivered += 1
                stats.delivered_bytes += len(frame)
                if traced:
                    tracer.restore_context(context)
                if to_link:
                    sink(frame, deliver_at, handoff)
                else:
                    sink(frame, deliver_at)
                owed.popleft()
                if not owed:
                    return
                frame, deliver_at, handoff, context = owed[0]
                if lookahead is None or not lookahead.admits(deliver_at):
                    self.simulator.schedule_drawn(
                        deliver_at, handoff[0], self._deliver_owed, self._deliver_label
                    )
                    return
        finally:
            if traced:
                tracer.restore_context(outer)
