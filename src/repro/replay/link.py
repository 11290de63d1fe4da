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
  nor for the delivery into a switch program whose
  :class:`~repro.sim.lookahead.Lookahead` admits the frame's stamp;
* **seeded impairments**: loss and reordering drawn from a deterministic
  :class:`ImpairmentModel`, so replays are exactly reproducible.

Every frame that enters the link is accounted in :class:`LinkStats`
(offered/delivered/dropped, queue occupancy peaks, per-frame queueing
delay), which the metrics registry folds into the run's report.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from math import inf
from typing import Callable, Deque, Dict, Optional, Tuple

from repro import obs as _obs
from repro.exceptions import ReplayError, ReproError
from repro.net.ethernet import frame_wire_bytes
from repro.sim.lookahead import Lookahead
from repro.sim.simulator import Simulator

__all__ = ["ImpairmentModel", "LinkStats", "EmulatedLink"]

#: ``sink(frame_bytes, time)`` — same shape as a switch port sink.
LinkSink = Callable[[bytes, float], None]

#: The sequence slot of a completion or reading positioned ahead of the
#: clock: above every sequence number, so at its instant it follows every
#: frame sent and every reading taken at the clock, and below the +inf of
#: the simulator's idle position after that instant.
AHEAD = sys.float_info.max


class ImpairmentModel:
    """Seeded stochastic impairments of a link: loss and reordering.

    The replay subsystem needs *reproducible* packet loss and reordering:
    two runs with the same seed must drop and delay exactly the same
    packets, and two links in the same topology must not share one RNG
    stream (or adding a hop would silently change which packets another
    hop drops).  The seed is therefore part of the constructor signature,
    and :meth:`fork` derives an independent, equally deterministic stream
    for each additional link.

    Parameters
    ----------
    loss_probability:
        Per-packet probability of the frame being dropped on the wire.
    reorder_probability:
        Per-packet probability of the frame being held back by
        ``reorder_delay`` seconds after serialisation, letting later
        frames overtake it.
    reorder_delay:
        Extra delivery delay applied to reordered frames.
    seed:
        RNG seed.  The decision sequence is fully determined by it.
    """

    def __init__(
        self,
        loss_probability: float = 0.0,
        reorder_probability: float = 0.0,
        reorder_delay: float = 10e-6,
        seed: int = 0,
    ):
        if not 0.0 <= loss_probability <= 1.0:
            raise ReproError(
                f"loss probability must be within [0, 1], got {loss_probability}"
            )
        if not 0.0 <= reorder_probability <= 1.0:
            raise ReproError(
                f"reorder probability must be within [0, 1], got {reorder_probability}"
            )
        if reorder_delay < 0:
            raise ReproError(f"reorder delay cannot be negative, got {reorder_delay}")
        self.loss_probability = loss_probability
        self.reorder_probability = reorder_probability
        self.reorder_delay = reorder_delay
        self.seed = seed
        self._rng = random.Random(seed)

    def should_drop(self) -> bool:
        """Decide the fate of the next frame (advances the RNG stream)."""
        if self.loss_probability == 0.0:
            return False
        return self._rng.random() < self.loss_probability

    def reorder_penalty(self) -> float:
        """Extra delivery delay for the next frame (0.0 = stays in order)."""
        if self.reorder_probability == 0.0:
            return 0.0
        if self._rng.random() < self.reorder_probability:
            return self.reorder_delay
        return 0.0

    def fork(self, index: int) -> "ImpairmentModel":
        """An independent model with the same parameters for another link.

        The derived seed depends only on ``(seed, index)``, so multi-hop
        topologies stay reproducible while each hop draws from its own
        stream.
        """
        if index < 0:
            raise ReproError(f"fork index must be non-negative, got {index}")
        return ImpairmentModel(
            loss_probability=self.loss_probability,
            reorder_probability=self.reorder_probability,
            reorder_delay=self.reorder_delay,
            seed=(self.seed * 1_000_003 + index + 1) & 0xFFFFFFFF,
        )

    def __repr__(self) -> str:
        return (
            f"ImpairmentModel(loss={self.loss_probability}, "
            f"reorder={self.reorder_probability}, seed={self.seed})"
        )


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
        self._sink = sink
        self._lookahead: Optional[Lookahead] = None
        self._busy_until = 0.0
        # The latest instant a frame was offered at: offers come in time
        # order, or a frame handed on ahead of the clock was overtaken.
        self._offered_until = 0.0
        # Completion keys of the frames still queued or being serialised,
        # oldest first: where an explicit serialisation-done event scheduled
        # when the frame entered would sit in the simulator's order —
        # ``(done, sequence)`` for a frame sent at the clock, ``(done,
        # AHEAD, handoff)`` for one handed on ahead of it, where ``handoff``
        # is the key of the transmit event the hand-off saved.  A reading's
        # position takes the same shape: the clock's key itself, ``(stamp,
        # AHEAD, clock key)`` for a send stamped ahead of it.
        self._serialising: Deque[Tuple[float, object]] = deque()
        # The event description is constant; format it once, not per frame.
        self._deliver_label = f"{name}:deliver"
        # frame length -> serialisation delay: traffic has a handful of
        # frame sizes, each worked out (padding, overheads, a division) once.
        self._serialisation: Dict[int, float] = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, sink: LinkSink, lookahead: Optional[Lookahead] = None) -> None:
        """Attach (or replace) the receiving end of the link.

        ``lookahead`` is the receiving switch program's, handed over by
        :meth:`repro.topology.graph.TopologyGraph.wire` when this link is
        the last hop of the program's only data input and cannot reorder:
        a frame it admits is handed to ``sink`` as soon as it is sent,
        stamped with its delivery instant, instead of from a delivery event.
        """
        if not callable(sink):
            raise ReplayError("link sink must be callable")
        self._sink = sink
        self._lookahead = lookahead

    @property
    def queue_depth(self) -> int:
        """Frames currently queued or being serialised.

        A frame leaves the queue when its serialisation completes.  The
        link spends no event on that: it compares the frame's completion
        key with the *position* of each reading.  This property and a send
        at the clock read at the simulator's
        :attr:`~repro.sim.simulator.Simulator.current_key`.  A send stamped
        ahead of the clock — a switch handing a frame on with the end of its
        pipeline latency — reads at its own stamp, where the transmit event
        it saved would have run, not at the clock's position.

        Exact ties — a completion at precisely the reading's instant —
        resolve the way those events would have run.  At the clock, the
        frame is gone iff it entered the link before the reading's event
        was scheduled.  Ahead of the clock, the reading was
        scheduled by the event that handed it on: a frame sent at the clock
        entered before that and is gone; a frame itself handed on ahead is
        gone iff the clock had passed that frame's stamp when the reading
        was handed on.  One case has no saved event to order by — a frame
        handed on ahead of the clock, met at its completion instant by a
        send at the clock, which only happens across a run horizon — and
        there the frame is still counted.  Between runs, the clock's idle
        position after an instant follows every completion at it.
        """
        serialising = self._serialising
        if serialising:
            key = self.simulator.current_key
            while serialising and serialising[0] < key:
                serialising.popleft()
        return len(serialising)

    # -- data path ------------------------------------------------------------

    def send(self, frame: bytes, time: float) -> None:
        """Offer one frame to the link at simulated ``time``.

        Matches the :data:`~repro.tofino.switch.PortSink` signature, so a
        switch egress port can be attached directly to the link.  A
        ``time`` ahead of the clock is a hand-off stamped with the end of
        an upstream pipeline: the frame enters at that instant, positioned
        as :attr:`queue_depth` describes.  Frames must be offered in time
        order; one offered before an instant the link has already taken a
        frame at is a :class:`~repro.exceptions.ReplayError`.
        """
        if self._sink is None:
            raise ReplayError(f"link {self.name!r} has no sink attached")
        simulator = self.simulator
        now = simulator.now
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
        # increasing, so at most the head can tie with ``now``, and only a
        # tie needs the full key.
        serialising = self._serialising
        while serialising and serialising[0][0] < now:
            serialising.popleft()
        if serialising and serialising[0][0] == now:
            key = simulator.current_key
            if serialising[0] < ((now, AHEAD, key) if ahead else key):
                serialising.popleft()
        depth = len(serialising)
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

        serialisation = self._serialisation.get(length)
        if serialisation is None:
            serialisation = self._serialisation[length] = (
                frame_wire_bytes(length) * 8 / self.bandwidth_bps
            )
        start = self._busy_until
        if now > start:
            start = now
        done = start + serialisation
        stats.busy_time += serialisation
        self._busy_until = done
        sequence = simulator.next_sequence()
        serialising.append(
            (done, AHEAD, (time, sequence)) if ahead else (done, sequence)
        )
        if depth >= stats.max_queue_depth:
            stats.max_queue_depth = depth + 1
        if self.record_delays:
            stats.queueing_delays.append(start - now)

        penalty = 0.0
        if impairments is not None:
            penalty = impairments.reorder_penalty()
            if penalty > 0.0:
                stats.reordered += 1
        deliver_at = done + self.propagation_delay + penalty

        lookahead = self._lookahead
        if tracer.enabled:
            # One span per wire stage, plus a context capture so the
            # delivery event (and everything the sink does synchronously —
            # decode, arrival accounting) is attributed to the chunk that
            # entered the wire, not whichever chunk is current when the
            # simulator fires the event.
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
            if lookahead is None or not lookahead.admits(deliver_at):
                simulator.schedule_at(
                    deliver_at,
                    partial(self._deliver_traced, frame, deliver_at, tracer.context),
                    self._deliver_label,
                )
                return
        elif lookahead is None or not lookahead.admits(deliver_at):
            # A bound-method partial instead of a fresh closure per frame —
            # the link sits on every replayed packet's path.
            simulator.schedule_at(
                deliver_at, partial(self._deliver, frame, deliver_at), self._deliver_label
            )
            return
        # The receiving program's lookahead admitted the delivery stamp.
        stats.delivered += 1
        stats.delivered_bytes += length
        self._sink(frame, deliver_at)

    def _deliver(self, frame: bytes, deliver_at: float) -> None:
        self.stats.delivered += 1
        self.stats.delivered_bytes += len(frame)
        self._sink(frame, deliver_at)

    def _deliver_traced(self, frame: bytes, deliver_at: float, context) -> None:
        tracer = _obs.TRACER
        saved = tracer.context
        tracer.restore_context(context)
        try:
            self._deliver(frame, deliver_at)
        finally:
            tracer.restore_context(saved)
