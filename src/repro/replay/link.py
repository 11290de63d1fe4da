"""An emulated network hop on the discrete-event simulator.

:class:`EmulatedLink` is the piece the original two-switch deployment was
missing: the wire itself.  It models what a real hop does to a frame —

* **serialisation**: a store-and-forward output queue drained at
  ``bandwidth_bps``; wire occupancy (preamble, padding, FCS, inter-frame
  gap) is taken from :func:`repro.net.ethernet.frame_wire_bytes`, the same
  accounting :class:`repro.perfmodel.linkmodel.LinkModel` uses;
* **propagation**: a constant one-way delay;
* **bounded queueing**: drop-tail when more than ``queue_capacity`` frames
  are in the output queue (``None`` = unbounded).  The depth is derived,
  not event-driven: the link remembers when each queued frame finishes
  serialising and counts the ones the simulator has not passed yet, so a
  traversal costs one event (the delivery), not two;
* **seeded impairments**: loss and reordering drawn from a deterministic
  :class:`repro.perfmodel.linkmodel.ImpairmentModel`, so replays are
  exactly reproducible.

Every frame that enters the link is accounted in :class:`LinkStats`
(offered/delivered/dropped, queue occupancy peaks, per-frame queueing
delay), which the metrics registry folds into the replay report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from math import inf
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.exceptions import ReplayError
from repro.net.ethernet import frame_wire_bytes
from repro.perfmodel.linkmodel import ImpairmentModel, LinkModel
from repro.sim.simulator import Simulator

__all__ = ["LinkStats", "EmulatedLink"]

#: ``sink(frame_bytes, time)`` — same shape as a switch port sink.
LinkSink = Callable[[bytes, float], None]


@dataclass
class LinkStats:
    """Counters and samples describing one link's behaviour during a run."""

    offered: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_queue: int = 0
    reordered: int = 0
    offered_bytes: int = 0
    delivered_bytes: int = 0
    max_queue_depth: int = 0
    busy_time: float = 0.0
    queueing_delays: List[float] = field(default_factory=list)

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
        Keep the per-frame queueing-delay samples (O(frames) memory) for
        the percentile report.  Counters-only replays of very large traces
        disable this; the scalar counters always stay.
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
        self.model = LinkModel(speed_bps=bandwidth_bps)
        self.propagation_delay = propagation_delay
        self.queue_capacity = queue_capacity
        self.impairments = impairments
        self.record_delays = record_delays
        self.stats = LinkStats()
        self._sink = sink
        self._busy_until = 0.0
        # Keys ``(done, 0, sequence)`` of the frames still queued or being
        # serialised, oldest first: where an explicit serialisation-done
        # event scheduled at send time would sit in the simulator's order.
        self._serialising: Deque[Tuple[float, int, int]] = deque()
        # The event description is constant; format it once, not per frame.
        self._deliver_label = f"{name}:deliver"
        # frame length -> serialisation delay: traffic has a handful of
        # frame sizes, each worked out (padding, overheads, a division) once.
        self._serialisation: Dict[int, float] = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, sink: LinkSink) -> None:
        """Attach (or replace) the receiving end of the link."""
        if not callable(sink):
            raise ReplayError("link sink must be callable")
        self._sink = sink

    @property
    def queue_depth(self) -> int:
        """Frames currently queued or being serialised.

        A frame has left the queue once the simulator's position
        (:attr:`~repro.sim.simulator.Simulator.current_key`) is past the
        frame's serialisation-done key — ties included: a send executing at
        exactly a completion time still sees the frame iff the send's event
        was scheduled before the frame entered the link.  The simulator's
        position decides, never ``send()``'s ``time`` argument, so frames
        offered ahead of an idle clock accumulate.
        """
        serialising = self._serialising
        if serialising:
            position = self.simulator.current_key
            while serialising and serialising[0] < position:
                serialising.popleft()
        return len(serialising)

    # -- data path ------------------------------------------------------------

    def send(self, frame: bytes, time: float) -> None:
        """Offer one frame to the link at simulated ``time``.

        Matches the :data:`~repro.tofino.switch.PortSink` signature, so a
        switch egress port can be attached directly to the link.
        """
        if self._sink is None:
            raise ReplayError(f"link {self.name!r} has no sink attached")
        simulator = self.simulator
        now = simulator.now
        if time > now:
            now = time
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
        depth = self.queue_depth
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
                self.model.serialisation_delay(length)
            )
        start = self._busy_until
        if now > start:
            start = now
        done = start + serialisation
        stats.busy_time += serialisation
        self._busy_until = done
        self._serialising.append((done, 0, simulator.next_sequence()))
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
            self.simulator.schedule_at(
                deliver_at,
                partial(self._deliver_traced, frame, deliver_at, tracer.context),
                description=self._deliver_label,
            )
            return
        # A bound-method partial instead of a fresh closure per frame — the
        # link sits on every replayed packet's path.
        self.simulator.schedule_at(
            deliver_at,
            partial(self._deliver, frame, deliver_at),
            description=self._deliver_label,
        )

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

    # -- derived measures -------------------------------------------------------

    def utilisation(self, duration: float) -> float:
        """Fraction of ``duration`` the link spent serialising frames."""
        if duration <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / duration)

    def reset_stats(self) -> None:
        """Clear the counters (topology and impairment stream stay put)."""
        self.stats = LinkStats()
