"""A small, deterministic discrete-event simulator.

:class:`Simulator` is the time base shared by the Tofino switch model, the
control plane and the traffic generators.  It is intentionally minimal: a
monotonic clock, a binary-heap event queue, run/step primitives and the
horizon of the current run.  All components that need time accept a
``Simulator`` (a :class:`repro.topology.engine.TopologyEngine` builds one
and hands it to every node, link and control plane of its graph), so
experiments are exactly reproducible and independent of wall-clock speed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from repro import obs as _obs
from repro.exceptions import SimulationError
from repro.sim.events import next_sequence

__all__ = ["Simulator"]

#: ``(time, sequence)`` — how events order.  At an idle position the
#: sequence is -inf or +inf: before or after every event of that instant.
EventKey = Tuple[float, float]

#: ``observer(time, description)`` — called after each executed event.
Observer = Callable[[float, str], Any]


class Simulator:
    """Discrete-event simulator with a seconds-based clock.

    Typical usage::

        sim = Simulator()
        sim.schedule_in(1.77e-3, lambda: install_mapping(...))
        sim.run()

    Events run in ``(time, insertion)`` order.  The queue is a binary heap
    of ``(time, sequence, callback, description)`` tuples whose unique
    ``sequence`` decides every tie, so ordering never calls back into
    Python and scheduling builds nothing but that tuple.

    ``now`` is the current simulated time in seconds.  It is a plain
    attribute because every component reads it several times per packet;
    only the simulator writes it.

    **Hand-offs ahead of the clock.**  A component whose work ends a
    constant delay after it starts — a switch pipeline — may hand its
    output on at once, stamped ``now + delay``, instead of scheduling an
    event to wait out the delay, provided the receiver honours the stamp;
    so may an edge into a switch program whose
    :class:`~repro.sim.lookahead.Lookahead` admits the stamp.
    ``horizon`` bounds that: it is the ``until`` of the current
    :meth:`run` (+inf when there is none, -inf outside a run), and a
    hand-off stamped past it is scheduled as an event instead, so nothing a
    run reports has happened after the instant it was stopped at.  A
    component that hands a frame on records the stamp in ``latest_stamp``
    (it may only raise it): a drained run leaves the clock there, where the
    event it saved would have left it.
    """

    def __init__(self, start_time: float = 0.0):
        if not 0 <= start_time < inf:
            raise SimulationError(
                f"start time must be finite and non-negative, got {start_time}"
            )
        self._queue: List[Tuple[float, int, Callable[[], Any], str]] = []
        self._executed_events = 0
        self._running = False
        self._observers: List[Observer] = []
        self.horizon = -inf
        self.latest_stamp = start_time
        self._settle(start_time, before=True)

    def _settle(self, time: float, before: bool) -> None:
        """Put the idle clock at ``time``: ordered ``before`` every event
        scheduled at that instant, or after all of them."""
        self.now = time
        # ``step`` stores the heap entry it is executing here, so this is
        # any tuple that *orders* like a key; ``current_key`` trims it.
        self._position = (time, -inf if before else inf)

    # -- clock -------------------------------------------------------------

    @property
    def current_key(self) -> EventKey:
        """Where the simulator is in the ``(time, sequence)`` order.

        Inside a callback this is the key of the event being executed;
        between events it is the key of the last one executed, or the idle
        position :meth:`run` left.
        Every event whose key orders before it has already run — which lets
        a component decide whether something it *would* have scheduled has
        happened yet without spending an event on it
        (:class:`repro.replay.link.EmulatedLink` derives its queue depth
        this way).
        """
        return self._position[:2]

    #: ``next_sequence()`` takes the sequence number the next scheduled
    #: event would get.  With it a component can form the key ``(time,
    #: sequence)`` an event scheduled right now would have, and compare
    #: that against :attr:`current_key` later.  The draw itself, not a
    #: method around it: the link takes one per frame.
    next_sequence = staticmethod(next_sequence)

    @property
    def executed_events(self) -> int:
        """Number of events executed so far."""
        return self._executed_events

    # -- scheduling ---------------------------------------------------------

    def schedule_at(
        self, time: float, callback: Callable[[], Any], description: str = ""
    ) -> None:
        """Schedule ``callback`` at absolute simulated ``time``."""
        # One chained comparison rejects the past, NaN and +inf together.
        if not self.now <= time < inf:
            if time < self.now:
                raise SimulationError(
                    f"cannot schedule event at {time:.9f}s, which is before the "
                    f"current time {self.now:.9f}s"
                )
            raise SimulationError(f"event time must be finite, got {time}")
        if not callable(callback):
            raise SimulationError("event callback must be callable")
        heappush(self._queue, (time, next_sequence(), callback, description))

    def schedule_in(
        self, delay: float, callback: Callable[[], Any], description: str = ""
    ) -> None:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self.now + delay, callback, description)

    # -- observers ----------------------------------------------------------

    def add_observer(self, observer: Observer) -> None:
        """Register ``observer(time, description)``, called after each event.

        Observers run *after* the event's callback and must not schedule
        events or mutate simulation state — they exist for telemetry
        (:class:`repro.obs.snapshot.PeriodicSnapshotter`) and leave the
        event schedule, and therefore run reports, untouched.
        """
        self._observers.append(observer)

    def remove_observer(self, observer: Observer) -> None:
        """Unregister a previously added observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event.  Returns ``False`` if none remain."""
        queue = self._queue
        if not queue:
            return False
        entry = heappop(queue)
        time, _sequence, callback, description = entry
        if time < self.now:
            raise SimulationError(
                f"event {description!r} scheduled in the past "
                f"({time:.9f}s < {self.now:.9f}s)"
            )
        self.now = time
        self._position = entry
        callback()
        self._executed_events += 1
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.instant(
                "sim.event",
                "sim",
                args={"desc": description} if description else None,
                ts=time,
            )
        if self._observers:
            for observer in self._observers:
                observer(time, description)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or a cap.

        Returns the number of events executed by this call.  ``until`` is an
        absolute simulated time and the run's :attr:`horizon`; events
        scheduled exactly at ``until`` still run, and the clock then rests
        at ``until``.  A run without ``until`` that drains the queue rests
        at the last event executed or at :attr:`latest_stamp`, whichever is
        later.  ``max_events`` guards against runaway self-rescheduling
        loops; it is a guard, not a unit of progress: how far a given budget
        gets in simulated time depends on how many events the components
        spend per packet.  A run it stops leaves the clock at the last event
        executed, with the rest still pending — even when frames were
        handed on past that event (the horizon of a run without ``until``
        is +inf): pending events may lie before their stamps, so the clock
        cannot move there; ``latest_stamp`` records how far they reached,
        and the run that drains the queue settles the clock there.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self.horizon = horizon = inf if until is None else until
        budget = inf if max_events is None else max_events
        queue = self._queue
        step = self.step
        executed = 0
        try:
            while queue and queue[0][0] <= horizon:
                if executed >= budget:
                    return executed
                step()
                executed += 1
            if until is None:
                if self.latest_stamp > self.now:
                    self._settle(self.latest_stamp, before=False)
            elif self.now <= until:
                self._settle(until, before=False)
            return executed
        finally:
            self._running = False
            self.horizon = -inf
