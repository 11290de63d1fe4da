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

    **Trains.**  An event's callback may run further events itself, after
    its own: events that were never pushed on the heap, because each orders
    before every pending one when its turn comes (the flow injector runs a
    shard's paced injections this way).  Between two of them it calls
    :meth:`advance`, which ends the event being executed exactly as
    :meth:`step` ends one — counted, traced as ``sim.event``, shown to the
    observers — and moves the clock to the next one's key.  Such a train is
    a run of consecutive events, not a merged one: every count, trace
    instant, observer call, ``until`` cut and ``max_events`` cut is the one
    the same events would give one heap entry at a time.
    """

    def __init__(self, start_time: float = 0.0):
        if not 0 <= start_time < inf:
            raise SimulationError(
                f"start time must be finite and non-negative, got {start_time}"
            )
        self._queue: List[Tuple[float, int, Callable[[], Any], str]] = []
        self._executed_events = 0
        # The ``executed_events`` count the current run stops at (-inf
        # outside a run, so nothing advances there).
        self._limit = -inf
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

    def schedule_drawn(
        self, time: float, sequence: int, callback: Callable[[], Any], description: str = ""
    ) -> None:
        """Schedule ``callback`` at the key ``(time, sequence)``, whose
        ``sequence`` the caller drew earlier with :attr:`next_sequence`.

        The event then orders among the others as it would had it been
        scheduled at the moment of that draw.  The key must not order
        before :attr:`current_key`.
        """
        if not self.now <= time < inf:
            raise SimulationError(
                f"cannot schedule event at {time}s from the current time {self.now}s"
            )
        heappush(self._queue, (time, sequence, callback, description))

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
        # A callback that ran a train (``advance``) leaves the clock on the
        # last event of it, which ends here.
        self._executed_events += 1
        if _obs.TRACER.enabled or self._observers:
            self._show(description)
        return True

    def advance(self, time: float, sequence: int, description: str) -> bool:
        """End the event being executed and start the event ``(time,
        sequence)`` of the same callback's train, without the heap.

        The ending event — labelled ``description`` — is counted, traced
        and shown to the observers as :meth:`step` would after its
        callback; then the clock and :attr:`current_key` move to the new
        key, and the caller runs the new event.  The caller guarantees the
        key orders after the ending event and before every pending one,
        and lies within :attr:`horizon`.  Returns ``False``, changing
        nothing, when the current run's ``max_events`` leaves no room for
        the new event.
        """
        executed = self._executed_events + 1
        if executed >= self._limit:
            return False
        self._executed_events = executed
        if _obs.TRACER.enabled or self._observers:
            self._show(description)
        self.now = time
        self._position = (time, sequence)
        return True

    def room(self) -> float:
        """How many events a train may still run through
        :meth:`advance_through` after the event being executed: what the
        current run's ``max_events`` leaves (+inf without a cap; none
        outside a run), and none while an observer watches, which must see
        the state each event leaves."""
        if self._observers:
            return 0
        return self._limit - self._executed_events - 1

    def advance_through(self, keys: List[tuple], description: str) -> None:
        """:meth:`advance` through the events keyed ``(time, sequence,
        ...)`` by ``keys``, in turn, in one call: a train whose frames
        crossed their hops as lists.

        Each key is an event of its own — counted, traced as ``sim.event``
        and shown to the observers as :meth:`advance` would — and the clock
        ends on the last.  The caller guarantees what :meth:`advance`
        asks of each key, and that :meth:`room` leaves space for all of
        them.
        """
        if _obs.TRACER.enabled or self._observers:
            for key in keys:
                self._show(description)
                self.now = key[0]
        self._executed_events += len(keys)
        last = keys[-1]
        self.now = last[0]
        self._position = (last[0], last[1])

    def _show(self, description: str) -> None:
        """Trace the event that just ended as ``sim.event`` and show it to
        the observers, at the clock it left."""
        now = self.now
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.instant(
                "sim.event",
                "sim",
                args={"desc": description} if description else None,
                ts=now,
            )
        for observer in self._observers:
            observer(now, description)

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

        A run without ``until`` ends when its flows have drained and no
        pending event can deliver a frame: no component keeps an event
        pending for nothing (a control plane polls for idle entries only
        while one can still expire).
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self.horizon = horizon = inf if until is None else until
        start = self._executed_events
        # ``advance`` reads the budget here: a train stops where the run
        # would have.
        self._limit = limit = inf if max_events is None else start + max_events
        queue = self._queue
        step = self.step
        try:
            while queue and queue[0][0] <= horizon:
                if self._executed_events >= limit:
                    return self._executed_events - start
                step()
            if until is None:
                if self.latest_stamp > self.now:
                    self._settle(self.latest_stamp, before=False)
            elif self.now <= until:
                self._settle(until, before=False)
            return self._executed_events - start
        finally:
            self._running = False
            self.horizon = -inf
            self._limit = -inf
