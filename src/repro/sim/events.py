"""Event primitives for the discrete-event simulator.

The control-plane latency experiment (the paper's 1.77 ms dynamic-learning
measurement) and the trace-replay machinery need a notion of simulated time:
packets arrive at a given rate, digests reach the control plane after a
delay, table writes complete after another delay.  A small discrete-event
simulator keeps this deterministic and fast; wall-clock time never enters
the model.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

__all__ = ["Event", "EventHandle", "SECONDS", "MILLISECONDS", "MICROSECONDS", "NANOSECONDS"]

#: Canonical time units, expressed in seconds.  All simulator timestamps are
#: floats in seconds; these constants keep call sites readable
#: (``clock.now + 1.77 * MILLISECONDS``).
SECONDS = 1.0
MILLISECONDS = 1e-3
MICROSECONDS = 1e-6
NANOSECONDS = 1e-9

#: Draws the next insertion sequence number.  One process-wide stream, so
#: numbers are unique across simulators and a key never compares equal to
#: another.
next_sequence = itertools.count().__next__


class Event:
    """A scheduled callback, and the handle to cancel it.

    Events run in ``(time, priority, sequence)`` order, so simultaneous
    events are deterministic: lower priority value first, then insertion
    order.  The event itself is never compared — the simulator's heap holds
    ``(time, priority, sequence, event)`` tuples, and because ``sequence``
    is unique the tuple comparison is decided before it reaches the event.

    The simulator's ``schedule`` methods return the event itself: ``time``
    and ``description`` are readable on it, and setting ``cancelled``
    withdraws it without digging into the event queue (the simulator skips
    it when it reaches the front).
    """

    __slots__ = ("time", "priority", "sequence", "callback", "description", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], Any],
        description: str = "",
    ):
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.description = description
        self.cancelled = False

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"sequence={self.sequence!r}, description={self.description!r}, "
            f"cancelled={self.cancelled!r})"
        )


#: What the ``schedule`` methods return.  An event is its own handle; the
#: name stays for annotations and imports.
EventHandle = Event
