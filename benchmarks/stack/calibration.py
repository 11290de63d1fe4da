"""Host-speed calibration for wall-clock metrics.

The sandbox this benchmark runs in shares its cores: the same repeat of
the same input was measured anywhere between 1.4 s and 4.6 s within five
minutes, with CPU time tracking wall time (slower cycles, not
descheduling), in bursts from tens of milliseconds to tens of seconds.
Medians of seven raw repeats spread 17-21 % from run to run.  The
interference only ever multiplies host time, so while something is being
timed a :class:`Sampler` interrupts it every 50 ms (``SIGALRM``) to run a
small fixed kernel on the same core under the same conditions, and the
measurement is reported in *reference seconds*::

    reference_s = (wall_s - kernel_s) * REFERENCE_SLICE_S / mean(kernel slices)

The kernel is stdlib-only and shares no code with the program under test,
so a change to the program cannot move it.  It does what the simulator's
hot path does — heap-ordered event objects, bound-method partials, a
256-bit ``int.from_bytes``, a dictionary probe, a bytes splice, an append —
so it slows down with the program when a neighbour takes cache or cycles.
Measured on 40 repeats of ``rack-static-hit``: raw seconds varied 14 %
(coefficient of variation), reference seconds 2.5 %; calibrating from
kernel runs just before and after each repeat instead left 14 %, because
the interference changes faster than a repeat lasts.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from functools import partial
from typing import Dict, List, Tuple

#: Seconds one kernel slice takes on an undisturbed 2.1 GHz Xeon vCPU (the
#: fastest twentieth of 1,278 slices); reference seconds equal wall
#: seconds there.
REFERENCE_SLICE_S = 0.00265

#: Seconds of the program between two kernel slices (~6 % of the time goes
#: to the kernel; it is subtracted).
PERIOD_S = 0.05

_EVENTS = 600
_FRAMES = [bytes([index]) * 46 for index in range(64)]


class _Event:
    __slots__ = ("time", "priority", "sequence", "callback")

    def __init__(self, time_: float, priority: int, sequence: int, callback) -> None:
        self.time = time_
        self.priority = priority
        self.sequence = sequence
        self.callback = callback

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.priority, self.sequence) < (
            other.time, other.priority, other.sequence,
        )


class _Node:
    def __init__(self) -> None:
        self.table: Dict[int, int] = {}
        self.log: List[Tuple[float, int]] = []

    def receive(self, frame: bytes, now: float) -> None:
        value = int.from_bytes(frame[14:46], "big")
        basis = value >> 9
        if self.table.get(basis) is None:
            self.table[basis] = len(self.table) & 1023
        out = frame[:14] + (value & 0x1FF).to_bytes(3, "big")
        self.log.append((now, len(out)))


def _slice() -> float:
    """Wall seconds of one fixed kernel run."""
    start = time.perf_counter()
    queue: List[_Event] = []
    node = _Node()
    sequence = 0
    for index in range(_EVENTS):
        stamp = index * 1e-6
        heapq.heappush(
            queue,
            _Event(stamp, 0, sequence, partial(node.receive, _FRAMES[index & 63], stamp)),
        )
        sequence += 1
    while queue:
        event = heapq.heappop(queue)
        event.callback()
        if event.priority == 0:
            heapq.heappush(
                queue,
                _Event(event.time + 5e-7, 1, sequence,
                       partial(node.receive, _FRAMES[sequence & 63], event.time)),
            )
            sequence += 1
    return time.perf_counter() - start


class Sampler:
    """Run the kernel every :data:`PERIOD_S` while the ``with`` block runs.

    Main thread only (Python runs signal handlers there, between
    bytecodes).  The timer is one-shot and re-armed when a slice ends, so
    slices never nest however slow the host gets.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []
        self._start = 0.0
        self._wall_s = 0.0
        self._previous = None
        self._active = False

    def _on_alarm(self, _signum, _frame) -> None:
        # An alarm already pending when the block ends must not re-arm the
        # timer: by then SIGALRM is back to its previous disposition.
        if self._active:
            # A collection triggered by the kernel's allocations would time
            # the program's heap, not the host.
            collecting = gc.isenabled()
            gc.disable()
            try:
                self.slices.append(_slice())
            finally:
                if collecting:
                    gc.enable()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._wall_s = time.perf_counter() - self._start
        signal.signal(
            signal.SIGALRM,
            signal.SIG_DFL if self._previous is None else self._previous,
        )
        if not self.slices:
            # Shorter than one period: sample right after instead.
            self.slices.append(_slice())
            self._wall_s += self.slices[0]

    def speed(self) -> float:
        """Reference seconds per wall second of undisturbed program time."""
        return REFERENCE_SLICE_S / statistics.mean(self.slices)

    def factor(self) -> float:
        """Multiplier turning wall seconds measured inside the block into
        reference seconds (kernel time is spread evenly, so it comes off
        as a share)."""
        return (1.0 - sum(self.slices) / self._wall_s) * self.speed()
