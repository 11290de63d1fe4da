"""Conservative lookahead: when a frame may reach its receiver early.

A switch program acts on a frame as of the instant the frame reaches it,
against its tables as they are at that instant; an emulated link queues a
frame as of the instant it enters.  An edge that knows that instant — a
link that has worked out a frame's delivery stamp, a switch whose pipeline
latency is a constant — could call the receiver at once, stamped with it,
instead of spending an event to wait for the clock, provided nothing the
receiver would see differs.  That is the lookahead rule of conservative
parallel discrete-event simulation (Chandy and Misra, 1979), and
:class:`Lookahead` holds it for one receiver: it is the one place the
predicate is written down.

The part of the rule that cannot change during a run — the edge is the
receiver's only data input, so frames reach it in stamp order — is decided
once, when :meth:`repro.topology.graph.TopologyGraph.wire` hands a
receiver's :class:`Lookahead` to that edge: a switch program's own, or, for
each hop of a chain of links, a fresh one for the link downstream, whose
only writer is its upstream.  The rest is :meth:`Lookahead.admits`, asked
per frame, and what the edge itself still owes the receiver: a delivery it
could not hand on comes first (the link's queue of owed deliveries), and a
frame its impairment model delays far enough for a later frame to
overtake it keeps its own event and holds the receiver until that has
run.  A shorter delay lets nothing overtake, so it holds nothing: the
frame is handed on, or owed, at its delayed stamp like any other.

What else can touch a program are the writes of its control plane and of
the faults aimed at it.  Each such source reports what it has in flight on
the programs it can write through an :class:`InFlight`: each event it
schedules — a control-plane step, a digest on its way to the control
plane, a rate limiter's drain, a TTL poll, a restart or eviction storm —
holds each program for frames stamped at or after the first instant that
event can lead to a write there: its own instant, or a fixed offset
``after`` later (a learn digest reaches the control plane, which writes
the decoder one processing step later at the earliest; the encoder's
digest queue, though, counts down at the delivery itself).  The work a
source tracks itself — a command on a control link, whose
acknowledgement also starts the encoder-side install — is counted.  It
also states how soon a write it has *not* started yet could land (its
reaction latency).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, List

from repro.sim.simulator import Simulator

__all__ = ["InFlight", "Lookahead", "crossing"]


class Lookahead:
    """Whether an edge may hand one receiver a frame ahead of the clock.

    ``writes`` is a min-heap of the earliest instants at which pending
    events can write the receiver (scheduled through :class:`InFlight`:
    each event's instant plus the receiver's offset from that source); it
    is pruned of instants before the clock whenever it is pushed or read,
    so it only holds what may still be pending.  ``hold`` is the latest
    stamp of a delivery the receiver's input keeps as its own event while
    later frames could be handed on — a frame the impairment model delays
    far enough to be overtaken, a transmit into a direct switch port the
    rule refused — so nothing is handed on while one of those may still be
    pending.  ``in_flight`` counts the
    writes sources track without an event of their own.  ``reaction`` is
    the smallest delay after which a write no source has started yet could
    land: +inf until a control plane watches the receiver.
    """

    __slots__ = ("simulator", "writes", "hold", "in_flight", "reaction")

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self.writes: List[float] = []
        self.hold = -inf
        self.in_flight = 0
        self.reaction = inf

    def admits(self, stamp: float) -> bool:
        """True when the receiver may take a frame stamped ``stamp`` now.

        It may when nothing can reach it first: no write tracked in flight,
        ``hold`` before the clock, and the earliest pending write after
        ``stamp``.  ``stamp`` must not be before the clock, must lie within
        the current run's :attr:`~repro.sim.simulator.Simulator.horizon`,
        and less than ``reaction`` ahead of the clock, so no write started
        between now and the stamp lands before it.  An admitted stamp
        raises :attr:`~repro.sim.simulator.Simulator.latest_stamp`.  A
        refused one changes nothing: the caller keeps the delivery for an
        event, in order behind anything it still owes the receiver.
        """
        simulator = self.simulator
        now = simulator.now
        if (
            self.in_flight
            or self.hold >= now
            or not 0.0 <= stamp - now < self.reaction
            or stamp > simulator.horizon
        ):
            return False
        writes = self.writes
        if writes:
            while writes and writes[0] < now:
                heappop(writes)
            if writes and writes[0] <= stamp:
                return False
        if stamp > simulator.latest_stamp:
            simulator.latest_stamp = stamp
        return True

    def admitted(self, stamps: List[float], clocks: List[float]) -> int:
        """How many leading frames of a list :meth:`admits` would take,
        frame ``i`` stamped ``stamps[i]`` and asked at its own clock
        ``clocks[i]`` (non-decreasing), with nothing written in between.

        Changes nothing: the edge that hands the frames on raises
        :attr:`~repro.sim.simulator.Simulator.latest_stamp` itself.
        """
        if self.in_flight or not stamps:
            return 0
        hold = self.hold
        reaction = self.reaction
        horizon = self.simulator.horizon
        first = clocks[0]
        # A write before the first clock has run; any other may still be
        # pending for every frame of the list.
        write = inf
        for instant in self.writes:
            if first <= instant < write:
                write = instant
        count = 0
        for stamp, clock in zip(stamps, clocks):
            if (
                hold >= clock
                or not 0.0 <= stamp - clock < reaction
                or stamp > horizon
                or stamp >= write
            ):
                break
            count += 1
        return count


def crossing(sink: Callable[..., Any]) -> Any:
    """The hop behind ``sink`` that takes a train as lists, or ``None``.

    Such a hop has a true ``takes_trains``, asked once when the sink is
    attached, ``reach(stamps, clocks, size, drawn)`` — how many leading
    frames of a list it and every hop after it would take now without an
    event of their own — and ``cross(frames, stamps, keys)``, which takes
    them.  ``sink`` is its per-frame entry: a method of the hop (a link's
    ``send``, a tap's ``observe``, a host's ``deliver``) or an entry that
    carries all three itself (a switch program's ingress port).
    """
    hop = getattr(sink, "__self__", sink)
    return hop if getattr(hop, "takes_trains", False) else None


class InFlight:
    """What one source of writes has in flight, on every program it can write.

    A source names the programs it can write (:meth:`watch`).  An event it
    schedules through :meth:`schedule_at` holds each of them, for frames
    stamped at or after its instant plus the program's offset ``after``,
    until then; :meth:`add` counts work it tracks itself (a command on a
    control link).
    """

    __slots__ = ("simulator", "programs", "after")

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self.programs: List[Lookahead] = []
        #: Per program, how long after one of this source's events the
        #: first write it can lead to may land on that program.
        self.after: List[float] = []

    def watch(self, program: Lookahead, reaction: float = inf, after: float = 0.0) -> None:
        """Hold and count on ``program`` too; ``reaction`` is how soon a
        write this source has not started yet could land on it, and
        ``after`` how soon after one of this source's events a write could
        (a program watched twice keeps the smaller)."""
        if program in self.programs:
            index = self.programs.index(program)
            if after < self.after[index]:
                self.after[index] = after
        else:
            self.programs.append(program)
            self.after.append(after)
        if reaction < program.reaction:
            program.reaction = reaction

    def add(self, count: int) -> None:
        """Count ``count`` more (or, negative, fewer) pending writes."""
        for program in self.programs:
            program.in_flight += count

    def schedule_at(
        self, time: float, callback: Callable[[], Any], description: str = ""
    ) -> None:
        """Schedule ``callback`` at ``time``, holding every watched program
        for frames stamped at or after ``time`` plus its ``after``, until
        the clock has passed that instant."""
        simulator = self.simulator
        simulator.schedule_at(time, callback, description)
        now = simulator.now
        for program, after in zip(self.programs, self.after):
            writes = program.writes
            # The instants before the clock: nothing they stood for is
            # pending any more.
            while writes and writes[0] < now:
                heappop(writes)
            heappush(writes, time + after)
