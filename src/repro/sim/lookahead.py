"""Conservative lookahead: when a frame may enter a switch program early.

A switch program acts on a frame as of the instant the frame reaches it,
against its tables as they are at that instant.  An edge that knows that
instant — a link that has worked out a frame's delivery stamp, a switch
whose pipeline latency is a constant — could call the program at once,
stamped with it, instead of spending an event to wait for the clock,
provided nothing the program would see differs.  That is the lookahead
rule of conservative parallel discrete-event simulation (Chandy and
Misra, 1979), and :class:`Lookahead` holds it for one program: it is the
one place the predicate is written down.

The parts of the rule that cannot change during a run — the edge is the
program's only data input, its last link cannot reorder — are decided
once, when :meth:`repro.topology.graph.TopologyGraph.wire` hands a
program's :class:`Lookahead` to that edge.  The rest is
:meth:`Lookahead.admits`, asked per frame.

What else can touch a program are the writes of its control plane and of
the faults aimed at it.  Each such source reports what it has in flight
on the programs it can write through an :class:`InFlight`: the events it
schedules — a control-plane step, a digest on its way to the control
plane, a rate limiter's drain, a TTL poll, a restart or eviction storm —
hold each program until they have run, and the work it tracks itself — a
command on a control link, whose acknowledgement also starts the
encoder-side install — is counted.  It also states how soon a write it
has *not* started yet could land (its reaction latency).
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, List

from repro.sim.simulator import Simulator

__all__ = ["InFlight", "Lookahead"]


class Lookahead:
    """Whether an edge may hand one switch program a frame ahead of the clock.

    ``hold`` is the latest instant of a pending event that touches the
    program: a write a source scheduled (:class:`InFlight`), or a delivery
    its input scheduled because this rule refused it.  Every event up to
    ``hold`` has run once the clock is past it.  ``in_flight`` counts the
    writes sources track without an event of their own.  ``reaction`` is
    the smallest delay after which a write no source has started yet could
    land on the program: +inf until a control plane watches it.
    """

    __slots__ = ("simulator", "hold", "in_flight", "reaction")

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self.hold = -inf
        self.in_flight = 0
        self.reaction = inf

    def admits(self, stamp: float) -> bool:
        """True when the program may take a frame stamped ``stamp`` now.

        It may when nothing that touches it is pending — ``hold`` is before
        the clock and ``in_flight`` is zero — and ``stamp`` is not before
        the clock, within the current run's
        :attr:`~repro.sim.simulator.Simulator.horizon`, and less than
        ``reaction`` ahead of the clock, so no write started between now
        and the stamp lands before it.  An admitted stamp raises
        :attr:`~repro.sim.simulator.Simulator.latest_stamp`.  A refused one
        raises ``hold``: the caller schedules the delivery as an event at
        ``stamp``, and nothing overtakes it.
        """
        simulator = self.simulator
        now = simulator.now
        if (
            self.in_flight
            or self.hold >= now
            or not 0.0 <= stamp - now < self.reaction
            or stamp > simulator.horizon
        ):
            if stamp > self.hold:
                self.hold = stamp
            return False
        if stamp > simulator.latest_stamp:
            simulator.latest_stamp = stamp
        return True


class InFlight:
    """What one source of writes has in flight, on every program it can write.

    A source names the programs it can write (:meth:`watch`).  An event it
    schedules through :meth:`schedule_at` holds each of them until it has
    run; :meth:`add` counts work it tracks itself (a command on a control
    link).
    """

    __slots__ = ("simulator", "programs")

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self.programs: List[Lookahead] = []

    def watch(self, program: Lookahead, reaction: float = inf) -> None:
        """Hold and count on ``program`` too; ``reaction`` is how soon a
        write this source has not started yet could land on it."""
        if program not in self.programs:
            self.programs.append(program)
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
        until it has run."""
        self.simulator.schedule_at(time, callback, description)
        for program in self.programs:
            if time > program.hold:
                program.hold = time

