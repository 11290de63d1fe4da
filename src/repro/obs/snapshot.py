"""Periodic metric snapshots over simulated time.

:class:`PeriodicSnapshotter` turns end-of-run aggregates into a live
time-series: every N *simulated* seconds it calls a sampler (a plain
callable returning ``{series_name: value}``) and emits the result as a
``C`` (counter) trace event, so a long ``fan-in-stress`` run can be
watched converging — compression ratio falling as dictionaries warm up,
queue depths breathing, packet rate settling.

Determinism is the design constraint here.  The obvious implementation —
scheduling a repeating simulator event — would change ``executed_events``
and, worse, extend the run's ``duration`` past the last real frame,
changing report bytes.  Instead the snapshotter registers as a
:meth:`Simulator.add_observer <repro.sim.simulator.Simulator.add_observer>`
callback: after each event executes it checks whether simulated time
crossed one or more interval boundaries and emits one sample per crossed
boundary, stamped at the boundary time.  The simulator's schedule is
untouched, so reports stay byte-identical with snapshots on or off.

Because samples are taken *after* the event that crossed the boundary,
values reflect the state at the first instant the simulation was observed
past the boundary — exact for monotone counters at frame granularity,
which is all the sampled series are.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

__all__ = ["PeriodicSnapshotter"]


class PeriodicSnapshotter:
    """Sample a metrics callable every ``interval`` simulated seconds.

    Parameters
    ----------
    interval:
        Simulated seconds between samples; must be positive.
    tracer:
        The tracer snapshots are emitted through (as counter events named
        ``snapshot`` on the ``snapshots`` track).
    sampler:
        Zero-argument callable returning a flat ``{name: number}``
        mapping of the series to record.
    """

    def __init__(
        self,
        interval: float,
        tracer: Any,
        sampler: Callable[[], Mapping[str, float]],
    ) -> None:
        if interval <= 0:
            raise ValueError(f"snapshot interval must be positive, got {interval}")
        self.interval = float(interval)
        self.tracer = tracer
        self.sampler = sampler
        self.samples_taken = 0
        self._next_boundary = self.interval

    def on_event(self, _time: float = 0.0, _description: str = "") -> None:
        """Simulator observer hook: emit samples for crossed boundaries.

        Called as ``observer(time, description)``; it reads the time off
        its tracer's clock instead.
        """
        now = self.tracer.clock()
        while now >= self._next_boundary:
            boundary = self._next_boundary
            self._next_boundary = boundary + self.interval
            values: Dict[str, float] = dict(self.sampler())
            self.tracer.counter("snapshot", "snapshots", values, ts=boundary)
            self.samples_taken += 1

    def flush(self) -> None:
        """Emit one final sample at the current simulated time.

        Called once when a run finishes so the time-series always ends
        with the run's closing state even if the run length is not a
        multiple of the interval.
        """
        values: Dict[str, float] = dict(self.sampler())
        self.tracer.counter("snapshot", "snapshots", values, ts=self.tracer.clock())
        self.samples_taken += 1
