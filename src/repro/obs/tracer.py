"""The structured event/span API at the heart of :mod:`repro.obs`.

Two tracer classes share one interface:

* :class:`Tracer` — the live tracer.  Every call appends one plain-dict
  event to the configured sink: counters (``C``), instant events (``i``)
  and complete spans (``X``), the three Chrome ``trace_event`` phases the
  exporters understand.  Timestamps are *simulated* seconds read from a
  pluggable ``clock`` (the topology engine binds it to its
  :class:`~repro.sim.simulator.Simulator`), so traces line up with the
  report's latency numbers, not with wall-clock noise.
* :class:`NullTracer` — the permanently-disabled tracer.  Every method is
  a no-op and :attr:`~NullTracer.enabled` is ``False``.

Instrumented modules never hold a tracer reference of their own; they read
``repro.obs.TRACER`` (a module *attribute* lookup, so :func:`repro.obs.enable`
swaps the implementation under them) and guard the instrumented block with
``tracer.enabled``.  When tracing is off that guard — one attribute load
and one boolean test — is the entire cost, which is what keeps the
off-mode byte-identity and the ≤2 % hot-path budget trivially safe.

**Chunk correlation.**  The tracer carries an optional *context*: the
``(flow, chunk)`` identity of the packet currently being processed.  The
topology engine sets it around each injection;
because the simulator is single-threaded and encoding happens
synchronously inside the injection call, every span emitted downstream —
switch encode, link enqueue/serialise/propagate — inherits the identity
automatically.  :class:`~repro.replay.link.EmulatedLink` captures the
context when a frame enters the wire and restores it when the delivery
event fires, so decode and sink-arrival events on later hops still carry
the originating chunk.  Reconstructing one chunk's lifecycle is then a
filter over ``(flow, chunk)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

__all__ = ["SPAN", "INSTANT", "COUNTER", "Tracer", "NullTracer"]

#: Event phases, matching the Chrome ``trace_event`` vocabulary so the
#: exporter is a field-rename away from the JSONL stream.
SPAN = "X"
INSTANT = "i"
COUNTER = "C"


def _zero_clock() -> float:
    return 0.0


class Tracer:
    """Collect structured events keyed on simulated time.

    Parameters
    ----------
    sink:
        Any object with an ``emit(event: dict)`` method (see
        :mod:`repro.obs.sinks`).
    clock:
        Zero-argument callable returning the current simulated time in
        seconds.  Defaults to a constant ``0.0``; the topology engine binds
        it to its simulator as soon as one exists.
    shard:
        Shard index stamped on every event of a sharded worker run, the
        secondary key of the documented merge order ``(ts, shard, seq)``.
        ``None`` (in-process runs) is stamped as shard ``0``.
    snapshot_interval:
        Simulated seconds between :class:`~repro.obs.snapshot.PeriodicSnapshotter`
        samples.  Carried on the tracer so the engine the run builds can
        attach the snapshotter without extra plumbing.
    """

    enabled = True

    def __init__(
        self,
        sink: Any,
        clock: Optional[Callable[[], float]] = None,
        shard: Optional[int] = None,
        snapshot_interval: Optional[float] = None,
    ):
        self.sink = sink
        self.clock = clock or _zero_clock
        self.shard = 0 if shard is None else shard
        self.snapshot_interval = snapshot_interval
        self._seq = 0
        self._context: Optional[Tuple[str, int]] = None

    # -- correlation context ------------------------------------------------

    @property
    def context(self) -> Optional[Tuple[str, int]]:
        """The ``(flow, chunk)`` identity events are currently stamped with."""
        return self._context

    def set_context(self, flow: str, chunk: int) -> None:
        """Stamp subsequent events with a chunk identity."""
        self._context = (flow, chunk)

    def clear_context(self) -> None:
        """Stop stamping events with a chunk identity."""
        self._context = None

    def restore_context(self, context: Optional[Tuple[str, int]]) -> None:
        """Reinstate a context captured earlier (links use this across hops)."""
        self._context = context

    # -- emission -----------------------------------------------------------

    def _emit(
        self,
        phase: str,
        name: str,
        track: str,
        ts: float,
        dur: Optional[float],
        args: Optional[Mapping[str, Any]],
    ) -> None:
        seq = self._seq
        self._seq = seq + 1
        event: Dict[str, Any] = {
            "seq": seq,
            "shard": self.shard,
            "ph": phase,
            "name": name,
            "track": track,
            "ts": ts,
        }
        if dur is not None:
            event["dur"] = dur
        context = self._context
        if context is not None:
            event["flow"] = context[0]
            event["chunk"] = context[1]
        if args:
            event["args"] = dict(args)
        self.sink.emit(event)

    def emit_raw(self, event: Dict[str, Any]) -> None:
        """Forward an already-built event dict (the segment merge path)."""
        self.sink.emit(event)

    def instant(
        self,
        name: str,
        track: str,
        args: Optional[Mapping[str, Any]] = None,
        ts: Optional[float] = None,
    ) -> None:
        """One point in simulated time (drops, arrivals, control installs)."""
        self._emit(INSTANT, name, track, self.clock() if ts is None else ts, None, args)

    def span(
        self,
        name: str,
        track: str,
        start: float,
        end: float,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """A complete ``[start, end]`` interval (encode, serialise, ...).

        The simulator computes both endpoints before scheduling, so spans
        are emitted whole — there is no begin/end pairing to get wrong.
        """
        self._emit(SPAN, name, track, start, max(0.0, end - start), args)

    def counter(
        self,
        name: str,
        track: str,
        values: Mapping[str, float],
        ts: Optional[float] = None,
    ) -> None:
        """A sampled set of series values (the snapshot time-series rows)."""
        self._emit(
            COUNTER, name, track, self.clock() if ts is None else ts, None, values
        )


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumentation guards on :attr:`enabled`, so with this tracer
    installed the only cost anywhere in the stack is the guard itself.
    """

    enabled = False
    shard = 0
    snapshot_interval: Optional[float] = None
    context: Optional[Tuple[str, int]] = None

    def set_context(self, flow: str, chunk: int) -> None:
        pass

    def clear_context(self) -> None:
        pass

    def restore_context(self, context: Optional[Tuple[str, int]]) -> None:
        pass

    def emit_raw(self, event: Dict[str, Any]) -> None:
        pass

    def instant(self, name, track, args=None, ts=None) -> None:
        pass

    def span(self, name, track, start, end, args=None) -> None:
        pass

    def counter(self, name, track, values, ts=None) -> None:
        pass
