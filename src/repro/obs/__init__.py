"""``repro.obs`` — the unified telemetry layer.

One module-level tracer, :data:`TRACER`, is the single switch for all
instrumentation in the stack.  It starts as a :class:`NullTracer`
(``enabled = False``), so by default every instrumented call site costs
exactly one attribute lookup plus one boolean test — verified by
``benchmarks/bench_obs_overhead.py`` and by the off-mode byte-identity
tests.  :func:`enable` swaps in a live :class:`Tracer`; :func:`disable`
swaps the no-op back and returns whatever was installed.

Instrumented modules must import the *module* and read the attribute at
call time::

    from repro import obs as _obs
    ...
    tracer = _obs.TRACER
    if tracer.enabled:
        tracer.instant("link.drop", track=self.name)

(From-importing ``TRACER`` would freeze a stale reference and miss the
swap.)

See ``docs/observability.md`` for the event schema, span taxonomy and
how to open exports in Perfetto.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro._lazy import lazy_exports
from repro.obs.tracer import COUNTER, INSTANT, SPAN, NullTracer, Tracer

# The sinks, the snapshotter and the summary load when first read: an
# untraced run reads only TRACER.
__getattr__, __dir__, _exported = lazy_exports(
    __name__,
    {
        "sinks": (
            "EventCollector",
            "JsonLinesSink",
            "event_sort_key",
            "merge_segments",
            "read_events",
            "write_chrome_trace",
            "write_events",
        ),
        "snapshot": ("PeriodicSnapshotter",),
        "summarize": ("format_summary", "summarize_events"),
    },
)

__all__ = [
    "TRACER",
    "enable",
    "disable",
    "Tracer",
    "NullTracer",
    "SPAN",
    "INSTANT",
    "COUNTER",
    *_exported,
]

#: The process-wide tracer every instrumented call site reads.
TRACER: Any = NullTracer()


def enable(
    sink: Optional[Any] = None,
    clock: Optional[Callable[[], float]] = None,
    shard: Optional[int] = None,
    snapshot_interval: Optional[float] = None,
) -> Tracer:
    """Install a live tracer as :data:`TRACER` and return it.

    ``sink`` defaults to a fresh :class:`EventCollector`.  The previous
    tracer is replaced outright; callers that need to restore it (the
    sharded workers do) should save ``obs.TRACER`` first and put it back
    in a ``finally``.
    """
    global TRACER
    if sink is None:
        from repro.obs.sinks import EventCollector

        sink = EventCollector()
    tracer = Tracer(
        sink,
        clock=clock,
        shard=shard,
        snapshot_interval=snapshot_interval,
    )
    TRACER = tracer
    return tracer


def disable() -> Any:
    """Reinstall the no-op tracer; returns the tracer that was active."""
    global TRACER
    previous = TRACER
    TRACER = NullTracer()
    return previous
