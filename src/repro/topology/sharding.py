"""Sharded topology execution: partition, simulate per shard, merge.

The paper's deployment story is a datacenter fan-in — thousands of hosts
behind rack encoders — and one Python process simulating every flow on a
single event queue cannot reach that scale.  This module splits a
:class:`~repro.topology.spec.TopologySpec` into independent per-encoder
subgraphs, simulates each shard in its own process, and folds the results
back into one :class:`~repro.topology.engine.TopologyReport`.

The determinism contract is the whole point: **same spec + seed ⇒
byte-identical report JSON at any worker count.**  It holds because

* a shard is built from the whole spec plus the names of its nodes
  (``TopologyEngine(spec, shard=...)``), so every decision it makes is
  the whole spec's: CRC-derived flow and link seeds, measured links,
  encoder → decoder pairing, control-plane counter names and which fault
  events are its own;
* shards are disjoint connected components — no event in one shard can
  observe another shard's clock, queue or dictionary;
* the merge and the monolithic engine build their report with the same
  function (:func:`~repro.topology.report.fold_report`), fed the flows in
  the whole spec's declaration order, so even float summation is
  bit-identical;
* counters/gauges land in sorted-key JSON, and every shard's namespaces
  are disjoint by construction (control-plane counters are qualified per
  owner whenever the whole spec has several).

What cannot shard: two encoders connected by a data link (or sharing a
decoder) form one component, and a component with more than one encoder
is rejected with the offending link named — partitioning it would tear a
shared dictionary in half.  A flow whose source and sink sit in different
components is likewise rejected by name.  Single-component specs (the
``fan-in`` preset) still run through this path as one shard, so
``--workers 1`` and the monolithic engine agree byte for byte.
"""

from __future__ import annotations

import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.exceptions import TopologyError
from repro.obs.tracer import Tracer
from repro.replay.metrics import MetricsRegistry
from repro.topology.engine import TopologyEngine, check_metrics_mode
from repro.topology.graph import node_components
from repro.topology.report import TopologyReport, fold_report
from repro.topology.spec import TopologySpec

__all__ = [
    "PartitionError",
    "TopologyShard",
    "map_across_workers",
    "partition_spec",
    "run_topology",
]

class PartitionError(TopologyError):
    """The spec cannot be split into independent per-encoder subgraphs."""


@dataclass(frozen=True)
class TopologyShard:
    """One independent subgraph of a spec: a connected component.

    ``nodes`` names the component's nodes in declaration order; the shard
    runs as ``TopologyEngine(spec, shard=nodes)`` on the whole spec.
    ``name`` identifies the shard in progress and error messages — the
    component's encoder when it has exactly one, its first node otherwise.
    """

    index: int
    name: str
    nodes: Tuple[str, ...]


@dataclass(frozen=True)
class _ShardTask:
    """What a worker process needs, beside the whole spec, to build and run
    its shard; the spec is bound into the mapped function, so it reaches
    each pool worker once (:func:`map_across_workers`).

    ``trace_segment``/``snapshot_interval`` are set only when the parent
    has tracing enabled: the worker then writes its own JSON-lines trace
    segment (stamped with its shard index), which the parent merge-sorts
    into one time-ordered stream after the run.
    """

    shard: TopologyShard
    metrics_mode: str
    trace_segment: Optional[str] = None
    snapshot_interval: Optional[float] = None


@dataclass
class _ShardOutcome:
    """What a shard hands back: the objects it already has, which pickle.

    ``report`` is the shard engine's own :class:`TopologyReport`,
    ``first_times`` its per-tap ``(first type-2, first type-3)`` pairs
    (the one thing the learning delay needs that a report does not carry).
    A crashed shard has ``failure`` (the traceback) and no report.
    """

    index: int
    name: str
    report: Optional[TopologyReport] = None
    first_times: Sequence[Tuple[Optional[float], Optional[float]]] = ()
    failure: Optional[str] = None


def partition_spec(spec: TopologySpec) -> List[TopologyShard]:
    """Split a spec into one shard per connected component.

    Components are connected through links *and* encoder↔decoder control
    pairings (see :func:`~repro.topology.graph.node_components`).  Raises
    :class:`PartitionError` — naming the offender — when a component holds
    more than one encoder (the link that merges them) or a flow spans two
    components (the flow).
    """
    parts = node_components(spec)
    link = parts.bridge
    if link is not None:
        raise PartitionError(
            f"topology {spec.name!r} cannot be partitioned: link "
            f"{link.name!r} connects two encoder subgraphs "
            f"({link.source[0]!r} side and {link.target[0]!r} side) — "
            f"flows sharing an encoder or link must stay in one shard"
        )
    kind_of = {node.name: node.kind for node in spec.nodes}
    shards: List[TopologyShard] = []
    for index, members in enumerate(parts.groups):
        encoders = [name for name in members if kind_of[name] == "encoder"]
        # Decoder pairings can also merge encoder subgraphs (two encoders
        # claiming one decoder); there is no link to blame, so name the nodes.
        if len(encoders) > 1:
            names = ", ".join(repr(name) for name in encoders)
            raise PartitionError(
                f"topology {spec.name!r} cannot be partitioned: encoders "
                f"{names} share a decoder and would land in one shard"
            )
        name = encoders[0] if encoders else members[0]
        shards.append(TopologyShard(index, name, tuple(members)))

    for flow in spec.flows:
        if parts.component_of[flow.source] != parts.component_of[flow.sink]:
            raise PartitionError(
                f"topology {spec.name!r} cannot be partitioned: flow "
                f"{flow.name!r} runs from {flow.source!r} to {flow.sink!r}, "
                f"which sit in different components"
            )
    return shards


#: Total chunks from which a process pool reliably pays for itself.
#: Measured on the ``rack-static-hit`` spec (2 shards) on a shared 2-core
#: host: below it ``workers=2`` read *slower* than ``workers=1`` in some
#: series (0.7-0.9x when the two short-lived workers end up on one core,
#: 1.1-1.5x when they do not); at 8,000 it won three series of four, from
#: 16,000 up every one, 1.6-1.8x (docs/performance.md, "Whole-stack budget").
WORKERS_PAY_OFF_CHUNKS = 8000


#: In a pool worker: the function :func:`map_across_workers` runs on each
#: task, set once by the pool initializer.
_WORKER: Optional[Callable[[Any], Any]] = None


def _start_worker(function: Callable[[Any], Any]) -> None:
    global _WORKER
    _WORKER = function


def _run_in_worker(task: Any) -> Any:
    return _WORKER(task)


def map_across_workers(
    function: Callable[[Any], Any], tasks: Sequence[Any], workers: int
) -> Iterator[Any]:
    """Yield ``function(task)`` for every task, as each one finishes.

    One worker runs the tasks lazily, in order, in this process; more fan
    them across a process pool and yield in completion order.  ``function``
    reaches each pool worker once, through the pool initializer, so what
    the tasks share can be bound into it (``functools.partial``) and a task
    carries only what is its own.  The pool forks on Linux (a measured 5x+
    startup win) and uses the platform default elsewhere (macOS frameworks
    can deadlock in forked children) — spawn-safe as long as ``function``
    is module-level (or a partial of one) and it, the tasks and the results
    pickle.  ``chunksize=1`` keeps the tasks spread across the pool.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        yield from map(function, tasks)
        return
    import multiprocessing  # a pool's own: one worker runs in this process

    method = "fork" if sys.platform == "linux" else None
    with multiprocessing.get_context(method).Pool(
        processes=workers,
        initializer=_start_worker,
        initargs=(function,),
    ) as pool:
        yield from pool.imap_unordered(_run_in_worker, tasks, chunksize=1)


def _run_shard(spec: TopologySpec, task: _ShardTask) -> _ShardOutcome:
    """Module-level worker: build the shard from the whole spec and simulate it.

    Never raises — a crash comes back as an outcome with ``failure`` set,
    so the parent can name the failing shard instead of surfacing a bare
    pool traceback.
    """
    shard = task.shard
    # Swap in a file-writing tracer for the duration of the shard when the
    # parent requested one.  The save/restore matters in the sequential
    # (workers=1) path, where all shards share this process's global; in a
    # forked worker it is merely harmless.
    saved_tracer = None
    segment_sink = None
    if task.trace_segment is not None:
        from repro.obs.sinks import JsonLinesSink

        saved_tracer = _obs.TRACER
        segment_sink = JsonLinesSink(task.trace_segment)
        _obs.TRACER = Tracer(
            segment_sink,
            shard=shard.index,
            snapshot_interval=task.snapshot_interval,
        )
    try:
        engine = TopologyEngine(
            spec, metrics_mode=task.metrics_mode, shard=shard.nodes
        )
        report = engine.run()
        return _ShardOutcome(
            shard.index, shard.name, report, engine.wire_first_times()
        )
    except Exception:  # noqa: BLE001 — reported by name in the parent
        import traceback

        return _ShardOutcome(
            shard.index, shard.name, failure=traceback.format_exc()
        )
    finally:
        if segment_sink is not None:
            segment_sink.close()
            _obs.TRACER = saved_tracer


def _merge_outcomes(
    spec: TopologySpec,
    outcomes: List[_ShardOutcome],
    metrics_mode: str,
) -> TopologyReport:
    """Fold per-shard reports into one, byte-identical to the monolithic run.

    Shard registries are disjoint by construction (control-plane counters
    are qualified per owner whenever the whole spec has several), so their
    union in shard-index order is the registry a monolithic engine would
    have collected — minus each shard's own ``endtoend.latency``, which
    :func:`~repro.topology.report.fold_report` rebuilds over *all* flows,
    handed over in the whole spec's declaration order exactly as one
    engine hands over its own.
    """
    outcomes = sorted(outcomes, key=lambda outcome: outcome.index)
    reports = [outcome.report for outcome in outcomes]
    metrics = MetricsRegistry(bounded_distributions=metrics_mode == "streaming")
    for report in reports:
        metrics.absorb(
            report.metrics.select(lambda name: name != "endtoend.latency")
        )
    by_name = {flow.name: flow for report in reports for flow in report.flows}
    return fold_report(
        spec,
        metrics,
        [by_name[flow.name] for flow in spec.flows],
        wire_payload_bytes=sum(report.wire_payload_bytes for report in reports),
        duration=max((report.duration for report in reports), default=0.0),
        first_times=[
            pair for outcome in outcomes for pair in outcome.first_times
        ],
    )


def run_topology(
    spec: TopologySpec,
    workers: int = 1,
    metrics_mode: str = "exact",
    progress: Optional[Callable[[str], None]] = None,
) -> TopologyReport:
    """Partition ``spec``, simulate the shards, and merge one report.

    ``workers=1`` runs the shards sequentially in-process; ``workers>1``
    fans them across a process pool (:func:`map_across_workers`; the worker
    builds its shard from the picklable spec and the shard's node names).  Either way the
    merged report is byte-identical: the worker count only changes
    wall-clock.

    A spec that cannot be partitioned (multiple encoders in one
    component) still runs at ``workers=1`` — it falls back to the
    monolithic engine, whose report this path reproduces exactly — but
    raises :class:`PartitionError` for ``workers > 1``, because no process
    boundary can honor a shared dictionary.

    A pool only reliably pays for itself from :data:`WORKERS_PAY_OFF_CHUNKS`
    up; below it ``progress`` is told so, once, and the run goes ahead as
    asked.
    """
    check_metrics_mode(metrics_mode)
    if workers < 1:
        raise TopologyError(f"workers must be a positive integer, got {workers}")
    try:
        shards = partition_spec(spec)
    except PartitionError:
        if workers > 1:
            raise
        return TopologyEngine(spec, metrics_mode=metrics_mode).run()

    with ExitStack() as cleanup:
        # With tracing on, every shard — regardless of worker count —
        # writes a JSON-lines segment into a private temp dir; the segments
        # are merged below on (ts, shard, seq), a key independent of
        # process scheduling, so the final trace matches at any worker
        # count.
        parent_tracer = _obs.TRACER
        segment_paths: List[Optional[str]] = [None] * len(shards)
        if parent_tracer.enabled:
            import tempfile

            trace_dir = cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-trace-")
            )
            segment_paths = [
                os.path.join(trace_dir, f"shard-{shard.index}.jsonl")
                for shard in shards
            ]
        tasks = [
            _ShardTask(
                shard=shard,
                metrics_mode=metrics_mode,
                trace_segment=segment,
                snapshot_interval=(
                    parent_tracer.snapshot_interval if parent_tracer.enabled else None
                ),
            )
            for shard, segment in zip(shards, segment_paths)
        ]
        chunks = sum(flow.chunks for flow in spec.flows)
        if (
            progress is not None
            and min(workers, len(tasks)) > 1
            and chunks < WORKERS_PAY_OFF_CHUNKS
            # A capture's length is not in the spec.
            and all(flow.trace is None for flow in spec.flows)
        ):
            progress(
                f"note: {chunks:,} chunks is below the ~{WORKERS_PAY_OFF_CHUNKS:,} "
                f"from which a process pool reliably pays for itself; workers=1 "
                f"may be faster than workers={workers} here (same report either way)"
            )
        outcomes: List[_ShardOutcome] = []
        results = map_across_workers(partial(_run_shard, spec), tasks, workers)
        # On a failure the pool must be gone before the trace dir is.
        cleanup.callback(results.close)
        for done, outcome in enumerate(results, start=1):
            if outcome.failure is not None:
                raise TopologyError(
                    f"shard {outcome.name!r} (index {outcome.index}) failed:\n"
                    f"{outcome.failure}"
                )
            outcomes.append(outcome)
            if progress is not None:
                progress(
                    f"[{done}/{len(tasks)}] shard {outcome.name}: "
                    f"{outcome.report.duration * 1e3:.3f} ms simulated"
                )
        report = _merge_outcomes(spec, outcomes, metrics_mode)
        if parent_tracer.enabled:
            from repro.obs.sinks import merge_segments

            for event in merge_segments(
                [path for path in segment_paths if path and os.path.exists(path)]
            ):
                parent_tracer.emit_raw(event)
        return report
