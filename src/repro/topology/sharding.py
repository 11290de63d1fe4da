"""Sharded topology execution: partition, simulate per shard, merge.

The paper's deployment story is a datacenter fan-in — thousands of hosts
behind rack encoders — and one Python process simulating every flow on a
single event queue cannot reach that scale.  This module splits a
:class:`~repro.topology.spec.TopologySpec` into independent per-encoder
subgraphs, simulates each shard in its own process, and folds the results
back into one :class:`~repro.topology.engine.TopologyReport`.

The determinism contract is the whole point: **same spec + seed ⇒
byte-identical report JSON at any worker count.**  It holds because

* per-flow and per-link seeds are CRC-derived from the *full spec's* name
  and seed (shard sub-specs keep both), so a flow's randomness is
  identical whether it runs in the monolithic engine or a shard;
* shards are disjoint connected components — no event in one shard can
  observe another shard's clock, queue or dictionary;
* the merge folds per-flow latency into ``endtoend.latency`` in
  flow-declaration order of the *full* spec, the exact order the
  monolithic engine uses, so even float summation is bit-identical;
* counters/gauges land in sorted-key JSON, and every shard's namespaces
  are disjoint by construction (control-plane counters are qualified per
  encoder whenever the full spec has several encoders).

What cannot shard: two encoders connected by a data link (or sharing a
decoder) form one component, and a component with more than one encoder
is rejected with the offending link named — partitioning it would tear a
shared dictionary in half.  A flow whose source and sink sit in different
components is likewise rejected by name.  Single-component specs (the
``fan-in`` preset) still run through this path as one shard, so
``--workers 1`` and the monolithic engine agree byte for byte.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro import obs as _obs
from repro.exceptions import TopologyError
from repro.obs.sinks import JsonLinesSink, merge_segments
from repro.obs.tracer import Tracer
from repro.replay.metrics import Distribution, IntegrityResult, MetricsRegistry
from repro.topology.engine import (
    METRICS_MODES,
    FlowResult,
    TopologyEngine,
    TopologyReport,
    learning_delay,
)
from repro.topology.spec import TopologySpec

__all__ = [
    "PartitionError",
    "TopologyShard",
    "partition_spec",
    "run_topology",
]

_INTEGRITY_FIELDS = (
    "sent", "received", "matched", "corrupted", "missing", "out_of_order"
)


class PartitionError(TopologyError):
    """The spec cannot be split into independent per-encoder subgraphs."""


@dataclass(frozen=True)
class TopologyShard:
    """One independent subgraph of a spec, ready to simulate on its own.

    ``spec`` is a full, self-validating :class:`TopologySpec` restricted
    to one connected component; it keeps the parent spec's name, seed and
    scenario so every derived seed matches the monolithic run.  ``name``
    identifies the shard in progress and error messages — the component's
    encoder when it has exactly one, its first node otherwise.
    """

    index: int
    name: str
    spec: TopologySpec


@dataclass(frozen=True)
class _ShardTask:
    """Everything a worker process needs to rebuild and run its shard.

    ``trace_segment``/``snapshot_interval`` are set only when the parent
    has tracing enabled: the worker then writes its own JSON-lines trace
    segment (stamped with its shard index), which the parent merge-sorts
    into one time-ordered stream after the run.
    """

    shard: TopologyShard
    verify_integrity: bool
    metrics_mode: str
    qualify_controlplane: bool
    trace_segment: Optional[str] = None
    snapshot_interval: Optional[float] = None


@dataclass
class _ShardOutcome:
    """A picklable shard result the parent folds into the merged report."""

    index: int
    name: str
    duration: float
    wire_payload_bytes: int
    first_times: List[Tuple[Optional[float], Optional[float]]]
    registry_state: Dict[str, Any]
    flows: List[Dict[str, Any]]
    failure: Optional[str] = None


def _shard_name(component: List[str], encoders: List[str]) -> str:
    if len(encoders) == 1:
        return encoders[0]
    return component[0]


def partition_spec(spec: TopologySpec) -> List[TopologyShard]:
    """Split a spec into one shard per connected component.

    Components are connected through links *and* encoder↔decoder control
    pairings (see :meth:`TopologySpec.node_components`).  Raises
    :class:`PartitionError` — naming the offender — when a component holds
    more than one encoder (the link that merges them) or a flow spans two
    components (the flow).
    """
    component_of = spec.node_components()
    kind_of = {node.name: node.kind for node in spec.nodes}

    # Name the *link* that first merges two encoder-bearing subgraphs:
    # replay the link unions and watch encoder counts per set.
    encoder_count: Dict[str, int] = {
        node.name: (1 if node.kind == "encoder" else 0) for node in spec.nodes
    }
    parent = {node.name: node.name for node in spec.nodes}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for link in spec.links:
        root_a = find(link.source[0])
        root_b = find(link.target[0])
        if root_a == root_b:
            continue
        if encoder_count[root_a] and encoder_count[root_b]:
            raise PartitionError(
                f"topology {spec.name!r} cannot be partitioned: link "
                f"{link.name!r} connects two encoder subgraphs "
                f"({link.source[0]!r} side and {link.target[0]!r} side) — "
                f"flows sharing an encoder or link must stay in one shard"
            )
        parent[root_a] = root_b
        encoder_count[root_b] += encoder_count[root_a]
    # Decoder pairings can also merge encoder subgraphs (two encoders
    # claiming one decoder); there is no link to blame, so name the nodes.
    for component in spec.components():
        encoders = [name for name in component if kind_of[name] == "encoder"]
        if len(encoders) > 1:
            names = ", ".join(repr(name) for name in encoders)
            raise PartitionError(
                f"topology {spec.name!r} cannot be partitioned: encoders "
                f"{names} share a decoder and would land in one shard"
            )

    for flow in spec.flows:
        if component_of[flow.source] != component_of[flow.sink]:
            raise PartitionError(
                f"topology {spec.name!r} cannot be partitioned: flow "
                f"{flow.name!r} runs from {flow.source!r} to {flow.sink!r}, "
                f"which sit in different components"
            )

    # Pre-resolve the measured set once, globally, so a shard never falls
    # back to tapping its own first emulated link when the full spec's
    # fallback lies in a different shard.
    measured_names = {link.name for link in spec.measured_links}

    shards: List[TopologyShard] = []
    for index, component in enumerate(spec.components()):
        members = set(component)
        nodes = [node for node in spec.nodes if node.name in members]
        links = [
            replace(link, measured=link.name in measured_names)
            for link in spec.links
            if link.source[0] in members and link.target[0] in members
        ]
        flows = [flow for flow in spec.flows if flow.source in members]
        sub_spec = TopologySpec(
            name=spec.name,
            nodes=nodes,
            links=links,
            flows=flows,
            scenario=spec.scenario,
            order=spec.order,
            identifier_bits=spec.identifier_bits,
            seed=spec.seed,
            entry_ttl=spec.entry_ttl,
            control=spec.control,
            control_bandwidth_gbps=spec.control_bandwidth_gbps,
            control_propagation_us=spec.control_propagation_us,
            control_rate=spec.control_rate,
            control_queue=spec.control_queue,
            # Restart/storm events follow their node into its shard; the
            # global control-link impairment probabilities stay (each
            # control link draws from its own derived-seed stream).
            faults=(
                spec.faults.events_for(members)
                if spec.faults is not None
                else None
            ),
        )
        encoders = [name for name in component if kind_of[name] == "encoder"]
        shards.append(
            TopologyShard(
                index=index,
                name=_shard_name(component, encoders),
                spec=sub_spec,
            )
        )
    return shards


def _run_shard(task: _ShardTask) -> _ShardOutcome:
    """Module-level worker: rebuild the shard's subgraph and simulate it.

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
        saved_tracer = _obs.TRACER
        segment_sink = JsonLinesSink(task.trace_segment)
        _obs.TRACER = Tracer(
            segment_sink,
            shard=shard.index,
            snapshot_interval=task.snapshot_interval,
        )
    try:
        engine = TopologyEngine(
            shard.spec,
            verify_integrity=task.verify_integrity,
            metrics_mode=task.metrics_mode,
            tap_fallback=False,
            qualify_controlplane=task.qualify_controlplane,
        )
        report = engine.run()
        return _ShardOutcome(
            index=shard.index,
            name=shard.name,
            duration=report.duration,
            wire_payload_bytes=report.wire_payload_bytes,
            first_times=engine.wire_first_times(),
            registry_state=report.metrics.export_state(),
            flows=[flow.as_dict() for flow in report.flows],
        )
    except Exception:  # noqa: BLE001 — reported by name in the parent
        return _ShardOutcome(
            index=shard.index,
            name=shard.name,
            duration=0.0,
            wire_payload_bytes=0,
            first_times=[],
            registry_state={"counters": {}, "gauges": {}, "distributions": {}},
            flows=[],
            failure=traceback.format_exc(),
        )
    finally:
        if segment_sink is not None:
            segment_sink.close()
            _obs.TRACER = saved_tracer


def _integrity_from_dict(
    data: Optional[Mapping[str, Any]],
) -> Optional[IntegrityResult]:
    if data is None:
        return None
    return IntegrityResult(**{key: data[key] for key in _INTEGRITY_FIELDS})


def _merge_outcomes(
    spec: TopologySpec,
    outcomes: List[_ShardOutcome],
    metrics_mode: str,
) -> TopologyReport:
    """Fold per-shard outcomes into one report, byte-identical to 1 worker.

    Counters and gauges are re-imported in shard-index order (they are
    disjoint across shards, so order only matters for insertion, and the
    JSON export sorts keys anyway); per-flow latency distributions are
    restored from their full state and folded into ``endtoend.latency``
    in flow-declaration order of the *full* spec — the same left-fold the
    monolithic engine performs, so float sums match exactly.
    """
    streaming = metrics_mode == "streaming"
    outcomes = sorted(outcomes, key=lambda outcome: outcome.index)
    metrics = MetricsRegistry(bounded_distributions=streaming)
    for outcome in outcomes:
        for name, value in outcome.registry_state["counters"].items():
            metrics.increment(name, value)
        for name, value in outcome.registry_state["gauges"].items():
            metrics.set_gauge(name, value)
        for name, state in outcome.registry_state["distributions"].items():
            if name == "endtoend.latency":
                continue  # rebuilt below in full-spec flow order
            metrics.add_distribution(Distribution.from_state(name, state))

    endtoend = metrics.distribution("endtoend.latency")
    flow_data = {
        data["name"]: data for outcome in outcomes for data in outcome.flows
    }
    distributions = metrics.distributions()
    flow_results: List[FlowResult] = []
    totals = {key: 0 for key in _INTEGRITY_FIELDS}
    any_integrity = False
    for flow_spec in spec.flows:
        data = flow_data[flow_spec.name]
        latency = distributions.get(f"flow.{flow_spec.name}.latency")
        if latency is not None and not latency.empty:
            if streaming:
                endtoend.merge(latency)
            else:
                endtoend.extend(latency.samples)
        integrity = _integrity_from_dict(data["integrity"])
        if integrity is not None:
            any_integrity = True
            for key in totals:
                totals[key] += getattr(integrity, key)
        flow_results.append(
            FlowResult(
                name=data["name"],
                source=data["source"],
                seed=data["seed"],
                chunks_sent=data["chunks_sent"],
                payload_bytes_sent=data["payload_bytes_sent"],
                frames_sent=data["frames_sent"],
                delivered=data["delivered"],
                integrity=integrity,
                latency=dict(data["latency"]),
            )
        )

    return TopologyReport(
        topology=spec.name,
        scenario=spec.scenario,
        chunks_sent=sum(result.chunks_sent for result in flow_results),
        payload_bytes_sent=sum(
            result.payload_bytes_sent for result in flow_results
        ),
        wire_payload_bytes=sum(
            outcome.wire_payload_bytes for outcome in outcomes
        ),
        duration=max((outcome.duration for outcome in outcomes), default=0.0),
        integrity=IntegrityResult(**totals) if any_integrity else None,
        flows=flow_results,
        metrics=metrics,
        learning_time=learning_delay(
            pair for outcome in outcomes for pair in outcome.first_times
        ),
    )


def _raise_on_failure(outcome: _ShardOutcome) -> _ShardOutcome:
    if outcome.failure is not None:
        raise TopologyError(
            f"shard {outcome.name!r} (index {outcome.index}) failed:\n"
            f"{outcome.failure}"
        )
    return outcome


def run_topology(
    spec: TopologySpec,
    workers: int = 1,
    verify_integrity: bool = True,
    metrics_mode: str = "exact",
    progress: Optional[Callable[[str], None]] = None,
) -> TopologyReport:
    """Partition ``spec``, simulate the shards, and merge one report.

    ``workers=1`` runs the shards sequentially in-process; ``workers>1``
    fans them across a process pool (``fork`` start method on Linux, the
    platform default elsewhere — spawn-safe because the worker rebuilds
    everything from the picklable shard spec).  Either way the merged
    report is byte-identical: the worker count only changes wall-clock.

    A spec that cannot be partitioned (multiple encoders in one
    component) still runs at ``workers=1`` — it falls back to the
    monolithic engine, whose report this path reproduces exactly — but
    raises :class:`PartitionError` for ``workers > 1``, because no process
    boundary can honor a shared dictionary.
    """
    if metrics_mode not in METRICS_MODES:
        raise TopologyError(
            f"metrics_mode must be one of {', '.join(METRICS_MODES)}; "
            f"got {metrics_mode!r}"
        )
    if workers < 1:
        raise TopologyError(f"workers must be a positive integer, got {workers}")
    try:
        shards = partition_spec(spec)
    except PartitionError:
        if workers > 1:
            raise
        return TopologyEngine(
            spec, verify_integrity=verify_integrity, metrics_mode=metrics_mode
        ).run()

    # One control plane per encoder — or, on an encoder-less static graph,
    # per decoder.
    kinds = [node.kind for node in spec.nodes]
    control_planes = kinds.count("encoder")
    if not control_planes and spec.scenario == "static":
        control_planes = kinds.count("decoder")
    qualify = control_planes > 1
    # With tracing on, every shard — regardless of worker count — writes a
    # JSON-lines segment into a private temp dir; the segments are merged
    # below on (ts, shard, seq), a key independent of process scheduling,
    # so the final trace matches at any worker count.
    parent_tracer = _obs.TRACER
    trace_dir: Optional[str] = None
    segment_paths: List[str] = []
    if parent_tracer.enabled:
        trace_dir = tempfile.mkdtemp(prefix="repro-trace-")
        segment_paths = [
            os.path.join(trace_dir, f"shard-{shard.index}.jsonl")
            for shard in shards
        ]
    tasks = [
        _ShardTask(
            shard=shard,
            verify_integrity=verify_integrity,
            metrics_mode=metrics_mode,
            qualify_controlplane=qualify,
            trace_segment=segment_paths[position] if segment_paths else None,
            snapshot_interval=(
                parent_tracer.snapshot_interval if parent_tracer.enabled else None
            ),
        )
        for position, shard in enumerate(shards)
    ]

    try:
        processes = min(workers, len(tasks))
        outcomes: List[_ShardOutcome] = []
        if processes <= 1:
            for done, task in enumerate(tasks, start=1):
                outcome = _raise_on_failure(_run_shard(task))
                outcomes.append(outcome)
                if progress is not None:
                    progress(
                        f"[{done}/{len(tasks)}] shard {outcome.name}: "
                        f"{outcome.duration * 1e3:.3f} ms simulated"
                    )
        else:
            # PR 3 hardening, mirrored: fork is a measured 5x+ startup win on
            # Linux; everywhere else the platform default avoids macOS fork
            # unsafety.  chunksize=1 keeps shards spread across the pool.
            method = "fork" if sys.platform == "linux" else None
            context = multiprocessing.get_context(method)
            with context.Pool(processes=processes) as pool:
                for done, outcome in enumerate(
                    pool.imap_unordered(_run_shard, tasks, chunksize=1), start=1
                ):
                    _raise_on_failure(outcome)
                    outcomes.append(outcome)
                    if progress is not None:
                        progress(
                            f"[{done}/{len(tasks)}] shard {outcome.name}: "
                            f"{outcome.duration * 1e3:.3f} ms simulated"
                        )
        report = _merge_outcomes(spec, outcomes, metrics_mode)
        if segment_paths:
            written = [path for path in segment_paths if os.path.exists(path)]
            for event in merge_segments(written):
                parent_tracer.emit_raw(event)
        return report
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
