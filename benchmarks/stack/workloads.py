"""The four workloads: inputs from a seed, one repeat, gates, exact counts.

Every input is generated here from the seed; the program under test only
ever sees the generated :class:`TopologySpec` or byte blocks.  Load shape:
a batch job driven closed-loop from one host thread (each repeat is one
call that runs to completion, ``workers=1``); inside the simulation the
traffic is open-loop, paced at a fixed rate in *simulated* time, and every
packet carries one 32-byte chunk (order 8, the paper's 256-bit
configuration), so packet size is not a traffic dimension.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

CHUNK_BYTES = 32

#: Size divisor of ``--quick`` runs (same code path and metric names).
QUICK_DIVISOR = 8


class GateError(Exception):
    """A correctness gate failed; the benchmark exits non-zero."""


@dataclass
class Outcome:
    """What one repeat produced."""

    chunks: int
    wall_s: float
    #: md5 of the canonical output; identical across repeats of one input.
    digest: str
    #: Simulated-time metrics and ratios; deterministic per seed.
    simulated: Dict[str, float]
    #: Simulator workloads: the report's counters, for :attr:`Workload.counts`.
    counters: Dict[str, float] = field(default_factory=dict)
    #: ``codec-stream-file`` only: seconds per direction.
    compress_s: float = 0.0
    decompress_s: float = 0.0


@dataclass
class Workload:
    name: str
    why: str
    #: ``prepare(seed, divisor)`` generates the inputs of one run.
    prepare: Callable[[int, int], Any]
    #: ``repeat(inputs, recorder, block_times)`` runs once to completion.
    repeat: Callable[..., Outcome]
    #: ``counts(inputs, outcome)``: exact per-layer counts of that repeat,
    #: read from the report / public attributes.
    counts: Callable[[Any, Outcome], Dict[str, float]]


# ---------------------------------------------------------------------------
# simulator workloads
# ---------------------------------------------------------------------------


@dataclass
class _SimInputs:
    spec: Any
    metrics_mode: str
    full_size: bool


def _counter_sum(counters: Dict[str, float], suffix: str, control: bool = False) -> float:
    """Sum of every ``<name>.<suffix>`` counter on data (or control) links."""
    return sum(
        value
        for key, value in counters.items()
        if key.endswith("." + suffix)
        and not key.startswith("flow.")
        and key.startswith("control.") == control
    )


def _max_queue_depth(counters: Dict[str, float]) -> float:
    """Deepest data-link queue of the run."""
    return max(
        value
        for key, value in counters.items()
        if key.endswith(".max_queue_depth") and not key.startswith("control.")
    )


def _sim_repeat(gate: Callable[[_SimInputs, Any, Dict[str, float]], None]):
    def repeat(inputs: _SimInputs, recorder=None, block_times=None) -> Outcome:
        from repro.topology import run_topology

        span = nullcontext() if recorder is None else recorder.span("topology.sharding")
        start = time.perf_counter()
        with span:
            report = run_topology(
                inputs.spec, workers=1, metrics_mode=inputs.metrics_mode
            )
            text = report.json_text()
        wall_s = time.perf_counter() - start

        counters = report.metrics.as_dict()["counters"]
        integrity = report.integrity
        if integrity is None or not integrity.intact or integrity.corrupted:
            raise GateError(f"{inputs.spec.name}: corrupted delivery: {integrity}")
        drops = _counter_sum(counters, "dropped_loss") + _counter_sum(
            counters, "dropped_queue"
        )
        if integrity.missing != drops:
            raise GateError(
                f"{inputs.spec.name}: {integrity.missing} chunks missing but the "
                f"data links dropped {drops}"
            )
        gate(inputs, report, counters)

        latency = report.latency_summary()
        learning = report.learning_time
        return Outcome(
            chunks=report.chunks_sent,
            wall_s=wall_s,
            digest=hashlib.md5(text.encode("utf-8")).hexdigest(),
            simulated={
                "compression_ratio": report.compression_ratio,
                "sim_latency_p50_us": latency["p50"] * 1e6,
                "sim_latency_p99_us": latency["p99"] * 1e6,
                "learning_delay_ms": 0.0 if learning is None else learning * 1e3,
                "missing_share": integrity.missing / report.chunks_sent,
            },
            counters=counters,
        )

    return repeat


def _sim_counts(_inputs: _SimInputs, outcome: Outcome) -> Dict[str, float]:
    counters = outcome.counters
    hits = _counter_sum(counters, "raw_to_compressed")
    misses = _counter_sum(counters, "raw_to_uncompressed")
    return {
        "replay.link.sends_per_chunk": (
            _counter_sum(counters, "offered")
            + _counter_sum(counters, "link.offered", control=True)
        ) / outcome.chunks,
        "replay.link.dropped_loss": _counter_sum(counters, "dropped_loss"),
        "replay.link.dropped_queue": _counter_sum(counters, "dropped_queue"),
        "replay.link.max_queue_depth": _max_queue_depth(counters),
        "zipline.encoder.hit_share": hits / (hits + misses),
        "zipline.decoder.unknown_identifier": _counter_sum(
            counters, "unknown_identifier"
        ),
        "controlplane.learned": _counter_sum(counters, "mappings_learned"),
        "controlplane.recycled": _counter_sum(counters, "mappings_recycled"),
        "topology.control.sent": _counter_sum(counters, "messages_sent", control=True),
        "topology.control.dropped": _counter_sum(counters, "dropped", control=True),
    }


def _gate_static_hit(inputs: _SimInputs, report, counters) -> None:
    if report.compression_ratio != 0.09375:
        raise GateError(
            f"rack-static-hit: ratio {report.compression_ratio!r}, expected the "
            "all-hit 0.09375"
        )
    if _counter_sum(counters, "mappings_learned"):
        raise GateError("rack-static-hit: the control plane learned beyond preload")


def _gate_learns(inputs: _SimInputs, report, counters) -> None:
    """A dynamic run shorter than the learning delay never compresses."""
    if not _counter_sum(counters, "mappings_learned"):
        raise GateError(f"{inputs.spec.name}: the control plane learned nothing")
    if report.learning_time is None or not report.compression_ratio < 1.0:
        raise GateError(
            f"{inputs.spec.name}: never compressed (ratio "
            f"{report.compression_ratio!r}, learning time {report.learning_time!r})"
        )


def _gate_lossy(inputs: _SimInputs, report, counters) -> None:
    _gate_learns(inputs, report, counters)
    depth = _max_queue_depth(counters)
    # The queue only saturates on the full-size trace.
    if inputs.full_size and (
        depth < 8 or not _counter_sum(counters, "dropped_queue")
    ):
        raise GateError(
            f"dns-lossy-multihop: the drop-tail queue never filled (depth {depth})"
        )


def _prepare_rack_static_hit(seed: int, divisor: int) -> _SimInputs:
    from repro.topology import rack_fan_in_topology

    spec = rack_fan_in_topology(
        racks=2, senders=16, chunks=1000 // divisor, bases=8, scenario="static",
        seed=seed,
    )
    return _SimInputs(spec, "streaming", divisor == 1)


def _prepare_fanin_thrash_learn(seed: int, divisor: int) -> _SimInputs:
    from repro.topology import FaultPlan, fan_in_topology, validate_spec_faults

    spec = fan_in_topology(
        senders=4, workload="thrash", chunks=4000 // divisor, bases=10,
        packet_rate=1e5, identifier_bits=5, control="in-network", seed=seed,
    )
    spec.faults = FaultPlan(control_loss=0.1)
    validate_spec_faults(spec)
    return _SimInputs(spec, "exact", divisor == 1)


def _prepare_dns_lossy_multihop(seed: int, divisor: int) -> _SimInputs:
    from repro.topology import linear_topology

    # Frames are padded to the 84-byte minimum wire slot, so 1e5 packets/s
    # offer 67.2 Mb/s; 66 Mb/s per hop fills the 64-frame drop-tail queue
    # of the first hop a third of the way in and keeps it full.
    spec = linear_topology(
        workload="dns", chunks=16000 // divisor, names=400, scenario="dynamic",
        hops=3, loss=0.01, reorder=0.01, queue_capacity=64, packet_rate=1e5,
        bandwidth_gbps=0.066, seed=seed,
    )
    return _SimInputs(spec, "exact", divisor == 1)


# ---------------------------------------------------------------------------
# codec workload
# ---------------------------------------------------------------------------

CODEC_IDENTIFIER_BITS = 15
_CODEC_HALF_BYTES = 3 * (1 << 19)  # 1.5 MiB of each source


@dataclass
class _CodecInputs:
    data: bytes
    blocks: List[bytes]


def codec_buffer(seed: int, divisor: int) -> bytes:
    """Synthetic-sensor chunks followed by DNS chunks, generated from ``seed``."""
    from repro.workloads import DnsQueryWorkload, SyntheticSensorWorkload

    count = _CODEC_HALF_BYTES // divisor // CHUNK_BYTES
    sensor = SyntheticSensorWorkload(num_chunks=count, distinct_bases=64, seed=seed)
    # 20k names: a working set neither the hot-entry cache nor the
    # dictionary's recent entries can pin.
    dns = DnsQueryWorkload(num_queries=count, distinct_names=20000, seed=seed)
    return b"".join(sensor.iter_chunks()) + b"".join(dns.iter_chunks())


def _blocks(data: bytes) -> List[bytes]:
    from repro.core.engine import DEFAULT_BLOCK_SIZE

    return [
        data[offset : offset + DEFAULT_BLOCK_SIZE]
        for offset in range(0, len(data), DEFAULT_BLOCK_SIZE)
    ]


def _prepare_codec_stream_file(seed: int, divisor: int) -> _CodecInputs:
    data = codec_buffer(seed, divisor)
    return _CodecInputs(data, _blocks(data))


def _timed(iterator: Iterable[bytes], block_times: List[float]) -> Iterator[bytes]:
    """Yield from ``iterator``, appending the seconds each ``next()`` took."""
    iterator = iter(iterator)
    while True:
        start = time.perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            return
        block_times.append(time.perf_counter() - start)
        yield item


def _codec_repeat(
    inputs: _CodecInputs, recorder=None, block_times: Optional[List[float]] = None
) -> Outcome:
    from repro import registry

    def observed(stream: Iterable[bytes]) -> Iterable[bytes]:
        if recorder is not None:
            return recorder.spanned("core.engine", stream)
        if block_times is not None:
            return _timed(stream, block_times)
        return stream

    start = time.perf_counter()
    compressor = registry.get("gd", identifier_bits=CODEC_IDENTIFIER_BITS)
    packed = b"".join(observed(compressor.compress_stream(inputs.blocks)))
    compress_s = time.perf_counter() - start
    packed_blocks = _blocks(packed)
    start = time.perf_counter()
    # A fresh compressor: the decoder learns only from the stream itself.
    fresh = registry.get("gd", identifier_bits=CODEC_IDENTIFIER_BITS)
    restored = b"".join(observed(fresh.decompress_stream(packed_blocks)))
    decompress_s = time.perf_counter() - start
    if restored != inputs.data:
        raise GateError("codec-stream-file: round trip is not byte-identical")

    return Outcome(
        chunks=len(inputs.data) // CHUNK_BYTES,
        wall_s=compress_s + decompress_s,
        digest=hashlib.md5(packed).hexdigest(),
        simulated={"compression_ratio": len(packed) / len(inputs.data)},
        compress_s=compress_s,
        decompress_s=decompress_s,
    )


def _codec_counts(inputs: _CodecInputs, _outcome: Outcome) -> Dict[str, float]:
    """Record and dictionary counts of the stream path.

    The stream's own codec is not reachable from outside, so the same
    parameters encode the same chunks in the same order once more: the
    hit/miss decisions are identical.
    """
    from repro import registry

    codec = registry.get("gd", identifier_bits=CODEC_IDENTIFIER_BITS).codec()
    codec.encoder.encode_chunks(inputs.data)
    stats = codec.encoder.stats
    return {
        "core.engine.records_type2": stats.uncompressed_records,
        "core.engine.records_type3": stats.compressed_records,
        "core.dictionary.hit_share": codec.encoder.dictionary.stats.hit_ratio,
    }


WORKLOADS = (
    Workload(
        "rack-static-hit",
        "every chunk is a dictionary hit: only the per-packet cost of sim, link "
        "and compiled switch receive, with streaming accounting",
        _prepare_rack_static_hit,
        _sim_repeat(_gate_static_hit),
        _sim_counts,
    ),
    Workload(
        "fanin-thrash-learn",
        "40 bases over 32 identifiers: control plane installs/evicts all trace "
        "long over a lossy control link; encoder miss path",
        _prepare_fanin_thrash_learn,
        _sim_repeat(_gate_learns),
        _sim_counts,
    ),
    Workload(
        "dns-lossy-multihop",
        "Zipf DNS over three lossy, reordering, queue-limited hops: link model, "
        "exact flow accounting and integrity matching dominate",
        _prepare_dns_lossy_multihop,
        _sim_repeat(_gate_lossy),
        _sim_counts,
    ),
    Workload(
        "codec-stream-file",
        "no simulator: the streaming gd codec compresses then restores a buffer "
        "whose working set it cannot pin; bypass for event-kernel changes",
        _prepare_codec_stream_file,
        _codec_repeat,
        _codec_counts,
    ),
)
