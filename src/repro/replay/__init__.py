"""End-to-end trace replay and network emulation.

This package turns the repository's components (pcap I/O, the Tofino switch
model, the control plane, the discrete-event simulator, the link models)
into one experimentable system: stream a trace from a pcap file or workload
generator, pace it, push it through an emulated topology of ZipLine
switches and impaired links, and collect every counter into one report.

The run itself is :class:`~repro.topology.engine.TopologyEngine`'s: build
the chain as a spec and run it (``repro replay`` does exactly this)::

    from repro.topology import TopologyEngine, linear_topology

    spec = linear_topology(trace="trace.pcap", scenario="dynamic")
    report = TopologyEngine(spec).run()
    print(report.render())

A source a spec cannot name (an in-memory trace, a custom pacing) enters as
``run(sources={"flow0": (source, pacing)})``.
"""

from repro.replay.link import EmulatedLink, LinkStats
from repro.replay.metrics import Distribution, IntegrityResult, MetricsRegistry
from repro.replay.sources import (
    BackToBackPacing,
    ChunkTraceSource,
    FixedRatePacing,
    Pacing,
    PcapTraceSource,
    RecordedPacing,
    TraceSource,
    WorkloadTraceSource,
    pacing_from_name,
    stream_distinct_bases,
)

__all__ = [
    "EmulatedLink",
    "LinkStats",
    "Distribution",
    "IntegrityResult",
    "MetricsRegistry",
    "BackToBackPacing",
    "ChunkTraceSource",
    "FixedRatePacing",
    "Pacing",
    "PcapTraceSource",
    "RecordedPacing",
    "TraceSource",
    "WorkloadTraceSource",
    "pacing_from_name",
    "stream_distinct_bases",
]
