#!/usr/bin/env python3
"""Replay a pcap trace through an emulated ZipLine topology.

The tour of :mod:`repro.replay` — sources, pacing, emulated links and the
report — as the topology engine runs it:

1. generate a sensor-like chunk trace and persist it as a standard pcap
   (nanosecond resolution — readable by tcpdump/Wireshark);
2. describe ``source → encoder → emulated link → decoder → sink`` as a
   ``linear_topology`` spec whose flow replays the pcap, run it with
   dynamic dictionary learning, and verify every delivered payload is
   byte-identical to what was sent;
3. rerun over a *lossy* link (seeded, fully reproducible) and observe the
   counted failure mode: chunks go missing, nothing gets corrupted;
4. print the metrics report: compression on the wire, latency percentiles,
   per-component counters.

The same experiment is one shell command::

    repro generate-trace synthetic trace.pcap --chunks 4000 --bases 8
    repro replay --trace trace.pcap --topology encoder-link-decoder

Run with::

    python examples/replay_trace.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.topology import TopologyEngine, linear_topology
from repro.workloads import SyntheticSensorWorkload


def main() -> None:
    workload = SyntheticSensorWorkload(num_chunks=4_000, distinct_bases=8, seed=42)
    trace = workload.trace()

    with tempfile.TemporaryDirectory() as tmp:
        pcap_path = Path(tmp) / "sensor_trace.pcap"
        # Nanosecond-resolution pcap: 1 Mpkt/s spacing survives the round trip.
        trace.to_pcap(pcap_path, packet_rate=1e6, nanosecond=True)
        print(f"wrote {len(trace):,} chunk packets to {pcap_path.name}\n")

        # -- loss-free replay with dynamic learning, at 1 Mpkt/s --------------
        spec = linear_topology(trace=str(pcap_path), scenario="dynamic")
        report = TopologyEngine(spec).run()
        assert report.integrity.lossless_in_order, "loss-free replay must be exact"
        print(report.render(include_counters=False))

        # -- the same trace over a 2 %-loss link ------------------------------
        lossy = linear_topology(
            trace=str(pcap_path), scenario="dynamic", loss=0.02, link_seed=7
        )
        lossy_report = TopologyEngine(lossy).run()
        integrity = lossy_report.integrity
        assert integrity.intact, "loss must never corrupt delivered chunks"
        print(
            f"\nlossy link: {integrity.missing} of {integrity.sent} chunks lost "
            f"(= {lossy_report.metrics.counter('link0.dropped_loss'):.0f} link "
            f"drops), 0 corrupted — a counted failure mode, not silent damage"
        )


if __name__ == "__main__":
    main()
