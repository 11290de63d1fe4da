#!/usr/bin/env python3
"""Watching the control plane learn a basis, event by event.

The paper measures (1.77 ± 0.08) ms between the first *uncompressed*
(type-2) packet of an unknown basis and the first *compressed* (type-3)
packet — the time the control plane needs to receive the digest, pick an
identifier, install the reverse mapping on the decoding switch and finally
the forward mapping on the encoding switch.

This example sends a burst of identical chunks through the simulated
two-switch testbed (the ``paper-testbed`` topology), prints the
control-plane event timeline with timestamps, and repeats the measurement
ten times to report the mean ± 95 % confidence interval next to the paper's
number.

Run with::

    python examples/dynamic_learning_demo.py
"""

from __future__ import annotations

from repro.analysis.statistics import summarize
from repro.controlplane.events import (
    DecoderMappingInstalled,
    DigestReceived,
    EncoderMappingInstalled,
)
from repro.replay import ChunkTraceSource, RecordedPacing
from repro.topology import TopologyEngine, paper_testbed_topology
from repro.workloads import ChunkTrace, SyntheticSensorWorkload

PACKETS = 4_000
PACKET_RATE = 1.0e6  # packets per second


def one_measurement(seed: int, verbose: bool = False) -> float:
    """One run of the paper's experiment; returns the learning delay in ms."""
    chunk = SyntheticSensorWorkload(num_chunks=1, distinct_bases=1, seed=seed).chunks()[0]
    trace = ChunkTrace([chunk] * PACKETS)
    engine = TopologyEngine(paper_testbed_topology(seed=seed))
    report = engine.run(
        sources={
            "flow0": (ChunkTraceSource(trace, recorded_rate=PACKET_RATE), RecordedPacing())
        }
    )

    if verbose:
        control_plane = engine.control_planes["encoder"]
        # The *first* digest of each kind matters; later digests for the same
        # basis are ignored while the install is pending.
        digest = control_plane.events.of_type(DigestReceived)[0]
        decoder_install = control_plane.events.of_type(DecoderMappingInstalled)[0]
        encoder_install = control_plane.events.of_type(EncoderMappingInstalled)[0]
        wire = report.metrics.counter
        print("control-plane timeline (simulated time):")
        print(f"  t = 0.000 ms  first raw chunk enters the encoding switch")
        print(f"  t = {digest.time * 1e3:6.3f} ms  learn digest delivered to the control plane")
        print(f"  t = {decoder_install.time * 1e3:6.3f} ms  identifier → basis entry active in the decoder")
        print(f"  t = {encoder_install.time * 1e3:6.3f} ms  basis → identifier entry active in the encoder")
        print(
            f"  packets while learning: {wire('wire.uncompressed_packets'):,} stayed "
            f"uncompressed, {wire('wire.compressed_packets'):,} were compressed afterwards"
        )

    assert report.learning_time is not None
    return report.learning_time * 1e3


def main() -> None:
    print("single run, with the control-plane event timeline:\n")
    first = one_measurement(seed=0, verbose=True)
    print(f"\nmeasured learning delay: {first:.3f} ms\n")

    print("repeating the measurement 10 times (as the paper does)...")
    samples = [one_measurement(seed=seed) for seed in range(1, 11)]
    summary = summarize(samples)
    print(f"reproduced: {summary.format('ms', precision=3)}")
    print("paper:      (1.77 ± 0.08) ms")
    print()
    print(
        "Every packet that shares the basis and arrives inside this window is\n"
        "forwarded as a type-2 packet — that is exactly the gap between the\n"
        "static-table (0.09) and dynamic-learning (0.11) bars of Figure 3."
    )


if __name__ == "__main__":
    main()
