#!/usr/bin/env python3
"""Compressing campus DNS queries in the network, vs gzip.

The paper's real-world dataset is a day of DNS queries at a university
campus, filtered to the 34-byte queries addressed to the main resolver with
the random transaction identifier excluded — which leaves exactly one
256-bit chunk per query.  This example:

1. generates a statistically similar query stream (Zipf-skewed names, random
   transaction identifiers);
2. writes a pcap of the full Ethernet/IPv4/UDP/DNS packets, plus the
   filtered chunk trace, like the paper's preprocessing does;
3. compresses the chunk trace with ZipLine (dynamic learning) and with the
   registry's gzip codec, and prints the Figure 3 (right half) comparison;
4. shows why per-packet gzip is not an alternative for 32-byte payloads.

Run with::

    python examples/dns_compression.py [output-directory]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import registry
from repro.analysis.reporting import format_table
from repro.core.codec import GDCodec
from repro.core.engine import compress_bytes
from repro.net.pcap import PcapPacket, write_pcap
from repro.workloads import DnsQueryWorkload
from repro.workloads.dns import RESOLVER_IP

NUM_QUERIES = 20_000
DISTINCT_NAMES = 300


def main() -> None:
    output_directory = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    output_directory.mkdir(parents=True, exist_ok=True)

    workload = DnsQueryWorkload(
        num_queries=NUM_QUERIES, distinct_names=DISTINCT_NAMES, seed=2016
    )
    chunks = workload.chunks()
    print(
        f"DNS workload: {NUM_QUERIES:,} queries of 34 B "
        f"({workload.query_bytes() / 1e6:.2f} MB), {DISTINCT_NAMES} distinct names, "
        f"resolver {RESOLVER_IP}"
    )

    # Persist both views of the dataset, like the paper's tooling.
    full_pcap = output_directory / "dns_queries_full.pcap"
    write_pcap(
        full_pcap,
        (
            PcapPacket(timestamp=index * 1e-4, data=frame)
            for index, frame in enumerate(workload.packets(2_000))
        ),
    )
    chunk_pcap = output_directory / "dns_chunks.pcap"
    workload.trace().to_pcap(chunk_pcap, packet_rate=1e5)
    print(f"wrote {full_pcap} (raw capture sample) and {chunk_pcap} (filtered chunks)")

    # ZipLine, dynamic learning, with the paper's wire format overheads.
    codec = GDCodec(order=8, identifier_bits=15, alignment_padding_bits=8)
    zipline_result = codec.compress(b"".join(chunks))

    # gzip over the concatenated payloads (the paper's comparison) and per
    # packet (what an online gzip box would have to do).
    gzip = registry.get("gzip")
    original = len(chunks) * 32
    gzip_whole = len(compress_bytes(gzip, b"".join(chunks)))
    gzip_per_packet = sum(len(compress_bytes(gzip, chunk)) for chunk in chunks)

    rows = [
        ["Original data", f"{original / 1e6:.2f} MB", "1.000", "–"],
        [
            "ZipLine (dynamic learning)",
            f"{zipline_result.payload_bytes / 1e6:.2f} MB",
            f"{zipline_result.compression_ratio:.3f}",
            "0.10",
        ],
        [
            "gzip (whole trace)",
            f"{gzip_whole / 1e6:.2f} MB",
            f"{gzip_whole / original:.3f}",
            "0.08",
        ],
        [
            "gzip per packet",
            f"{gzip_per_packet / 1e6:.2f} MB",
            f"{gzip_per_packet / original:.3f}",
            "n/a",
        ],
    ]
    print()
    print(
        format_table(
            ["scheme", "bytes transmitted", "ratio", "paper"],
            rows,
            title="Figure 3 (DNS queries) — resulting payload size",
        )
    )
    print()
    print(
        "ZipLine compresses each query independently at line rate inside the\n"
        "switch; gzip needs the whole trace (and an end host) to do slightly\n"
        "better, and per-packet gzip is counter-productive at this size."
    )

    restored = codec.decompress_records(
        zipline_result.records, original_bytes=original
    )
    assert restored == b"".join(chunks)
    print("round trip: OK (bit exact)")


if __name__ == "__main__":
    main()
