"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's figures and quantify the trade-offs the paper
discusses qualitatively:

* the Hamming order ``m`` (the paper fixes m = 8 for byte alignment):
  compression ratio and per-chunk cost as ``m`` varies;
* the identifier width ``t`` (the paper fixes t = 15): dictionary reach vs
  per-packet overhead, including what happens when the dictionary is too
  small for the working set;
* the dictionary eviction policy (LRU vs FIFO vs random);
* the byte-alignment padding (the paper's 3 % no-table overhead and the
  8 padding bits it reckons an expert could remove);
* classic exact deduplication vs GD on noisy sensor data.
"""

from typing import List

from repro import registry
from repro.analysis.reporting import format_table, save_results_json
from repro.core.codec import GDCodec
from repro.core.dictionary import EvictionPolicy
from repro.core.engine import compress_bytes
from repro.workloads import SyntheticSensorWorkload

from benchmarks.conftest import RESULTS_DIR, emit_result


def _workload(num_chunks=20_000, distinct_bases=32, seed=2020, **kwargs):
    return SyntheticSensorWorkload(
        num_chunks=num_chunks, distinct_bases=distinct_bases, seed=seed, **kwargs
    )


def test_ablation_hamming_order(benchmark):
    """Compression ratio and chunk size as the Hamming order m varies."""
    rows: List[List[object]] = []
    results = {}
    # Orders below 6 leave no room for the structured sensor frame inside a
    # chunk (2–4 bytes), so the sweep starts at m = 6.
    orders = (6, 8, 10, 12)
    for order in orders:
        codec = GDCodec(order=order, identifier_bits=15, alignment_padding_bits=8)
        workload = SyntheticSensorWorkload(
            num_chunks=4_000, distinct_bases=32, order=order, seed=3
        )
        data = b"".join(workload.chunks())
        static = GDCodec(
            order=order,
            identifier_bits=15,
            mode="static",
            static_bases=workload.bases(),
            alignment_padding_bits=8,
        )
        ratio = static.compress(data).compression_ratio
        rows.append(
            [
                order,
                codec.transform.chunk_bytes,
                codec.transform.basis_bits,
                f"{ratio:.4f}",
            ]
        )
        results[order] = ratio
    emit_result(
        "ablation_hamming_order",
        format_table(
            ["order m", "chunk bytes", "basis bits", "static ratio"],
            rows,
            title="Ablation — Hamming order vs compression ratio (static table)",
        ),
    )
    save_results_json(RESULTS_DIR / "ablation_hamming_order.json", results)

    # Larger chunks amortise the identifier+syndrome better: the ratio must
    # improve monotonically with m.
    ordered = [results[order] for order in orders]
    assert all(earlier > later for earlier, later in zip(ordered, ordered[1:]))

    # Benchmark the paper's configuration encode path at this scale.
    workload = _workload(num_chunks=5_000)
    data = b"".join(workload.chunks())

    def encode():
        return GDCodec(order=8, identifier_bits=15).compress(data).compression_ratio

    benchmark(encode)


def test_ablation_identifier_width(benchmark):
    """Identifier width sweep: per-packet overhead vs dictionary reach."""
    workload = _workload(num_chunks=10_000, distinct_bases=600)
    chunks = workload.chunks()
    data = b"".join(chunks)
    rows = []
    ratios = {}
    hit_fractions = {}
    for identifier_bits in (7, 9, 11, 15, 23):
        codec = GDCodec(
            order=8, identifier_bits=identifier_bits, alignment_padding_bits=8
        )
        result = codec.compress(data)
        capacity = 1 << identifier_bits
        rows.append(
            [
                identifier_bits,
                capacity,
                "yes" if capacity >= 600 else "no",
                f"{result.compressed_record_fraction:.3f}",
                f"{result.compression_ratio:.4f}",
            ]
        )
        ratios[identifier_bits] = result.compression_ratio
        hit_fractions[identifier_bits] = result.compressed_record_fraction
    emit_result(
        "ablation_identifier_width",
        format_table(
            ["identifier bits", "dictionary capacity", "holds working set",
             "fraction compressed", "dynamic ratio"],
            rows,
            title="Ablation — identifier width vs compression (600 distinct bases)",
        ),
    )
    save_results_json(
        RESULTS_DIR / "ablation_identifier_width.json",
        {"ratio": ratios, "compressed_fraction": hit_fractions},
    )

    # A dictionary smaller than the working set (7/9 bits) thrashes: fewer
    # chunks get compressed than with the paper's 15-bit configuration.  The
    # byte ratio is a trade-off (smaller identifiers also shrink the
    # compressed packets), which is exactly what this table documents.
    assert hit_fractions[7] < hit_fractions[15]
    # A 512-entry dictionary barely thrashes on a 600-basis working set with
    # bursty traffic; it must never do better than the full-size dictionary.
    assert hit_fractions[9] <= hit_fractions[15]
    # Wider identifiers than needed only add per-packet bits.
    assert ratios[23] > ratios[15] - 1e-9

    benchmark(lambda: GDCodec(order=8, identifier_bits=15).compress(data).compression_ratio)


def test_ablation_eviction_policy(benchmark):
    """LRU vs FIFO vs random recycling under dictionary pressure."""
    workload = _workload(num_chunks=10_000, distinct_bases=500, locality=0.95)
    data = b"".join(workload.chunks())
    rows = []
    results = {}
    for policy in (EvictionPolicy.LRU, EvictionPolicy.FIFO, EvictionPolicy.RANDOM):
        codec = GDCodec(
            order=8,
            identifier_bits=8,  # 256 entries: forced recycling
            eviction_policy=policy,
            alignment_padding_bits=8,
            eviction_seed=2020,  # random policy: reproducible run to run
        )
        ratio = codec.compress(data).compression_ratio
        rows.append([policy.value, f"{ratio:.4f}"])
        results[policy.value] = ratio
    emit_result(
        "ablation_eviction_policy",
        format_table(
            ["policy", "dynamic ratio (256-entry dictionary)"],
            rows,
            title="Ablation — eviction policy under dictionary pressure",
        ),
    )
    save_results_json(RESULTS_DIR / "ablation_eviction_policy.json", results)
    # With bursty sensor traffic LRU should not lose to FIFO by any margin
    # worth acting on; assert it is at least competitive.
    assert results["lru"] <= results["fifo"] + 0.02

    benchmark(
        lambda: GDCodec(order=8, identifier_bits=8).compress(data).compression_ratio
    )


def test_ablation_alignment_padding(benchmark):
    """The byte-alignment padding behind the paper's 3 % no-table overhead."""
    workload = _workload(num_chunks=5_000)
    data = b"".join(workload.chunks())
    rows = []
    results = {}
    for padding_bits in (0, 8):
        codec = GDCodec(order=8, mode="no_table", alignment_padding_bits=padding_bits)
        ratio = codec.compress(data).compression_ratio
        rows.append([padding_bits, f"{ratio:.4f}"])
        results[padding_bits] = ratio
    emit_result(
        "ablation_alignment_padding",
        format_table(
            ["type-2 padding bits", "no-table ratio"],
            rows,
            title="Ablation — container-alignment padding (the paper's 3 % overhead)",
        ),
    )
    save_results_json(
        RESULTS_DIR / "ablation_alignment_padding.json",
        {str(k): v for k, v in results.items()},
    )
    assert results[0] == 1.0
    assert 1.02 < results[8] < 1.04

    benchmark(
        lambda: GDCodec(order=8, mode="no_table", alignment_padding_bits=8)
        .compress(data)
        .compression_ratio
    )


def test_ablation_gd_vs_exact_dedup(benchmark):
    """GD vs classic deduplication on noisy sensor chunks."""
    workload = _workload(num_chunks=10_000, deviation_probability=0.9)
    chunks = workload.chunks()
    data = b"".join(chunks)
    gd = GDCodec(
        order=8,
        identifier_bits=15,
        mode="static",
        static_bases=workload.bases(),
        alignment_padding_bits=8,
    ).compress(data)

    def dedup_ratio():
        return len(compress_bytes(registry.get("dedup", identifier_bits=15), data)) / len(data)

    dedup = dedup_ratio()
    repeats = 1 - len(set(chunks)) / len(chunks)
    emit_result(
        "ablation_gd_vs_dedup",
        format_table(
            ["scheme", "ratio", "notes"],
            [
                ["generalized deduplication", f"{gd.compression_ratio:.4f}",
                 "matches chunks up to 1-bit deviations"],
                ["exact deduplication", f"{dedup:.4f}",
                 f"only {repeats:.0%} of chunks were exact repeats"],
            ],
            title="Ablation — GD vs classic deduplication on noisy sensor data",
        ),
    )
    save_results_json(
        RESULTS_DIR / "ablation_gd_vs_dedup.json",
        {"gd": gd.compression_ratio, "exact_dedup": dedup},
    )
    assert gd.compression_ratio < dedup

    benchmark(dedup_ratio)
