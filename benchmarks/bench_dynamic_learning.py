"""Section 7 "Dynamic learning": the (1.77 ± 0.08) ms basis-learning delay.

The paper repeatedly sends the same packet as fast as possible and measures
the time between the arrival of the first type-2 packet and the first
type-3 packet at the destination — the window during which an unknown basis
stays uncompressed while the control plane allocates an identifier and
installs the two table entries.

The reproduction runs the same experiment through the ``paper-testbed``
topology ten times (with latency jitter re-seeded per repetition, as
independent runs would be) and reports the mean and 95 % confidence interval
next to the paper's value.  The benchmarked operation is one complete run.
"""

import pytest

from repro.analysis.reporting import ComparisonRow, comparison_table, save_results_json
from repro.analysis.statistics import summarize
from repro.replay import ChunkTraceSource, RecordedPacing
from repro.topology import TopologyEngine, paper_testbed_topology
from repro.workloads import ChunkTrace, SyntheticSensorWorkload

from benchmarks.conftest import RESULTS_DIR, emit_result

PAPER_LEARNING_MS = 1.77
PAPER_LEARNING_CI_MS = 0.08

#: Packets sent per run; at 1 Mpkt/s this spans 4 ms, comfortably covering
#: the expected learning window.
PACKETS_PER_RUN = 4000
REPLAY_RATE_PPS = 1.0e6


def _same_chunk_run(seed: int):
    """Replay one chunk ``PACKETS_PER_RUN`` times through the testbed."""
    chunk = SyntheticSensorWorkload(num_chunks=1, distinct_bases=1, seed=seed).chunks()[0]
    trace = ChunkTrace([chunk] * PACKETS_PER_RUN)
    source = (ChunkTraceSource(trace, recorded_rate=REPLAY_RATE_PPS), RecordedPacing())
    engine = TopologyEngine(paper_testbed_topology(seed=seed))
    return engine.run(sources={"flow0": source})


def _one_run(seed: int) -> float:
    """One repetition: replay the same chunk repeatedly, measure the gap."""
    learning_time = _same_chunk_run(seed).learning_time
    assert learning_time is not None, "no compressed packet was ever produced"
    return learning_time * 1e3  # milliseconds


def test_dynamic_learning_delay(benchmark):
    """Measure the learning delay ten times and compare with the paper."""
    samples = [_one_run(seed) for seed in range(10)]
    summary = summarize(samples)

    table = comparison_table(
        [
            ComparisonRow("learning delay mean", PAPER_LEARNING_MS, summary.mean, "ms"),
            ComparisonRow("95 % CI half-width", PAPER_LEARNING_CI_MS, summary.ci95, "ms"),
        ],
        title='Section 7 "Dynamic learning" — time to record and apply a basis-ID pair',
    )
    emit_result("dynamic_learning", table + f"\n\nsamples [ms]: {[round(s, 3) for s in samples]}")
    save_results_json(
        RESULTS_DIR / "dynamic_learning.json",
        {"samples_ms": samples, **summary.as_dict()},
    )

    # Benchmark one complete run of the experiment.
    benchmark(_one_run, 99)

    assert summary.mean == pytest.approx(PAPER_LEARNING_MS, abs=0.2)
    assert summary.ci95 < 0.2


def test_uncompressed_packets_during_learning_window(benchmark):
    """Packets sharing the unknown basis stay type 2 until the install lands."""

    def run_and_count():
        report = _same_chunk_run(5)
        return (
            report.metrics.counter("wire.uncompressed_packets"),
            report.metrics.counter("wire.compressed_packets"),
        )

    uncompressed, compressed = benchmark(run_and_count)
    # ~1.77 ms at 1 Mpkt/s -> roughly 1,770 uncompressed packets, the rest
    # compressed; assert the order of magnitude, not the exact count.
    assert 1000 < uncompressed < 2600
    assert compressed == PACKETS_PER_RUN - uncompressed
