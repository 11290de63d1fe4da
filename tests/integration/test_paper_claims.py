"""Shape checks against the numbers reported in the paper.

These tests assert the *reproduced shape* of every quantitative claim in the
evaluation: who wins, by roughly what factor, and where the crossovers fall.
Absolute hardware numbers (100 Gbit/s, microsecond RTTs) come from the
analytical models, so they match by construction — what is genuinely checked
here is that the GD pipeline, the workloads, the learning latency model and
the byte accounting land on the paper's figures when combined.
"""

import pytest

from repro.analysis.statistics import summarize
from repro.baselines import GzipBaseline
from repro.core.codec import GDCodec
from repro.perfmodel import LatencyModel, ThroughputModel
from repro.replay import ChunkTraceSource, RecordedPacing
from repro.topology import TopologyEngine, paper_testbed_topology
from repro.workloads import ChunkTrace, DnsQueryWorkload, SyntheticSensorWorkload

# Paper values (Figure 3 annotations and Section 7 text).
PAPER_NO_TABLE_RATIO = 1.03
PAPER_STATIC_RATIO = 0.09
PAPER_DYNAMIC_RATIO_SYNTHETIC = 0.11
PAPER_DYNAMIC_RATIO_DNS = 0.10
PAPER_GZIP_RATIO_SYNTHETIC = 0.09
PAPER_GZIP_RATIO_DNS = 0.08
PAPER_LEARNING_DELAY_MS = 1.77


@pytest.fixture(scope="module")
def synthetic_workload():
    return SyntheticSensorWorkload.paper_configuration(num_chunks=4000)


class TestFigure3Synthetic:
    def test_no_table_overhead(self, synthetic_workload):
        codec = GDCodec(order=8, mode="no_table", alignment_padding_bits=8)
        ratio = codec.compress(b"".join(synthetic_workload.chunks())).compression_ratio
        assert ratio == pytest.approx(PAPER_NO_TABLE_RATIO, abs=0.01)

    def test_static_table_ratio(self, synthetic_workload):
        codec = GDCodec(
            order=8, mode="static", static_bases=synthetic_workload.bases(),
            alignment_padding_bits=8,
        )
        ratio = codec.compress(b"".join(synthetic_workload.chunks())).compression_ratio
        assert ratio == pytest.approx(PAPER_STATIC_RATIO, abs=0.01)

    def test_gzip_ratio_is_comparable_to_zipline(self, synthetic_workload):
        gzip_ratio = GzipBaseline().compress_chunks(
            synthetic_workload.chunks()
        ).compression_ratio
        assert gzip_ratio == pytest.approx(PAPER_GZIP_RATIO_SYNTHETIC, abs=0.05)

    def test_dynamic_sits_between_static_and_no_table(self):
        # Scaled-down replay preserving the paper's time structure: the trace
        # duration equals the paper's (3.124 M chunks at 7 Mpkt/s ≈ 446 ms)
        # and the basis-discovery phase occupies the same fraction of it, so
        # the dynamic-learning penalty lands near the paper's 0.11.
        spec = paper_testbed_topology(
            scenario="dynamic", chunks=20_000, bases=16, flow_seed=2020,
            packet_rate=20_000 / 0.446,
        )
        ratio = TopologyEngine(spec).run().compression_ratio
        assert ratio == pytest.approx(PAPER_DYNAMIC_RATIO_SYNTHETIC, abs=0.03)
        assert ratio > 3 / 32  # strictly worse than static
        assert ratio < PAPER_NO_TABLE_RATIO


class TestFigure3Dns:
    def test_dns_dynamic_and_gzip_shapes(self):
        workload = DnsQueryWorkload(num_queries=30_000, distinct_names=300, seed=11)
        chunks = workload.chunks()
        gzip_ratio = GzipBaseline().compress_chunks(chunks).compression_ratio
        codec = GDCodec(order=8, identifier_bits=15, alignment_padding_bits=8)
        gd_ratio = codec.compress(b"".join(chunks)).compression_ratio
        # gzip is slightly better than ZipLine on DNS (0.08 vs 0.10), and
        # both sit far below 1.
        assert gd_ratio == pytest.approx(PAPER_DYNAMIC_RATIO_DNS, abs=0.03)
        assert gzip_ratio < gd_ratio
        assert gzip_ratio == pytest.approx(PAPER_GZIP_RATIO_DNS, abs=0.03)


class TestDynamicLearningDelay:
    def test_learning_delay_mean_and_ci(self):
        samples = []
        for repetition in range(10):
            chunk = SyntheticSensorWorkload(
                num_chunks=1, distinct_bases=1, seed=repetition
            ).chunks()[0]
            # The same packet sent over and over at 1 Mpkt/s.
            source = (ChunkTraceSource(ChunkTrace([chunk] * 4000)), RecordedPacing())
            engine = TopologyEngine(paper_testbed_topology(seed=repetition))
            learning = engine.run(sources={"flow0": source}).learning_time
            assert learning is not None
            samples.append(learning * 1e3)
        summary = summarize(samples)
        # Paper: (1.77 ± 0.08) ms.
        assert summary.mean == pytest.approx(PAPER_LEARNING_DELAY_MS, abs=0.15)
        assert summary.ci95 < 0.15


class TestFigure4Shape:
    def test_throughput_series(self):
        samples = ThroughputModel().figure4()
        by_key = {(s.operation, s.frame_bytes): s for s in samples}
        # encode == decode == no_op for every size (the headline claim)
        for size in (64, 1500, 9000):
            values = {
                by_key[(operation, size)].throughput_gbps
                for operation in ("no_op", "encode", "decode")
            }
            assert len(values) == 1
        # 64/1500 B generator-bound at ~7 Mpkt/s, jumbo frames at line rate
        assert by_key[("encode", 64)].packet_rate_mpps == pytest.approx(7.0, rel=0.01)
        assert by_key[("encode", 1500)].packet_rate_mpps == pytest.approx(7.0, rel=0.01)
        assert by_key[("encode", 64)].throughput_gbps < 5
        assert 80 < by_key[("encode", 1500)].throughput_gbps < 90
        assert by_key[("encode", 9000)].throughput_gbps > 99


class TestFigure5Shape:
    def test_latency_series(self):
        model = LatencyModel(seed=1)
        figure = model.figure5(count=10)
        means = {
            operation: summarize([s.rtt_us for s in samples]).mean
            for operation, samples in figure.items()
        }
        # all three operations land in the paper's 10–15 µs band and within
        # measurement noise of each other
        for value in means.values():
            assert 8 < value < 16
        spread = max(means.values()) - min(means.values())
        assert spread < 1.0
