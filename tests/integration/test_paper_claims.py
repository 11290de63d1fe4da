"""Shape checks against the numbers reported in the paper.

These tests assert the *reproduced shape* of every quantitative claim in the
evaluation: who wins, by roughly what factor, and where the crossovers fall.
The GD pipeline, the workloads, the learning latency model and the byte
accounting have to land on the paper's figures when combined.  Figure 4 is
arithmetic over two named inputs (line rate, generator cap), so its tests
check that the values follow from those inputs and that the real programs
meet the line-rate precondition.  Figure 5 is read off the simulator with
the host/NIC cost as a calibrated input, so its tests check that each
program's own pipeline latency — and nothing else — reaches its RTT.
"""

import inspect

import pytest

from repro.analysis import figures
from repro.analysis.figures import (
    FIGURE4_FRAME_SIZES,
    HOST_NIC_ONE_WAY,
    PROGRAMS,
    figure4,
    figure5,
    figure5_programs,
)
from repro.analysis.statistics import summarize
from repro.baselines import GzipBaseline
from repro.core.codec import GDCodec
from repro.exceptions import ReproError
from repro.net.ethernet import frame_wire_bytes
from repro.replay import ChunkTraceSource, RecordedPacing
from repro.tofino.pipeline import DEFAULT_PIPELINE_LATENCY
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


@pytest.fixture(scope="module")
def processed_programs():
    """The three programs after each has processed its Figure 5 probe."""
    programs = figure5_programs()
    figure5(programs)
    return programs


class TestFigure4Shape:
    def test_throughput_series(self, processed_programs):
        rates = figure4(processed_programs)
        gbps = {key: rate * key[1] * 8 / 1e9 for key, rate in rates.items()}
        for name in PROGRAMS:
            assert [round(gbps[(name, size)], 3) for size in FIGURE4_FRAME_SIZES] == [
                3.584, 84.0, 99.734
            ]
            assert [
                round(rates[(name, size)] / 1e6, 3) for size in FIGURE4_FRAME_SIZES
            ] == [7.0, 7.0, 1.385]
        for size in FIGURE4_FRAME_SIZES:
            assert len({rates[(name, size)] for name in PROGRAMS}) == 1
        # The line-rate precondition, on programs that have forwarded frames.
        for name in ("encode", "decode"):
            program = processed_programs[name]
            assert program.pipeline.packets_processed > 0
            assert not program.pipeline.uses_forbidden_features

    def test_values_derive_from_the_two_inputs(self, monkeypatch, processed_programs):
        def expected(size):
            return min(
                figures.LINE_RATE_BPS / (frame_wire_bytes(size) * 8),
                figures.GENERATOR_PACKET_RATE,
            )

        for line_rate, generator in ((100e9, 7.0e6), (10e9, 7.0e6), (100e9, 1e9)):
            monkeypatch.setattr(figures, "LINE_RATE_BPS", line_rate)
            monkeypatch.setattr(figures, "GENERATOR_PACKET_RATE", generator)
            rates = figure4(processed_programs)
            assert rates == {
                (name, size): expected(size)
                for name in PROGRAMS
                for size in FIGURE4_FRAME_SIZES
            }
        # Without the generator cap, 64 B frames run at line rate (88 wire bytes).
        assert rates[("encode", 64)] == 100e9 / (88 * 8)

    def test_a_recirculating_program_is_refused(self):
        programs = figure5_programs()
        programs["decode"].pipeline.record_recirculation()
        with pytest.raises(ReproError, match="decode"):
            figure4(programs)

    @pytest.mark.parametrize("duplicated", PROGRAMS)
    def test_a_program_that_duplicated_is_refused(self, duplicated):
        programs = figure5_programs()
        programs[duplicated].pipeline.record_duplication()
        with pytest.raises(ReproError, match=duplicated):
            figure4(programs)

    @pytest.mark.parametrize(
        "size, binding", [(64, "generator"), (1500, "generator"), (9000, "line rate")]
    )
    def test_binding_input_per_frame_size(self, size, binding):
        line_rate_bound = figures.LINE_RATE_BPS / (frame_wire_bytes(size) * 8)
        rate = figures.packet_rate(size)
        if binding == "generator":
            assert line_rate_bound > figures.GENERATOR_PACKET_RATE
            assert rate == figures.GENERATOR_PACKET_RATE
        else:
            assert line_rate_bound < figures.GENERATOR_PACKET_RATE
            assert rate == line_rate_bound
            # Jumbo frames fill the link but for preamble, FCS and gap.
            assert 99e9 < rate * size * 8 < figures.LINE_RATE_BPS

    def test_line_rate_binds_from_1762_byte_frames(self):
        # 1762 B + 24 B of FCS, preamble and gap = 1786 wire bytes, the
        # first occupancy at which 100 Gbit/s carries under 7 Mpkt/s.
        assert figures.packet_rate(1761) == figures.GENERATOR_PACKET_RATE
        assert figures.packet_rate(1762) < figures.GENERATOR_PACKET_RATE
        assert frame_wire_bytes(1762) == 1786

    def test_uncapped_rates_are_the_100_gbe_packet_budgets(self, monkeypatch):
        monkeypatch.setattr(figures, "GENERATOR_PACKET_RATE", float("inf"))
        # ≈ 148.8 Mpkt/s for minimum-size frames, ≈ 8.1 Mpkt/s for 1514 B.
        assert figures.packet_rate(60) == pytest.approx(148.8e6, rel=0.01)
        assert figures.packet_rate(1514) == pytest.approx(8.12e6, rel=0.01)
        # A shorter frame is padded to the minimum and costs the same.
        assert figures.packet_rate(46) == figures.packet_rate(60)

    def test_rates_do_not_depend_on_what_the_programs_processed(
        self, processed_programs
    ):
        assert figure4(figure5_programs()) == figure4(processed_programs)

    def test_only_the_programs_passed_are_reported(self, processed_programs):
        rates = figure4({"encode": processed_programs["encode"]})
        assert set(rates) == {("encode", size) for size in FIGURE4_FRAME_SIZES}


class TestFigure5Shape:
    def test_latency_series(self):
        rtts = figure5()
        assert set(rtts) == set(PROGRAMS)
        assert len(set(rtts.values())) == 1
        # Two links at 100 Gbit/s and 0.5 µs around a 0.6 µs pipeline carry a
        # 60-byte-minimum frame one way in 1.61344 µs; the host adds 5 µs.
        assert rtts["encode"] == pytest.approx(2 * (1.61344e-6 + 5e-6), rel=1e-12)
        assert all(10e-6 <= rtt <= 15e-6 for rtt in rtts.values())

    def test_deterministic_and_takes_no_seed(self):
        assert list(inspect.signature(figure5).parameters) == ["programs"]
        assert figure5() == figure5()

    @pytest.mark.parametrize("slowed", PROGRAMS)
    def test_a_program_pipeline_latency_reaches_its_rtt(self, slowed):
        delta = 2.0 ** -20  # ≈ 0.95 µs, exact in binary
        baseline = figure5()
        programs = figure5_programs()
        programs[slowed]._latency += delta
        rtts = figure5(programs)
        for name in PROGRAMS:
            assert rtts[name] - baseline[name] == (2 * delta if name == slowed else 0.0)

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_one_way_time_is_wire_and_pipeline(self, name):
        # Every probe frame is padded to the 64-byte minimum: 84 wire bytes
        # on each of the two links, plus their propagation and one pipeline.
        one_way = figure5()[name] / 2 - HOST_NIC_ONE_WAY
        link = 84 * 8 / 100e9 + 0.5e-6
        assert one_way == pytest.approx(2 * link + DEFAULT_PIPELINE_LATENCY, rel=1e-12)

    def test_host_nic_cost_is_a_calibrated_input(self, monkeypatch):
        assert HOST_NIC_ONE_WAY == pytest.approx(1.5e-6 + 1.0e-6 + 1.0e-6 + 1.5e-6)
        baseline = figure5()
        monkeypatch.setattr(figures, "HOST_NIC_ONE_WAY", 0.0)
        simulated = figure5()
        for name in PROGRAMS:
            assert baseline[name] - simulated[name] == pytest.approx(
                2 * HOST_NIC_ONE_WAY, rel=1e-12
            )

    @pytest.mark.parametrize(
        "name, branch",
        [
            ("no_op", "passthrough_other"),
            ("encode", "raw_to_uncompressed"),
            ("decode", "uncompressed_to_raw"),
        ],
    )
    def test_each_probe_takes_its_program_branch(self, processed_programs, name, branch):
        program = processed_programs[name]
        assert program.pipeline.packets_processed == 1
        counts = {
            label: sample.packets for label, sample in program.counters.as_dict().items()
        }
        assert counts == {label: int(label == branch) for label in counts}
