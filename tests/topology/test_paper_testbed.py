"""The paper's two-switch testbed: the ``paper-testbed`` preset through the
engine, fed the caller's chunk list at a recorded packet rate."""

import pytest

from repro.core.transform import GDTransform
from repro.exceptions import TopologyError
from repro.net.packets import PacketKind
from repro.replay import ChunkTraceSource, RecordedPacing
from repro.topology import TopologyEngine, paper_testbed_topology
from repro.workloads import ChunkTrace

from arrival_capture import capture_arrivals


@pytest.fixture(scope="module")
def shared_chunks(clustered_chunk_factory):
    transform = GDTransform(order=8)
    bases = [  # deterministic bases
        int.from_bytes(bytes([i + 1] * 31), "big") for i in range(4)
    ]
    chunks = clustered_chunk_factory(transform, bases, 600, seed=11)
    return bases, chunks


def run(chunks, packet_rate=1e6, static_bases=None, **params):
    """Replay ``chunks`` at ``packet_rate`` through the testbed; return the
    engine and its report."""
    engine, report, _ = run_received(chunks, packet_rate, static_bases, **params)
    return engine, report


def run_received(chunks, packet_rate=1e6, static_bases=None, **params):
    """:func:`run`, also returning the payloads the sink received, in
    arrival order."""
    engine = TopologyEngine(paper_testbed_topology(**params), static_bases=static_bases)
    arrivals = capture_arrivals(engine)
    source = ChunkTraceSource(ChunkTrace(chunks), recorded_rate=packet_rate)
    report = engine.run(sources={"flow0": (source, RecordedPacing())})
    return engine, report, [frame[14:] for _time, frame in arrivals]


class TestScenarios:
    def test_unknown_scenario_is_named(self):
        with pytest.raises(TopologyError, match="scenario"):
            paper_testbed_topology(scenario="bogus")

    def test_static_with_chunks_requires_bases(self, shared_chunks):
        _, chunks = shared_chunks
        with pytest.raises(TopologyError, match="explicit static_bases"):
            run(chunks[:10], scenario="static")

    def test_no_table_scenario(self, shared_chunks):
        _, chunks = shared_chunks
        _engine, report, received = run_received(chunks[:200], scenario="no_table")
        assert report.metrics.counter("wire.compressed_packets") == 0
        assert report.metrics.counter("wire.uncompressed_packets") == 200
        # 33-byte type-2 payloads over 32-byte chunks: the paper's 1.03.
        assert report.compression_ratio == pytest.approx(33 / 32)
        assert received == chunks[:200]

    def test_static_scenario_matches_paper_ratio(self, shared_chunks):
        bases, chunks = shared_chunks
        _engine, report, received = run_received(
            chunks[:200], scenario="static", static_bases=bases
        )
        assert report.metrics.counter("wire.uncompressed_packets") == 0
        assert report.metrics.counter("wire.compressed_packets") == 200
        assert report.compression_ratio == pytest.approx(3 / 32)
        assert received == chunks[:200]

    def test_dynamic_scenario_learns_and_stays_lossless(self, shared_chunks):
        _, chunks = shared_chunks
        # Replay slowly enough (6 ms for 600 chunks) that the ~1.77 ms
        # learning delay only covers the head of the trace.
        _engine, report, received = run_received(
            chunks, packet_rate=1e5, scenario="dynamic"
        )
        assert report.metrics.counter("wire.compressed_packets") > 0
        assert report.metrics.counter("wire.uncompressed_packets") > 0
        assert received == chunks
        # the ratio falls between the static optimum and the no-table bound
        assert 3 / 32 < report.compression_ratio < 33 / 32

    def test_dynamic_learning_time_close_to_paper(self, shared_chunks):
        _, chunks = shared_chunks
        # repeatedly send the same chunk, as the paper's experiment does
        _engine, report = run([chunks[0]] * 3000, scenario="dynamic", seed=1)
        assert report.learning_time is not None
        assert report.learning_time == pytest.approx(1.77e-3, rel=0.15)
        # Copies of the chunk stay type 2 for the ≈ 1.77 ms window (≈ 1,770
        # packets at 1 Mpkt/s); every later one is compressed.
        uncompressed = report.metrics.counter("wire.uncompressed_packets")
        assert 1000 < uncompressed < 2600
        assert report.metrics.counter("wire.compressed_packets") == 3000 - uncompressed


class TestPlumbing:
    def test_wrong_size_chunk_is_a_counted_parse_error(self):
        _engine, report = run([b"\x00" * 31], scenario="no_table")
        assert report.metrics.counter("encoder.parse_errors") == 1
        assert report.integrity.missing == 1
        assert report.integrity.corrupted == 0

    def test_link_tap_sees_every_inter_switch_frame(self, shared_chunks):
        _, chunks = shared_chunks
        engine, _report = run(chunks[:50], scenario="no_table")
        assert engine.measured_tap.total_frames() == 50
        kinds = engine.measured_tap.count_by_kind()
        assert kinds[PacketKind.PROCESSED_UNCOMPRESSED] == 50

    def test_learning_time_none_when_nothing_compressed(self, shared_chunks):
        _, chunks = shared_chunks
        _engine, report = run(chunks[:10], scenario="no_table")
        assert report.learning_time is None
