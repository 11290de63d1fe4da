"""Tests for the trace container."""

import pytest

from repro.core.transform import GDTransform
from repro.exceptions import TraceError
from repro.replay.sources import PcapTraceSource
from repro.workloads.traces import ChunkTrace
from repro.zipline.headers import raw_chunk_payload


def _pcap_chunks(path):
    """The raw-chunk payloads of a capture, in capture order."""
    return [raw_chunk_payload(data) for _time, data in PcapTraceSource(path).frames()]


@pytest.fixture()
def trace():
    chunks = [bytes([i]) * 32 for i in range(10)] + [bytes([0]) * 32]
    return ChunkTrace(chunks, name="unit")


class TestConstruction:
    def test_basic_properties(self, trace):
        assert len(trace) == 11
        assert trace.chunk_bytes == 32
        assert trace.total_bytes == 11 * 32
        assert trace[0] == bytes(32)
        assert list(iter(trace))[1] == bytes([1]) * 32

    def test_rejects_empty_and_mixed_sizes(self):
        with pytest.raises(TraceError):
            ChunkTrace([])
        with pytest.raises(TraceError):
            ChunkTrace([b""])
        with pytest.raises(TraceError):
            ChunkTrace([b"\x00" * 32, b"\x00" * 16])


class TestStats:
    def test_distinct_counts(self, trace):
        stats = trace.stats()
        assert stats.chunks == 11
        assert stats.distinct_chunks == 10  # the zero chunk appears twice
        assert stats.distinct_bases is None

    def test_distinct_bases_with_transform(self, trace):
        transform = GDTransform(order=8)
        stats = trace.stats(transform)
        assert stats.distinct_bases == len(trace.distinct_bases(transform))
        assert stats.distinct_bases <= stats.distinct_chunks

    def test_distinct_bases_requires_matching_chunk_size(self):
        trace = ChunkTrace([b"\x00" * 16])
        with pytest.raises(TraceError):
            trace.distinct_bases(GDTransform(order=8))

    def test_stats_as_dict(self, trace):
        assert trace.stats().as_dict()["chunks"] == 11


class TestPcapRoundTrip:
    def test_to_and_from_pcap(self, trace, tmp_path):
        path = tmp_path / "trace.pcap"
        count = trace.to_pcap(path, packet_rate=1e6)
        assert count == len(trace)
        assert _pcap_chunks(path) == trace.chunks

    def test_frames_carry_the_raw_chunk_ethertype(self, trace):
        from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

        frames = trace.to_frames()
        assert all(frame.ethertype == ETHERTYPE_RAW_CHUNK for frame in frames)
        assert all(frame.payload_bytes == 32 for frame in frames)

    def test_invalid_pcap_rate(self, trace, tmp_path):
        with pytest.raises(TraceError):
            trace.to_pcap(tmp_path / "x.pcap", packet_rate=0)

    def test_nanosecond_pcap_preserves_replay_rate(self, trace, tmp_path):
        from repro.net.pcap import PcapReader

        path = tmp_path / "nano.pcap"
        trace.to_pcap(path, packet_rate=1e6, nanosecond=True)
        assert path.read_bytes()[:4] == (0xA1B23C4D).to_bytes(4, "little")
        with PcapReader(path) as reader:
            packets = list(reader)
        # 1 Mpkt/s spacing (1 us) survives exactly under nanosecond stamps.
        assert packets[1].timestamp - packets[0].timestamp == pytest.approx(
            1e-6, abs=1e-9
        )
        assert _pcap_chunks(path) == trace.chunks
