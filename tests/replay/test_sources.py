"""Tests for trace sources and pacing policies."""

import pytest

from repro.exceptions import PacketError, ReplayError
from repro.net.ethernet import EthernetFrame
from repro.net.mac import MacAddress
from repro.net.pcap import PcapPacket, write_pcap
from repro.replay import (
    BackToBackPacing,
    ChunkTraceSource,
    FixedRatePacing,
    PcapTraceSource,
    RecordedPacing,
    WorkloadTraceSource,
    pacing_from_name,
)
from repro.workloads import ChunkTrace, SyntheticSensorWorkload
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK


def times(pacing, recorded=(0.0, 0.0, 0.0), sizes=None):
    """The injection times ``pacing`` gives frames recorded at ``recorded``
    (of ``sizes`` bytes, 64 by default)."""
    sizes = sizes or [64] * len(recorded)
    paced = list(pacing.paced(zip(recorded, (bytes(size) for size in sizes))))
    assert [len(frame) for _at, frame in paced] == list(sizes)
    return [at for at, _frame in paced]


class TestRecordedPacing:
    def test_keeps_recorded_gaps(self):
        assert times(RecordedPacing(), [10.0, 10.5, 12.0]) == pytest.approx(
            [0.0, 0.5, 2.0]
        )
        assert times(RecordedPacing(), [10.0])[0] == 0.0

    def test_speedup_compresses_time(self):
        assert times(RecordedPacing(speedup=2.0), [0.0, 1.0])[1] == pytest.approx(0.5)

    def test_non_monotonic_timestamps_are_clamped(self):
        # The third frame goes backwards in the capture.
        _first, later, clamped = times(RecordedPacing(), [5.0, 6.0, 4.0])
        assert clamped == later

    def test_a_second_paced_call_starts_afresh(self):
        pacing = RecordedPacing()
        assert times(pacing, [100.0, 101.0]) == [0.0, 1.0]
        assert times(pacing, [200.0, 201.0]) == [0.0, 1.0]

    def test_rejects_bad_speedup(self):
        with pytest.raises(ReplayError):
            RecordedPacing(speedup=0.0)


def running_sum(start, steps):
    """The times a clock that adds each step to the time before reads."""
    out, at = [], start
    for step in steps:
        out.append(at)
        at = at + step
    return out


class TestFixedRatePacing:
    def test_packet_rate_spacing(self):
        assert times(FixedRatePacing(packet_rate=1000.0)) == pytest.approx(
            [0.0, 1e-3, 2e-3]
        )

    @pytest.mark.parametrize("start", [0, 0.0, 1.5, 1e-3])
    @pytest.mark.parametrize("rate", [1.0, 3.0, 1e5, 14_880_952.0])
    def test_times_are_the_running_sum_bit_for_bit(self, rate, start):
        frames = 3_000
        sizes = [64 + 7 * (index % 200) for index in range(frames)]
        pacing = FixedRatePacing(packet_rate=rate, start=start)
        got = times(pacing, [0.0] * frames, sizes)
        expected = running_sum(start, [1.0 / rate] * frames)
        assert got == expected
        assert [type(at) for at in got] == [type(at) for at in expected]

    def test_a_second_paced_call_starts_afresh(self):
        pacing = FixedRatePacing(packet_rate=2.0, start=1.0)
        assert times(pacing) == [1.0, 1.5, 2.0]
        assert times(pacing) == [1.0, 1.5, 2.0]

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_a_rate_that_is_not_positive_is_refused(self, rate):
        with pytest.raises(ReplayError, match="packet rate must be positive"):
            FixedRatePacing(packet_rate=rate)


class TestBackToBackPacing:
    def test_everything_at_start(self):
        assert times(BackToBackPacing(start=1.5), [0.0, 42.0], [64, 1500]) == [
            1.5,
            1.5,
        ]


class TestPacingFromName:
    @pytest.mark.parametrize("name,kind", [
        ("recorded", RecordedPacing),
        ("rate", FixedRatePacing),
        ("back-to-back", BackToBackPacing),
    ])
    def test_known_names(self, name, kind):
        assert isinstance(pacing_from_name(name), kind)

    def test_unknown_name(self):
        with pytest.raises(ReplayError):
            pacing_from_name("warp")


@pytest.fixture()
def small_trace():
    return SyntheticSensorWorkload(num_chunks=20, distinct_bases=3, seed=11).trace()


class TestChunkTraceSource:
    def test_frames_wrap_chunks(self, small_trace):
        source = ChunkTraceSource(small_trace)
        frames = list(source.frames())
        assert len(frames) == len(small_trace)
        _recorded_time, data = frames[0]
        parsed = EthernetFrame.from_bytes(data)
        assert parsed.ethertype == ETHERTYPE_RAW_CHUNK
        assert parsed.payload == small_trace[0]

    def test_restartable(self, small_trace):
        source = ChunkTraceSource(small_trace)
        assert list(source.frames()) == list(source.frames())

    def test_recorded_rate_must_be_positive(self, small_trace):
        with pytest.raises(ReplayError, match="recorded rate"):
            ChunkTraceSource(small_trace, recorded_rate=0)


class TestPcapTraceSource:
    def test_streams_recorded_timestamps(self, small_trace, tmp_path):
        path = tmp_path / "trace.pcap"
        small_trace.to_pcap(path, packet_rate=1000.0)
        source = PcapTraceSource(path)
        frames = list(source.frames())
        assert len(frames) == len(small_trace)
        recorded_time, _data = frames[1]
        assert recorded_time == pytest.approx(1e-3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReplayError):
            PcapTraceSource(tmp_path / "nope.pcap")

    def test_reads_any_frames_not_only_chunks(self, tmp_path):
        frame = EthernetFrame(
            destination="02:00:00:00:00:02",
            source="02:00:00:00:00:01",
            ethertype=0x0800,
            payload=b"x" * 40,
        )
        path = tmp_path / "other.pcap"
        write_pcap(path, [PcapPacket(timestamp=0.0, data=frame.to_bytes())])
        frames = list(PcapTraceSource(path).frames())
        assert len(frames) == 1


class TestWorkloadTraceSource:
    def test_streams_lazily_from_generator(self):
        workload = SyntheticSensorWorkload(num_chunks=50, distinct_bases=3, seed=4)
        source = WorkloadTraceSource(workload, num_chunks=10)
        frames = list(source.frames())
        assert len(frames) == 10
        _recorded_time, data = frames[0]
        assert EthernetFrame.from_bytes(data).payload == workload.chunks(10)[0]

    def test_requires_iter_chunks(self):
        with pytest.raises(ReplayError):
            WorkloadTraceSource(object())

    def test_frames_are_the_bytes_an_ethernet_frame_per_chunk_would_give(self):
        class Chunks:
            def iter_chunks(self):
                return iter([b"\x01" * 32, bytearray(b"\x02" * 32), b""])

        source_mac, sink_mac = MacAddress(0x02_00_00_01_00_07), MacAddress(9)
        source = WorkloadTraceSource(Chunks(), source=source_mac, destination=sink_mac)
        frames = [data for _recorded_time, data in source.frames()]
        assert frames == [
            EthernetFrame(
                destination=sink_mac, source=source_mac,
                ethertype=ETHERTYPE_RAW_CHUNK, payload=chunk,
            ).to_bytes()
            for chunk in Chunks().iter_chunks()
        ]
        assert all(type(frame) is bytes for frame in frames)

    def test_non_bytes_chunk_is_a_named_error(self):
        class Chunks:
            def iter_chunks(self):
                return iter([b"\x01" * 32, "not bytes"])

        frames = WorkloadTraceSource(Chunks()).frames()
        next(frames)
        with pytest.raises(PacketError, match="payload must be bytes, got str"):
            next(frames)
