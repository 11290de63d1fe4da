"""Tests for the link tap and the report counters it feeds."""

from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.mac import MacAddress
from repro.net.packets import PacketKind
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK
from repro.replay.metrics import MetricsRegistry, collect_wire_metrics
from repro.zipline.stats import LinkTap

DST = MacAddress("02:00:00:00:00:02")
SRC = MacAddress("02:00:00:00:00:01")


def frame_bytes(ethertype, payload_len):
    return EthernetFrame(DST, SRC, ethertype, b"\x00" * payload_len).to_bytes()


class TestLinkTap:
    def test_classification_and_byte_accounting(self):
        tap = LinkTap()
        tap.observe(frame_bytes(EtherType.ZIPLINE_UNCOMPRESSED, 33), time=0.0)
        tap.observe(frame_bytes(EtherType.ZIPLINE_COMPRESSED, 3), time=0.001)
        tap.observe(frame_bytes(EtherType.ZIPLINE_COMPRESSED, 3), time=0.002)
        tap.observe(frame_bytes(ETHERTYPE_RAW_CHUNK, 32), time=0.003)
        counts = tap.count_by_kind()
        assert counts[PacketKind.PROCESSED_UNCOMPRESSED] == 1
        assert counts[PacketKind.PROCESSED_COMPRESSED] == 2
        assert counts[PacketKind.RAW] == 1
        assert tap.total_payload_bytes() == 33 + 3 + 3 + 32
        assert tap.total_frames() == 4
        by_kind = tap.payload_bytes_by_kind()
        assert by_kind[PacketKind.PROCESSED_COMPRESSED] == 6

    def test_first_time_of_kind(self):
        tap = LinkTap()
        tap.observe(frame_bytes(EtherType.ZIPLINE_UNCOMPRESSED, 33), time=0.5)
        tap.observe(frame_bytes(EtherType.ZIPLINE_COMPRESSED, 3), time=2.27)
        assert tap.first_time_of_kind(PacketKind.PROCESSED_UNCOMPRESSED) == 0.5
        assert tap.first_time_of_kind(PacketKind.PROCESSED_COMPRESSED) == 2.27
        assert tap.first_time_of_kind(PacketKind.RAW) is None


class TestWireMetrics:
    def test_tap_folds_into_the_reports_wire_counters(self):
        tap = LinkTap()
        tap.observe(frame_bytes(EtherType.ZIPLINE_UNCOMPRESSED, 33), time=0.0)
        tap.observe(frame_bytes(EtherType.ZIPLINE_COMPRESSED, 3), time=0.1)
        metrics = MetricsRegistry()
        collect_wire_metrics(metrics, tap)
        counters = metrics.as_dict()["counters"]
        assert counters == {
            "wire.raw_packets": 0,
            "wire.uncompressed_packets": 1,
            "wire.compressed_packets": 1,
            "wire.raw_payload_bytes": 0,
            "wire.uncompressed_payload_bytes": 33,
            "wire.compressed_payload_bytes": 3,
        }
        assert sum(
            value for name, value in counters.items() if name.endswith("payload_bytes")
        ) == tap.total_payload_bytes()
