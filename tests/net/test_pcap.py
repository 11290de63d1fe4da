"""Tests for the pcap reader/writer."""

import io
import struct

import pytest

from repro.exceptions import TraceError
from repro.net.pcap import PcapPacket, PcapReader, PcapWriter, write_pcap


def read_pcap(path):
    with PcapReader(path) as reader:
        return list(reader)


def sample_packets():
    return [
        PcapPacket(timestamp=0.0, data=b"\x01" * 60),
        PcapPacket(timestamp=0.000123, data=b"\x02" * 64),
        PcapPacket(timestamp=1.5, data=b"\x03" * 1514),
    ]


class TestRoundTrip:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.pcap"
        count = write_pcap(path, sample_packets())
        assert count == 3
        packets = read_pcap(path)
        assert len(packets) == 3
        assert packets[0].data == b"\x01" * 60
        assert packets[1].timestamp == pytest.approx(0.000123, abs=1e-6)
        assert len(packets[2].data) == 1514

    def test_stream_roundtrip(self):
        buffer = io.BytesIO()
        with PcapWriter(buffer) as writer:
            assert writer.write_packets(sample_packets()) == 3
        buffer.seek(0)
        with PcapReader(buffer) as reader:
            assert reader.link_type == 1
            assert len(list(reader)) == 3

    def test_snaplen_truncates(self, tmp_path):
        path = tmp_path / "snap.pcap"
        with PcapWriter(path, snaplen=16) as writer:
            writer.write(0.0, b"\xAA" * 100)
        packets = read_pcap(path)
        assert len(packets[0].data) == 16

    def test_big_endian_files_are_readable(self, tmp_path):
        path = tmp_path / "be.pcap"
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack(">IIII", 3, 500, 4, 4) + b"abcd"
        path.write_bytes(header + record)
        packets = read_pcap(path)
        assert packets[0].data == b"abcd"
        assert packets[0].timestamp == pytest.approx(3.0005)

    def test_nanosecond_magic(self, tmp_path):
        path = tmp_path / "ns.pcap"
        header = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1)
        record = struct.pack("<IIII", 1, 500_000_000, 2, 2) + b"hi"
        path.write_bytes(header + record)
        packets = read_pcap(path)
        assert packets[0].timestamp == pytest.approx(1.5)


class TestValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(TraceError):
            read_pcap(path)

    def test_truncated_global_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1")
        with pytest.raises(TraceError):
            read_pcap(path)

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        write_pcap(path, [PcapPacket(0.0, b"\x01" * 32)])
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(TraceError):
            read_pcap(path)

    def test_negative_timestamp_rejected(self, tmp_path):
        with PcapWriter(tmp_path / "x.pcap") as writer:
            with pytest.raises(TraceError):
                writer.write(-1.0, b"x")

    def test_invalid_snaplen(self, tmp_path):
        with pytest.raises(TraceError):
            PcapWriter(tmp_path / "y.pcap", snaplen=0)

    def test_microsecond_rounding_carry(self, tmp_path):
        path = tmp_path / "carry.pcap"
        with PcapWriter(path) as writer:
            writer.write(0.9999999, b"x")
        packets = read_pcap(path)
        assert packets[0].timestamp == pytest.approx(1.0, abs=1e-5)


class TestNanosecondFormat:
    def test_write_uses_nanosecond_magic(self, tmp_path):
        path = tmp_path / "nano.pcap"
        with PcapWriter(path, nanosecond=True) as writer:
            writer.write(0.0, b"x" * 60)
        (magic,) = struct.unpack("<I", path.read_bytes()[:4])
        assert magic == 0xA1B23C4D

    def test_round_trip_preserves_nanosecond_timestamps(self, tmp_path):
        path = tmp_path / "nano.pcap"
        # 1.5 us offsets collapse under microsecond quantisation but not
        # under nanosecond resolution.
        timestamps = [0.0, 1.5e-6, 123.000000789]
        with PcapWriter(path, nanosecond=True) as writer:
            for timestamp in timestamps:
                writer.write(timestamp, b"y" * 60)
        with PcapReader(path) as reader:
            read_back = [packet.timestamp for packet in reader]
        for expected, actual in zip(timestamps, read_back):
            assert actual == pytest.approx(expected, abs=1e-9)

    def test_microsecond_writer_quantises_where_nanosecond_does_not(self, tmp_path):
        fine = 0.000000250  # 250 ns
        nano_path = tmp_path / "n.pcap"
        micro_path = tmp_path / "u.pcap"
        with PcapWriter(nano_path, nanosecond=True) as writer:
            writer.write(fine, b"z" * 60)
        with PcapWriter(micro_path) as writer:
            writer.write(fine, b"z" * 60)
        assert read_pcap(nano_path)[0].timestamp == pytest.approx(fine, abs=1e-9)
        assert read_pcap(micro_path)[0].timestamp != pytest.approx(fine, abs=1e-9)

    def test_write_pcap_helper_forwards_nanosecond_flag(self, tmp_path):
        path = tmp_path / "helper.pcap"
        write_pcap(path, sample_packets(), nanosecond=True)
        assert struct.unpack("<I", path.read_bytes()[:4]) == (0xA1B23C4D,)
        with PcapReader(path) as reader:
            assert len(list(reader)) == 3

    def test_nanosecond_rounding_carry(self, tmp_path):
        path = tmp_path / "carry.pcap"
        with PcapWriter(path, nanosecond=True) as writer:
            writer.write(0.9999999999, b"x")
        packets = read_pcap(path)
        assert packets[0].timestamp == pytest.approx(1.0, abs=1e-9)
