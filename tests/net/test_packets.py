"""Tests for the ZipLine packet codec (wire formats of type 2/3 packets)."""

import pytest

from repro.core.records import CompressedRecord, RawRecord, UncompressedRecord
from repro.core.transform import GDTransform
from repro.core.wire import RecordLayout
from repro.exceptions import PacketError
from repro.net.ethernet import EtherType
from repro.net.mac import MacAddress
from repro.net.packets import ZipLinePacketCodec

from packet_oracle import pack_record, record_frame, unpack_compressed

DST = MacAddress("02:00:00:00:00:02")
SRC = MacAddress("02:00:00:00:00:01")


@pytest.fixture(scope="module")
def paper_codec():
    return ZipLinePacketCodec(GDTransform(order=8), identifier_bits=15)


@pytest.fixture(scope="module")
def small_codec():
    return ZipLinePacketCodec(GDTransform(order=4), identifier_bits=6)


class TestLayouts:
    def test_paper_payload_sizes(self, paper_codec):
        # 32-byte chunks, 33-byte type-2 payloads (3 % overhead) and 3-byte
        # type-3 payloads.
        layout = RecordLayout.for_packets(paper_codec.transform, 15)
        assert paper_codec.transform.chunk_bytes == 32
        assert paper_codec.uncompressed_payload_bytes == layout.t2_padded // 8 == 33
        assert layout.t3_padded // 8 == 3
        assert layout.padding_bits == 8

    def test_small_codec_layout_is_byte_aligned(self, small_codec):
        layout = RecordLayout.for_packets(small_codec.transform, 6)
        assert small_codec.uncompressed_payload_bytes * 8 == layout.t2_padded >= 16
        assert layout.t3_padded % 8 == 0 and layout.t3_padded >= 8

    def test_invalid_identifier_bits(self):
        with pytest.raises(PacketError):
            ZipLinePacketCodec(GDTransform(order=8), identifier_bits=0)


class TestPackUnpack:
    def test_uncompressed_roundtrip(self, paper_codec, rng):
        transform = paper_codec.transform
        chunk = rng.getrandbits(256).to_bytes(32, "big")
        parts = transform.split(chunk)
        record = UncompressedRecord(
            prefix=parts.prefix,
            basis=parts.basis,
            deviation=parts.deviation,
            prefix_bits=parts.prefix_bits,
            basis_bits=parts.basis_bits,
            deviation_bits=parts.deviation_bits,
            alignment_padding_bits=8,
        )
        payload = pack_record(paper_codec, record)
        assert len(payload) == 33
        unpacked = paper_codec.unpack_uncompressed(payload)
        assert unpacked.basis == record.basis
        assert unpacked.deviation == record.deviation
        assert unpacked.prefix == record.prefix

    def test_compressed_roundtrip(self, paper_codec):
        record = CompressedRecord(
            prefix=1,
            identifier=12345,
            deviation=0x5A,
            prefix_bits=1,
            identifier_bits=15,
            deviation_bits=8,
        )
        payload = pack_record(paper_codec, record)
        assert len(payload) == 3
        unpacked = unpack_compressed(paper_codec, payload)
        assert unpacked.identifier == 12345
        assert unpacked.deviation == 0x5A
        assert unpacked.prefix == 1

    def test_pack_rejects_raw_records(self, paper_codec):
        with pytest.raises(PacketError):
            pack_record(paper_codec, RawRecord(chunk=0, chunk_bits=256))

    def test_pack_rejects_mismatched_identifier_width(self, paper_codec):
        record = CompressedRecord(
            prefix=0, identifier=1, deviation=0,
            prefix_bits=1, identifier_bits=8, deviation_bits=8,
        )
        with pytest.raises(PacketError):
            pack_record(paper_codec, record)

    def test_unpack_wrong_length(self, paper_codec):
        with pytest.raises(PacketError):
            unpack_compressed(paper_codec, b"\x00" * 4)
        with pytest.raises(PacketError):
            paper_codec.unpack_uncompressed(b"\x00" * 32)


class TestFrames:
    def test_ethertype_follows_the_packet_type(self, paper_codec, rng):
        compressed = CompressedRecord(
            prefix=0, identifier=7, deviation=1,
            prefix_bits=1, identifier_bits=15, deviation_bits=8,
        )
        frame = record_frame(paper_codec, compressed, DST, SRC)
        assert frame.ethertype == EtherType.ZIPLINE_COMPRESSED
        assert unpack_compressed(paper_codec, frame.payload).identifier == 7
        parts = paper_codec.transform.split(rng.getrandbits(256).to_bytes(32, "big"))
        uncompressed = UncompressedRecord(
            prefix=parts.prefix, basis=parts.basis, deviation=parts.deviation,
            prefix_bits=parts.prefix_bits, basis_bits=parts.basis_bits,
            deviation_bits=parts.deviation_bits, alignment_padding_bits=8,
        )
        frame = record_frame(paper_codec, uncompressed, DST, SRC)
        assert frame.ethertype == EtherType.ZIPLINE_UNCOMPRESSED
        assert paper_codec.unpack_uncompressed(frame.payload) == uncompressed
