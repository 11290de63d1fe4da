"""Tests for Ethernet framing and wire-size accounting."""

import pytest

from repro.exceptions import PacketError
from repro.net.checksum import ethernet_fcs
from repro.net.ethernet import (
    ETHERNET_MIN_FRAME_BYTES,
    EthernetFrame,
    EtherType,
    frame_wire_bytes,
)
from repro.net.mac import MacAddress

DST = MacAddress("02:00:00:00:00:02")
SRC = MacAddress("02:00:00:00:00:01")


class TestFrame:
    def test_serialise_parse_roundtrip(self):
        frame = EthernetFrame(DST, SRC, EtherType.IPV4, b"payload")
        parsed = EthernetFrame.from_bytes(frame.to_bytes())
        assert parsed == frame or (
            parsed.destination == frame.destination
            and parsed.source == frame.source
            and parsed.ethertype == frame.ethertype
            and parsed.payload == frame.payload
        )

    def test_sizes(self):
        frame = EthernetFrame(DST, SRC, EtherType.IPV4, b"\x00" * 32)
        assert frame.payload_bytes == 32
        assert len(frame.to_bytes()) == 46

    def test_minimum_frame_padding(self):
        frame = EthernetFrame(DST, SRC, EtherType.IPV4, b"x")
        padded = frame.to_bytes(pad=True)
        assert len(padded) == ETHERNET_MIN_FRAME_BYTES - 4  # FCS not included
        assert frame.to_bytes(pad=True, include_fcs=True)[-4:] != b"\x00\x00\x00\x00"

    def test_fcs_appended_and_consistent(self):
        frame = EthernetFrame(DST, SRC, EtherType.IPV4, b"data")
        raw = frame.to_bytes(include_fcs=True)
        assert int.from_bytes(raw[-4:], "big") == ethernet_fcs(raw[:-4])

    def test_parse_with_fcs_strips_it(self):
        frame = EthernetFrame(DST, SRC, EtherType.IPV4, b"data")
        parsed = EthernetFrame.from_bytes(frame.to_bytes(include_fcs=True), has_fcs=True)
        assert parsed.payload == b"data"

    def test_parse_too_short(self):
        with pytest.raises(PacketError):
            EthernetFrame.from_bytes(b"\x00" * 10)
        with pytest.raises(PacketError):
            EthernetFrame.from_bytes(b"\x00" * 17, has_fcs=True)

    def test_invalid_ethertype(self):
        with pytest.raises(PacketError):
            EthernetFrame(DST, SRC, 0x1_0000, b"")

    def test_invalid_payload_type(self):
        with pytest.raises(PacketError):
            EthernetFrame(DST, SRC, EtherType.IPV4, "not-bytes")

    def test_repr_names_ethertype(self):
        frame = EthernetFrame(DST, SRC, EtherType.ZIPLINE_UNCOMPRESSED, b"")
        assert "ZipLine/uncompressed" in repr(frame)


class TestWireAccounting:
    def test_wire_overhead(self):
        # Preamble, inter-frame gap and FCS on top of header and payload.
        assert frame_wire_bytes(1500) == 1500 + 8 + 12 + 4

    def test_minimum_size_enforced(self):
        # A 64-byte probe frame occupies 64 + 20 = 84 bytes of wire time.
        assert frame_wire_bytes(60) == 84
        assert frame_wire_bytes(10) == 84

    def test_standard_and_jumbo_sizes(self):
        assert frame_wire_bytes(1514) == 1514 + 4 + 8 + 12
        assert frame_wire_bytes(9014) == 9014 + 4 + 8 + 12

    def test_negative_size_rejected(self):
        with pytest.raises(PacketError):
            frame_wire_bytes(-1)

    def test_ethertype_names(self):
        assert EtherType.name(EtherType.IPV4) == "IPv4"
        assert EtherType.name(0x1234) == "0x1234"
