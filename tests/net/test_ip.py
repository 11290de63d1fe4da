"""Tests for the minimal IPv4/UDP builders."""

import pytest

from repro.exceptions import PacketError
from repro.net.checksum import internet_checksum
from repro.net.ip import (
    IPV4_HEADER_BYTES,
    Ipv4Header,
    UdpHeader,
    build_udp_packet,
    ipv4_address_to_bytes,
    ipv4_address_to_str,
)


class TestAddresses:
    def test_roundtrip(self):
        assert ipv4_address_to_bytes("10.1.1.53") == b"\x0a\x01\x01\x35"
        assert ipv4_address_to_str(b"\x0a\x01\x01\x35") == "10.1.1.53"

    def test_invalid(self):
        with pytest.raises(PacketError):
            ipv4_address_to_bytes("10.1.1")
        with pytest.raises(PacketError):
            ipv4_address_to_bytes("10.1.1.300")
        with pytest.raises(PacketError):
            ipv4_address_to_bytes("a.b.c.d")
        with pytest.raises(PacketError):
            ipv4_address_to_str(b"\x01\x02")


class TestIpv4Header:
    def test_serialise_and_parse(self):
        header = Ipv4Header(source="10.0.0.1", destination="10.1.1.53", payload_length=20)
        raw = header.to_bytes()
        assert len(raw) == IPV4_HEADER_BYTES
        parsed, payload = Ipv4Header.from_bytes(raw + b"\x00" * 20)
        assert parsed.source == "10.0.0.1"
        assert parsed.destination == "10.1.1.53"
        assert parsed.payload_length == 20
        assert payload == b"\x00" * 20

    def test_header_checksum_validates(self):
        raw = Ipv4Header("10.0.0.1", "10.1.1.53", payload_length=8).to_bytes()
        assert internet_checksum(raw) == 0

    def test_invalid_lengths(self):
        with pytest.raises(PacketError):
            Ipv4Header("10.0.0.1", "10.0.0.2", payload_length=0x10000).to_bytes()
        with pytest.raises(PacketError):
            Ipv4Header.from_bytes(b"\x45" + b"\x00" * 10)

    def test_rejects_non_ipv4(self):
        raw = bytearray(Ipv4Header("10.0.0.1", "10.0.0.2", payload_length=0).to_bytes())
        raw[0] = 0x65  # version 6
        with pytest.raises(PacketError):
            Ipv4Header.from_bytes(bytes(raw))


class TestUdp:
    def test_build_and_parse_packet(self):
        payload = b"dns-query-bytes"
        packet = build_udp_packet("10.0.0.1", "10.1.1.53", 40000, 53, payload)
        ipv4, datagram = Ipv4Header.from_bytes(packet)
        udp, parsed_payload = UdpHeader.from_bytes(datagram)
        assert ipv4.destination == "10.1.1.53"
        assert udp.destination_port == 53
        assert udp.source_port == 40000
        assert parsed_payload == payload

    def test_udp_checksum_nonzero(self):
        packet = build_udp_packet("10.0.0.1", "10.1.1.53", 1234, 53, b"abc")
        _, udp_start = Ipv4Header.from_bytes(packet)
        checksum = int.from_bytes(udp_start[6:8], "big")
        assert checksum != 0

    def test_payload_length_mismatch(self):
        header = UdpHeader(source_port=1, destination_port=2, payload_length=4)
        with pytest.raises(PacketError):
            header.to_bytes("10.0.0.1", "10.0.0.2", b"xyz")

    def test_truncated_udp(self):
        with pytest.raises(PacketError):
            UdpHeader.from_bytes(b"\x00\x01")
