"""Tests for the checksum helpers."""

import pytest

from repro.net.checksum import ethernet_fcs, internet_checksum


class TestEthernetFcs:
    def test_known_crc32_check_value(self):
        assert ethernet_fcs(b"123456789") == 0xCBF43926

    def test_sensitive_to_single_bit_flip(self):
        frame = bytes(range(64))
        flipped = bytes([frame[0] ^ 0x01]) + frame[1:]
        assert ethernet_fcs(frame) != ethernet_fcs(flipped)


class TestInternetChecksum:
    def test_rfc1071_example(self):
        # Classic example from RFC 1071 / textbooks.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_checksum_of_zeroes(self):
        assert internet_checksum(b"\x00" * 8) == 0xFFFF

    def test_checksum_validates_to_zero(self):
        # Inserting the checksum into the data makes the sum 0xFFFF (i.e. the
        # complemented sum is zero), which is how IPv4 receivers verify it.
        data = bytearray(bytes.fromhex("450000300000000040110000c0a80001c0a800c7"))
        checksum = internet_checksum(bytes(data))
        data[10:12] = checksum.to_bytes(2, "big")
        assert internet_checksum(bytes(data)) == 0
