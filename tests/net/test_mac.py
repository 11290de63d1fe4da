"""Tests for the MAC address type."""

import pytest

from repro.exceptions import PacketError
from repro.net.mac import BROADCAST, ZERO, MacAddress


class TestConstruction:
    def test_from_string_colon_and_dash(self):
        assert bytes(MacAddress("02:00:00:00:00:01")) == b"\x02\x00\x00\x00\x00\x01"
        assert MacAddress("02-00-00-00-00-01") == MacAddress("02:00:00:00:00:01")

    def test_from_bytes_and_int(self):
        address = MacAddress(b"\x02\x00\x00\x00\x00\x01")
        assert MacAddress(int.from_bytes(bytes(address), "big")) == address
        assert MacAddress(address) == address

    def test_invalid_inputs(self):
        with pytest.raises(PacketError):
            MacAddress("02:00:00:00:00")
        with pytest.raises(PacketError):
            MacAddress("zz:00:00:00:00:01")
        with pytest.raises(PacketError):
            MacAddress(b"\x01\x02")
        with pytest.raises(PacketError):
            MacAddress(1 << 48)
        with pytest.raises(PacketError):
            MacAddress(3.5)


class TestProperties:
    def test_broadcast_and_zero(self):
        assert BROADCAST == "ff:ff:ff:ff:ff:ff"
        assert ZERO == "00:00:00:00:00:00"

    def test_string_rendering(self):
        assert str(MacAddress("02:AB:00:00:00:01")) == "02:ab:00:00:00:01"
        assert "02:ab" in repr(MacAddress("02:AB:00:00:00:01"))

    def test_equality_with_other_types(self):
        address = MacAddress("02:00:00:00:00:01")
        assert address == "02:00:00:00:00:01"
        assert address == b"\x02\x00\x00\x00\x00\x01"
        assert address != "garbage"
        assert (address == 42) is False or True  # NotImplemented falls back

    def test_hashable_for_table_keys(self):
        table = {MacAddress("02:00:00:00:00:01"): 3}
        assert table[MacAddress("02:00:00:00:00:01")] == 3

    def test_bytes_conversion(self):
        assert bytes(MacAddress("ff:ff:ff:ff:ff:ff")) == b"\xff" * 6
