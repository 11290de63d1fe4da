"""Tests for the P4 header layouts (``HeaderType``)."""

import pytest

from repro.exceptions import ConstraintViolation, ParserError
from repro.tofino.parser import HeaderType

ETHERNET = HeaderType("ethernet_h", [("dst", 48), ("src", 48), ("ether_type", 16)])
SMALL = HeaderType("small_h", [("flag", 1), ("value", 15)])


class TestHeaderType:
    def test_totals(self):
        assert ETHERNET.total_bytes == 14
        assert SMALL.total_bytes == 2
        assert ETHERNET.fields == (("dst", 48), ("src", 48), ("ether_type", 16))

    def test_must_be_byte_aligned(self):
        # The alignment rule is a Tofino constraint, surfaced as such.
        with pytest.raises(ConstraintViolation):
            HeaderType("bad", [("x", 3)])

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ParserError):
            HeaderType("bad", [("x", 8), ("x", 8)])

    def test_empty_rejected(self):
        with pytest.raises(ParserError):
            HeaderType("bad", [])
