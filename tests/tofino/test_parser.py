"""Tests for the P4-style parser/deparser machinery."""

import pytest

from repro.exceptions import ParserError
from repro.tofino.parser import (
    ACCEPT,
    Deparser,
    Header,
    HeaderType,
    Parser,
    ParserState,
)

ETHERNET = HeaderType("ethernet_h", [("dst", 48), ("src", 48), ("ether_type", 16)])
SMALL = HeaderType("small_h", [("flag", 1), ("value", 15)])


class TestHeaderType:
    def test_totals(self):
        assert ETHERNET.total_bits == 112
        assert ETHERNET.total_bytes == 14
        assert SMALL.total_bytes == 2

    def test_field_width_lookup(self):
        assert ETHERNET.field_width("ether_type") == 16
        with pytest.raises(ParserError):
            ETHERNET.field_width("missing")

    def test_must_be_byte_aligned(self):
        # The alignment rule is a Tofino constraint, surfaced as such.
        from repro.exceptions import ConstraintViolation

        with pytest.raises(ConstraintViolation):
            HeaderType("bad", [("x", 3)])

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ParserError):
            HeaderType("bad", [("x", 8), ("x", 8)])

    def test_empty_rejected(self):
        with pytest.raises(ParserError):
            HeaderType("bad", [])


class TestHeader:
    def test_field_width_enforced(self):
        header = Header(SMALL)
        header["flag"] = 1
        with pytest.raises(ParserError):
            header["flag"] = 2
        with pytest.raises(ParserError):
            header["missing"] = 1
        with pytest.raises(ParserError):
            _ = header["missing"]

    def test_bytes_roundtrip(self):
        header = Header(SMALL)
        header["flag"] = 1
        header["value"] = 0x1234
        header.valid = True
        data = header.to_bytes()
        assert len(data) == 2
        parsed = Header(SMALL)
        parsed.from_bytes(data)
        assert parsed.valid
        assert parsed["flag"] == 1
        assert parsed["value"] == 0x1234

    def test_from_bytes_length_check(self):
        header = Header(SMALL)
        with pytest.raises(ParserError):
            header.from_bytes(b"\x00")

    def test_repr(self):
        assert "invalid" in repr(Header(SMALL))
        header = Header(SMALL)
        header.valid = True
        assert "invalid" not in repr(header) and "valid" in repr(header)


def build_parser():
    return Parser(
        [
            ParserState(
                name="start",
                extract=("ethernet", ETHERNET),
                select_field=("ethernet", "ether_type"),
                transitions={0x1234: "parse_small"},
                default=ACCEPT,
            ),
            ParserState(name="parse_small", extract=("small", SMALL)),
        ]
    )


class TestParser:
    def test_parse_with_transition(self):
        frame = bytes(6) + bytes(6) + (0x1234).to_bytes(2, "big") + b"\x80\x05" + b"rest"
        packet = build_parser().parse(frame)
        assert packet.has_valid("ethernet")
        assert packet.has_valid("small")
        assert packet.header("small")["flag"] == 1
        assert packet.header("small")["value"] == 5
        assert packet.payload == b"rest"

    def test_default_transition_accepts(self):
        frame = bytes(6) + bytes(6) + (0x0800).to_bytes(2, "big") + b"payload"
        packet = build_parser().parse(frame)
        assert packet.has_valid("ethernet")
        assert not packet.has_valid("small")
        assert packet.payload == b"payload"

    def test_truncated_packet(self):
        parser = build_parser()
        with pytest.raises(ParserError):
            parser.parse(bytes(10))
        frame = bytes(6) + bytes(6) + (0x1234).to_bytes(2, "big") + b"\x80"
        with pytest.raises(ParserError):
            parser.parse(frame)
        assert parser.packets_parsed == 0

    def test_missing_header_access(self):
        frame = bytes(6) + bytes(6) + (0x0800).to_bytes(2, "big")
        packet = build_parser().parse(frame)
        with pytest.raises(ParserError):
            packet.header("small")

    def test_undefined_state_and_loops_detected(self):
        with pytest.raises(ParserError):
            Parser([ParserState(name="start", default="nowhere")]).parse(b"")
        looping = Parser(
            [
                ParserState(name="start", default="again"),
                ParserState(name="again", default="start"),
            ]
        )
        with pytest.raises(ParserError):
            looping.parse(b"")

    def test_start_state_must_exist(self):
        with pytest.raises(ParserError):
            Parser([ParserState(name="s0")], start="other")

    def test_parse_counter(self):
        parser = build_parser()
        frame = bytes(6) + bytes(6) + (0x0800).to_bytes(2, "big")
        parser.parse(frame)
        parser.parse(frame)
        assert parser.packets_parsed == 2


class TestDeparser:
    def test_emits_valid_headers_in_order(self):
        frame = bytes(6) + bytes(5) + b"\x01" + (0x1234).to_bytes(2, "big") + b"\x80\x05" + b"tail"
        packet = build_parser().parse(frame)
        out = Deparser(["ethernet", "small"]).emit(packet)
        assert out == frame

    def test_skips_invalid_headers(self):
        frame = bytes(6) + bytes(6) + (0x0800).to_bytes(2, "big") + b"tail"
        packet = build_parser().parse(frame)
        out = Deparser(["ethernet", "small"]).emit(packet)
        assert out == frame

    def test_header_rewrite_changes_output(self):
        frame = bytes(6) + bytes(6) + (0x1234).to_bytes(2, "big") + b"\x80\x05"
        packet = build_parser().parse(frame)
        packet.header("small").valid = False
        out = Deparser(["ethernet", "small"]).emit(packet)
        assert out == frame[:14]

    def test_requires_order(self):
        with pytest.raises(ParserError):
            Deparser([])
