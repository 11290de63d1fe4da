"""The interpreted ZipLine programs of ``p4_oracle.py``, tested in place.

The oracle is what every compiled frame is diffed against, so its own
pieces are held to the P4 semantics they spell out: header extraction and
field widths, the parse graph, the deparser, the ``Hash`` extern's field
concatenation, the const syndrome table, and one frame through
:func:`p4_oracle.receive` — forwarded, dropped, a parse error, a digest.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.manager import LEARN_DIGEST
from repro.core.hamming import HammingCode
from repro.core.transform import GDTransform
from repro.exceptions import CodingError, ParserError, PipelineError
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.mac import MacAddress
from repro.tofino.parser import HeaderType
from repro.zipline.decoder_switch import ZipLineDecoderSwitch
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

from p4_oracle import (
    ACCEPT,
    CrcExtern,
    Deparser,
    Header,
    Parser,
    ParserState,
    apply_table,
    receive,
    syndrome_mask_table,
)

ETHERNET = HeaderType("ethernet_h", [("dst", 48), ("src", 48), ("ether_type", 16)])
SMALL = HeaderType("small_h", [("flag", 1), ("value", 15)])

DST = MacAddress("02:00:00:00:00:02")
SRC = MacAddress("02:00:00:00:00:01")


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

    def test_missing_header_access(self):
        frame = bytes(6) + bytes(6) + (0x0800).to_bytes(2, "big")
        packet = build_parser().parse(frame)
        with pytest.raises(ParserError):
            packet.header("small")


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


#: Arguments ``CrcExtern.get`` refuses with a ``CodingError``.
BAD_FIELDS = {
    "value-too-wide": (8, 3),
    "zero-width": [(1, 0)],
    "negative-width": (1, -3),
    "negative-value": [(-1, 3)],
    "no-fields": [],
    "str": ["bad"],
    "one-int": [(1,)],
    "triple": (1, 2, 3),
    "float-value": (1.0, 3),
    "float-width": [(1, 3.0)],
    "bare-int": [(1, 3), 5],
    "three-list": [[1, 3, 0]],
}


class TestCrcExtern:
    def test_zipline_configuration_is_plain_remainder(self):
        """``init = 0``, no reflection, no final XOR: the CRC is linear."""
        extern = CrcExtern(coeff=0x1D, width=8)
        assert extern.get((0x1234 ^ 0x0F0F, 16)) == (
            extern.get((0x1234, 16)) ^ extern.get((0x0F0F, 16))
        )
        # A plain remainder leaves a message shorter than the polynomial as is.
        assert extern.get((0xA5, 8)) == 0xA5

    def test_matches_hamming_syndrome(self, paper_code, rng):
        extern = CrcExtern(coeff=paper_code.crc_parameter, width=8)
        for _ in range(50):
            chunk = rng.getrandbits(paper_code.n)
            assert extern.get((chunk, paper_code.n)) == paper_code.syndrome(chunk)

    @pytest.mark.parametrize("order", range(3, 13))
    def test_each_table_1_order_hashes_to_the_syndrome_and_the_parity(self, order):
        """Programmed as ZipLine programs it for order ``m`` — the Table 1
        coefficients, ``width = m`` — the extern gives a chunk's syndrome
        (encoder) and, fed ``{basis, m zero bits}``, the basis's parity
        (decoder)."""
        code = HammingCode(order)
        extern = CrcExtern(coeff=code.crc_parameter, width=order)
        rng = random.Random(order)
        for _ in range(20):
            chunk = rng.getrandbits(code.n)
            assert extern.get((chunk, code.n)) == code.syndrome(chunk)
            basis = rng.getrandbits(code.k)
            assert extern.get([(basis, code.k), (0, order)]) == code.parity_of_basis(basis)

    def test_field_concatenation_matches_single_field(self, hamming_7_4):
        extern = CrcExtern(coeff=hamming_7_4.crc_parameter, width=3)
        # {3-bit 0b101, 4-bit 0b0110} concatenated is the 7-bit 0b1010110.
        combined = extern.get([(0b101, 3), (0b0110, 4)])
        single = extern.get((0b1010110, 7))
        assert combined == single

    def test_decoder_parity_computation(self, hamming_7_4, rng):
        # Feeding {basis, m zero bits} reproduces the parity of the basis —
        # the Figure 2 zero-padding step.
        extern = CrcExtern(coeff=hamming_7_4.crc_parameter, width=3)
        for basis in range(1 << hamming_7_4.k):
            parity = extern.get([(basis, hamming_7_4.k), (0, hamming_7_4.m)])
            assert parity == hamming_7_4.parity_of_basis(basis)

    @pytest.mark.parametrize(
        "fields",
        [
            (0b0001000, 7),
            [(0b0001000, 7)],
            ((0b000, 3), (0b1000, 4)),
            [(0b000, 3), (0b1000, 4)],
            [(0b0, 1), (0b00, 2), (0b1000, 4)],
        ],
        ids=["pair", "list-of-one", "tuple-of-pairs", "list-of-pairs", "three-fields"],
    )
    def test_one_pair_or_a_sequence_of_pairs(self, hamming_7_4, fields):
        extern = CrcExtern(coeff=hamming_7_4.crc_parameter, width=3)
        assert extern.get(fields) == 0b011

    @given(st.integers(0, (1 << 255) - 1), st.lists(st.integers(1, 254), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_any_cut_of_a_chunk_hashes_like_the_chunk(self, paper_code, chunk, cuts):
        """P4 ``hash.get({a, b, ...})`` is the CRC of ``a ++ b ++ ...``."""
        extern = CrcExtern(coeff=paper_code.crc_parameter, width=8)
        edges = [255, *sorted(set(cuts), reverse=True), 0]
        fields = [
            ((chunk >> low) & ((1 << (high - low)) - 1), high - low)
            for high, low in zip(edges, edges[1:])
        ]
        assert extern.get(fields) == paper_code.syndrome(chunk)

    @pytest.mark.parametrize("fields", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
    def test_field_validation(self, hamming_7_4, fields):
        extern = CrcExtern(coeff=hamming_7_4.crc_parameter, width=3)
        with pytest.raises(CodingError):
            extern.get(fields)


class TestSyndromeTable:
    @pytest.mark.parametrize("order", [3, 8])
    def test_one_const_entry_per_syndrome(self, order):
        """2^m entries, including the zero syndrome's empty mask, each the
        single bit whose error gives that syndrome."""
        code = HammingCode(order)
        table = syndrome_mask_table(code)
        assert len(table) == 1 << order
        assert apply_table(table, 0, 1.0) == (True, "set_mask", {"flip_mask": 0})
        for position in range(code.n):
            syndrome = code.syndrome_of_error_position(position)
            assert table.get_entry(syndrome).params == {"flip_mask": 1 << position}

    def test_apply_counts_hits_and_misses(self):
        table = syndrome_mask_table(HammingCode(3))
        table.delete_entry(5)
        assert apply_table(table, 5, 2.0) == (False, "NoAction", {})
        assert apply_table(table, 6, 3.0)[0]
        assert (table.lookups, table.hits) == (2, 1)
        entry = table.get_entry(6)
        assert (entry.last_hit, entry.hit_count) == (3.0, 1)


def _raw_frame(transform, chunk_value):
    return EthernetFrame(
        DST, SRC, ETHERTYPE_RAW_CHUNK, chunk_value.to_bytes(transform.chunk_bytes, "big")
    ).to_bytes()


class TestReceive:
    """One frame through the oracle: the old ``Pipeline.process`` cases,
    on the ZipLine programs."""

    def test_forwarding(self):
        encoder = ZipLineEncoderSwitch(forwarding={0: 1})
        sent = []
        encoder.switch.attach_port(1, lambda data, _time: sent.append(data))
        frame = EthernetFrame(DST, SRC, EtherType.IPV4, b"x" * 20).to_bytes()
        assert receive(encoder, frame, 0) == frame
        assert sent == [frame]
        assert encoder.pipeline.packets_processed == 1
        assert encoder.counters.read("passthrough_other").packets == 1

    def test_drop(self):
        decoder = ZipLineDecoderSwitch(forwarding={0: 1})
        frame = EthernetFrame(DST, SRC, EtherType.ZIPLINE_COMPRESSED, bytes(3)).to_bytes()
        assert receive(decoder, frame, 0) is None
        assert decoder.pipeline.packets_dropped == 1
        assert decoder.counters.read("unknown_identifier").packets == 1
        assert decoder.switch.port_stats(1).tx_packets == 0

    def test_parse_error_drops_without_crashing(self):
        encoder = ZipLineEncoderSwitch()
        assert receive(encoder, b"\x00" * 5, 0) is None
        pipeline = encoder.pipeline
        assert (pipeline.packets_processed, pipeline.parse_errors) == (1, 1)
        assert pipeline.packets_dropped == 1

    def test_digest_collection(self):
        encoder = ZipLineEncoderSwitch(transform=GDTransform(order=8))
        digests = []
        encoder.digest_engine.subscribe(LEARN_DIGEST, digests.append)
        basis = 0x1234
        code = encoder.transform.code
        emitted = receive(
            encoder, _raw_frame(encoder.transform, code.encode(basis) ^ 1 << 7), 0
        )
        assert emitted[12:14] == int(EtherType.ZIPLINE_UNCOMPRESSED).to_bytes(2, "big")
        assert [message.data for message in digests] == [{"basis": basis}]
        assert encoder.crc_invocations == 1

    def test_invalid_ports(self):
        encoder = ZipLineEncoderSwitch()
        frame = EthernetFrame(DST, SRC, EtherType.IPV4, b"").to_bytes()
        for port in (-1, 32):
            with pytest.raises(PipelineError, match="port .* out of range"):
                receive(encoder, frame, port)
        assert encoder.pipeline.packets_processed == 0

    def test_encode_then_decode_restores_the_chunk(self):
        transform = GDTransform(order=5, chunk_bits=40)
        encoder = ZipLineEncoderSwitch(transform=transform, identifier_bits=4)
        decoder = ZipLineDecoderSwitch(transform=transform, identifier_bits=4)
        code = transform.code
        chunk = (0x1A << code.n) | (code.encode(9) ^ 1 << 4)
        encoder.install_basis_mapping(9, 3)
        decoder.install_identifier_mapping(3, 9)
        compressed = receive(encoder, _raw_frame(transform, chunk), 0)
        assert compressed[12:14] == int(EtherType.ZIPLINE_COMPRESSED).to_bytes(2, "big")
        assert receive(decoder, compressed, 0) == _raw_frame(transform, chunk)
        assert encoder.crc_invocations == decoder.crc_invocations == 1
