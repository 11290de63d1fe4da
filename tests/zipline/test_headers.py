"""Tests for the ZipLine header set."""

import pytest

from repro.core.transform import GDTransform
from repro.core.wire import RecordLayout
from repro.exceptions import PacketError
from repro.net.packets import ZipLinePacketCodec
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK, ZipLineHeaderSet


@pytest.mark.parametrize(
    "order, chunk_bits, identifier_bits, type2, type3",
    [
        # (payload bytes, padding bits) per packet type.
        (8, None, 15, (33, 8), (3, 0)),  # the paper: fields aligned, one spare byte
        (4, None, 6, (3, 8), (2, 5)),
        # 3 + 26 + 5 = 34 field bits, not aligned: fewest bits that align them.
        # (No header set: the Tofino target rejects the 34-bit chunk header.)
        (5, 34, 7, (5, 6), (2, 1)),
    ],
)
def test_one_payload_layout_read_three_ways(
    order, chunk_bits, identifier_bits, type2, type3
):
    """``RecordLayout.for_packets`` states the type-2 / type-3 payload
    layout once; the header set and the packet codec (type-2) only read it."""
    transform = GDTransform(order=order, chunk_bits=chunk_bits)
    layout = RecordLayout.for_packets(transform, identifier_bits)
    codec = ZipLinePacketCodec(transform, identifier_bits)
    assert (layout.t2_padded // 8, layout.padding_bits) == type2
    assert (layout.t3_padded // 8, layout.t3_padding_bits) == type3
    assert codec.uncompressed_payload_bytes == type2[0]
    if transform.chunk_bits % 8 == 0:
        headers = ZipLineHeaderSet.build(transform, identifier_bits)
        assert (headers.type2_payload_bytes, headers.type2_padding_bits) == type2
        assert (headers.type3_payload_bytes, headers.type3_padding_bits) == type3


class TestPaperHeaderSet:
    @pytest.fixture(scope="class")
    def headers(self):
        return ZipLineHeaderSet.build(GDTransform(order=8), identifier_bits=15)

    def test_payload_sizes_match_the_paper(self, headers):
        assert headers.chunk.total_bytes == 32
        assert headers.type2_payload_bytes == 33   # the 1.03 overhead
        assert headers.type3_payload_bytes == 3    # the 0.09 compressed size

    def test_field_widths(self, headers):
        assert headers.prefix_bits == 1
        assert headers.basis_bits == 247
        assert headers.syndrome_bits == 8
        assert headers.identifier_bits == 15
        assert headers.type2_padding_bits == 8
        assert headers.type3_padding_bits == 0

    def test_header_types_are_byte_aligned(self, headers):
        for header in (headers.chunk, headers.type2, headers.type3):
            bits = sum(width for _name, width in header.fields)
            assert bits == 8 * header.total_bytes
        assert headers.ethernet.total_bytes == 14

    def test_raw_chunk_ethertype_is_experimental(self):
        assert ETHERTYPE_RAW_CHUNK == 0x88B4


class TestOtherOrders:
    def test_order_4_layout(self):
        headers = ZipLineHeaderSet.build(GDTransform(order=4), identifier_bits=6)
        assert headers.chunk.total_bytes == 2
        # 1 + 11 + 4 = 16 bits, already aligned -> one modelled padding byte.
        assert headers.type2_payload_bytes == 3
        # 1 + 6 + 4 = 11 bits -> padded to 16 bits.
        assert headers.type3_payload_bytes == 2
        assert headers.type3_padding_bits == 5

    def test_invalid_identifier_bits(self):
        with pytest.raises(PacketError):
            ZipLineHeaderSet.build(GDTransform(order=8), identifier_bits=0)
