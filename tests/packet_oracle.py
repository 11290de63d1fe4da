"""ZipLine type-2 / type-3 packets written and read field by field.

The switch programs build and parse these payloads on their own compiled
paths.  This states the layout of ``RecordLayout.for_packets`` once more —
prefix, body (basis or identifier), deviation, then the padding — so a test
can hand a switch a processed frame and read the frames it emits, and so
``ZipLinePacketCodec.unpack_uncompressed`` has a writer to be checked
against.
"""

from repro.core.records import CompressedRecord, UncompressedRecord
from repro.core.wire import RecordLayout
from repro.exceptions import PacketError
from repro.net.ethernet import EthernetFrame, EtherType


def _layout(codec):
    return RecordLayout.for_packets(codec.transform, codec.identifier_bits)


def pack_record(codec, record):
    """The wire payload of a type-2 or type-3 record under ``codec``."""
    layout = _layout(codec)
    if isinstance(record, UncompressedRecord):
        body, body_bits = record.basis, layout.basis_bits
        padding_bits, size = layout.padding_bits, layout.t2_padded // 8
    elif isinstance(record, CompressedRecord):
        if record.identifier_bits != layout.identifier_bits:
            raise PacketError(
                f"record identifier width {record.identifier_bits} does not "
                f"match codec width {layout.identifier_bits}"
            )
        body, body_bits = record.identifier, layout.identifier_bits
        padding_bits, size = layout.t3_padding_bits, layout.t3_padded // 8
    else:
        raise PacketError(f"no ZipLine payload for {type(record).__name__}")
    value = (record.prefix << body_bits | body) << layout.deviation_bits
    return ((value | record.deviation) << padding_bits).to_bytes(size, "big")


def record_frame(codec, record, destination, source):
    """The Ethernet frame carrying ``record``, EtherType by packet type."""
    ethertype = (
        EtherType.ZIPLINE_UNCOMPRESSED
        if isinstance(record, UncompressedRecord)
        else EtherType.ZIPLINE_COMPRESSED
    )
    return EthernetFrame(destination, source, ethertype, pack_record(codec, record))


def unpack_compressed(codec, payload):
    """The :class:`CompressedRecord` a type-3 payload carries."""
    layout = _layout(codec)
    if len(payload) != layout.t3_padded // 8:
        raise PacketError(
            f"payload of {len(payload)} bytes does not match the expected "
            f"{layout.t3_padded // 8}-byte layout"
        )
    value = int.from_bytes(payload, "big") >> layout.t3_padding_bits
    deviation = value & ((1 << layout.deviation_bits) - 1)
    value >>= layout.deviation_bits
    return CompressedRecord(
        prefix=value >> layout.identifier_bits,
        identifier=value & ((1 << layout.identifier_bits) - 1),
        deviation=deviation,
        prefix_bits=layout.prefix_bits,
        identifier_bits=layout.identifier_bits,
        deviation_bits=layout.deviation_bits,
    )
