"""The bit-serial oracle of the GD record pipeline.

One chunk at a time, one checked layer per step: the ``HammingCode`` layer
(``chunk_to_basis`` / ``basis_to_chunk``) called by name for the split and
the join, a dictionary consulted and updated once per chunk, record objects
built through their validating constructors, accounting one record at a
time (``account``) and container bytes through each record's own
``to_bytes``.  ``probe_loop`` / ``resolve_loop`` are the per-key
dictionary loops the encoder and decoder ran before
``BasisDictionary.probe_batch`` / ``resolve_batch`` took them over, kept
as the model those verbs are checked against.  Nothing here batches, caches or vectorises, so the
production pipeline (fused split, columnar loops, backend kernels, the GDZ1
packer) can be compared against it bit for bit.
"""

import struct

from repro.core.bits import int_to_bytes
from repro.core.dictionary import BasisDictionary
from repro.core.encoder import EncoderStats
from repro.core.records import CompressedRecord, RecordType, UncompressedRecord
from repro.core.transform import GDParts, GDTransform

#: The GDZ1 header, stated independently of ``repro.core.wire``: magic,
#: order, chunk bits, identifier bits, flags (1 = streamed), record count,
#: type-2 padding bits, two reserved bytes.
CONTAINER_HEADER = struct.Struct(">4sBHBBIBxx")


def reference_split(transform, chunk):
    """``(prefix, basis, deviation)`` of one chunk through the checked layers."""
    code = transform.code
    value = int.from_bytes(chunk, "big")
    basis, deviation = code.chunk_to_basis(value & ((1 << code.n) - 1))
    return value >> code.n, basis, deviation


def reference_split_buffer(transform, data):
    """:func:`reference_split` of every chunk of a contiguous buffer."""
    size = transform.chunk_bytes
    view = memoryview(data)
    return [
        reference_split(transform, view[offset : offset + size])
        for offset in range(0, len(data), size)
    ]


def reference_join(transform, prefix, basis, deviation):
    """The chunk value rebuilt through ``HammingCode.basis_to_chunk``."""
    code = transform.code
    return (prefix << code.n) | code.basis_to_chunk(basis, deviation)


def probe_loop(dictionary, keys, learn):
    """``BasisDictionary.probe_batch`` one key at a time: the encoder's
    dictionary loop as it stood before the batch verbs."""
    identifiers, misses = [], []
    for position, key in enumerate(keys):
        identifier = dictionary.lookup(key)
        if identifier is not None:
            identifiers.append(identifier)
        elif learn:
            misses.append((position, *dictionary.insert(key)))
        else:
            misses.append((position, None, None))
    return identifiers, misses


def resolve_loop(dictionary, tags, keys, learn, out):
    """``BasisDictionary.resolve_batch`` one record at a time: the
    decoder's resolve loop as it stood before the batch verbs."""
    learned = []
    for position, tag in enumerate(tags):
        if tag == 3:
            key = dictionary.reverse_lookup(keys[position])
            if key is None:
                return learned, position
            if learn:
                dictionary.touch(key)
            out[position] = key
        elif tag == 2 and learn:
            learned.append((position, *dictionary.insert(keys[position])))
    return learned, None


def account(stats, record, input_bits):
    """Add one emitted record to an ``EncoderStats``."""
    stats.chunks += 1
    stats.input_bits += input_bits
    stats.output_bits += record.payload_bits
    stats.output_padded_bits += record.padded_bits
    if record.record_type is RecordType.COMPRESSED:
        stats.compressed_records += 1
    else:
        stats.uncompressed_records += 1


class OracleCodec:
    """Naive encoder and decoder with the parameters of a ``GDCodec``."""

    def __init__(
        self,
        order=8,
        chunk_bits=None,
        identifier_bits=15,
        mode="dynamic",
        eviction_policy="lru",
        alignment_padding_bits=0,
        static_bases=None,
        eviction_seed=None,
        backend=None,  # accepted so GDCodec keyword sets can be reused
    ):
        self.transform = GDTransform(order=order, chunk_bits=chunk_bits, backend="pure")
        self.identifier_bits = identifier_bits
        self.mode = mode
        self.padding = alignment_padding_bits
        self.encoder_dictionary = self.decoder_dictionary = None
        if mode != "no_table":
            capacity = 1 << identifier_bits
            self.encoder_dictionary = BasisDictionary(
                capacity, eviction_policy, seed=eviction_seed
            )
            self.decoder_dictionary = BasisDictionary(
                capacity, eviction_policy, seed=eviction_seed
            )
            if mode == "static":
                self.encoder_dictionary.preload(iter(static_bases))
                self.decoder_dictionary.preload(iter(static_bases))
        self.stats = EncoderStats()

    def chunks(self, data):
        size = self.transform.chunk_bytes
        return [data[offset : offset + size] for offset in range(0, len(data), size)]

    def encode(self, data):
        """Whole chunks → record list, continuing from earlier calls."""
        transform = self.transform
        dictionary = self.encoder_dictionary
        records = []
        for chunk in self.chunks(data):
            prefix, basis, deviation = reference_split(transform, chunk)
            identifier = None
            if dictionary is not None:
                identifier = dictionary.lookup(basis)
            if identifier is not None:
                record = CompressedRecord(
                    prefix=prefix,
                    identifier=identifier,
                    deviation=deviation,
                    prefix_bits=transform.prefix_bits,
                    identifier_bits=self.identifier_bits,
                    deviation_bits=transform.deviation_bits,
                )
            else:
                if self.mode == "dynamic":
                    dictionary.insert(basis)
                record = UncompressedRecord(
                    prefix=prefix,
                    basis=basis,
                    deviation=deviation,
                    prefix_bits=transform.prefix_bits,
                    basis_bits=transform.basis_bits,
                    deviation_bits=transform.deviation_bits,
                    alignment_padding_bits=self.padding,
                )
            account(self.stats, record, transform.chunk_bits)
            records.append(record)
        return records

    def body(self, records):
        """Container body: each record's tag byte and own serialisation."""
        return b"".join(
            bytes([int(record.record_type)]) + record.to_bytes() for record in records
        )

    def container(self, records, original_bytes):
        """The ``GDZ1`` container of ``records``: streamed header, body,
        end tag and original length."""
        header = CONTAINER_HEADER.pack(
            b"GDZ1",
            self.transform.order,
            self.transform.chunk_bits,
            self.identifier_bits,
            1,
            0,
            self.padding,
        )
        trailer = b"\x00" + struct.pack(">Q", original_bytes)
        return header + self.body(records) + trailer

    def decode(self, records):
        """Record list → chunk bytes, learning like the codec's decoder."""
        transform = self.transform
        dictionary = self.decoder_dictionary
        out = []
        for record in records:
            if isinstance(record, UncompressedRecord):
                basis = record.basis
                if self.mode == "dynamic":
                    dictionary.insert(basis)
            else:
                basis = dictionary.reverse_lookup(record.identifier)
                dictionary.touch(basis)
            chunk = transform.join(
                GDParts(
                    prefix=record.prefix,
                    basis=basis,
                    deviation=record.deviation,
                    prefix_bits=transform.prefix_bits,
                    basis_bits=transform.basis_bits,
                    deviation_bits=transform.deviation_bits,
                )
            )
            out.append(int_to_bytes(chunk, transform.chunk_bits))
        return b"".join(out)


def roundtrip(codec, data, pad=True):
    """``data`` compressed then decompressed by one ``GDCodec``, the
    original length restored from the input."""
    result = codec.compress(data, pad=pad)
    return codec.decompress_records(result.records, original_bytes=len(data))
