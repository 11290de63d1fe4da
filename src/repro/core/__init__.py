"""Core of the reproduction: generalized deduplication built on Hamming/CRC.

This subpackage is the paper's primary contribution in library form:

* :mod:`repro.core.bits` — width arithmetic for ``(value, width)`` bit
  fields;
* :mod:`repro.core.crc` — the parameterised CRC engine (the software twin of
  the Tofino CRC extern);
* :mod:`repro.core.polynomials` — Table 1 of the paper as a registry;
* :mod:`repro.core.hamming` — Hamming codes driven by CRC arithmetic;
* :mod:`repro.core.transform` — the chunk ⇄ (prefix, basis, deviation) split;
* :mod:`repro.core.dictionary` — the bounded basis ↔ identifier mapping,
  per key and per batch (``probe_batch`` / ``resolve_batch``);
* :mod:`repro.core.encoder` / :mod:`repro.core.decoder` — record-level GD:
  the one encode stage and the one resolve stage + join, one dictionary
  call per batch each;
* :mod:`repro.core.wire` — the GDZ1 record packer and incremental parser;
* :mod:`repro.core.codec` — the one-call byte-stream compressor;
* :mod:`repro.core.engine` — the streaming :class:`Compressor` protocol
  unifying the GD codec and the gzip, dedup and null codecs it is compared
  with (see also :mod:`repro.registry`).
"""

from repro.core.codec import CompressionResult, GDCodec
from repro.core.crc import (
    CRC8_ATM,
    CRC16_CCITT,
    CRC32_ETHERNET,
    CrcEngine,
    CrcParameters,
    remainder_table,
    syndrome_crc,
)
from repro.core.engine import (
    Compressor,
    DedupStreamCompressor,
    GDStreamCompressor,
    GzipStreamCompressor,
    NullStreamCompressor,
    compress_bytes,
    compress_file,
    decompress_bytes,
    decompress_file,
)
from repro.core.decoder import DecoderStats, GDDecoder
from repro.core.dictionary import BasisDictionary, DictionaryStats, EvictionPolicy
from repro.core.encoder import EncoderMode, EncoderStats, GDEncoder
from repro.core.hamming import HammingCode, SyndromeTable
from repro.core.polynomials import (
    TABLE_1,
    HammingPolynomial,
    polynomial_for_order,
    supported_orders,
)
from repro.core.records import (
    CompressedRecord,
    GDRecord,
    RawRecord,
    RecordType,
    UncompressedRecord,
)
from repro.core.transform import GDParts, GDTransform

__all__ = [
    "CompressionResult",
    "GDCodec",
    "CRC8_ATM",
    "CRC16_CCITT",
    "CRC32_ETHERNET",
    "CrcEngine",
    "CrcParameters",
    "remainder_table",
    "syndrome_crc",
    "Compressor",
    "DedupStreamCompressor",
    "GDStreamCompressor",
    "GzipStreamCompressor",
    "NullStreamCompressor",
    "compress_bytes",
    "compress_file",
    "decompress_bytes",
    "decompress_file",
    "DecoderStats",
    "GDDecoder",
    "BasisDictionary",
    "DictionaryStats",
    "EvictionPolicy",
    "EncoderMode",
    "EncoderStats",
    "GDEncoder",
    "HammingCode",
    "SyndromeTable",
    "TABLE_1",
    "HammingPolynomial",
    "polynomial_for_order",
    "supported_orders",
    "CompressedRecord",
    "GDRecord",
    "RawRecord",
    "RecordType",
    "UncompressedRecord",
    "GDParts",
    "GDTransform",
]
