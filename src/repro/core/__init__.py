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

from repro._lazy import lazy_exports

# Each name loads its own submodule on first read: importing
# ``repro.core.transform`` does not load the codec or the engine.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "codec": ("CompressionResult", "GDCodec"),
        "crc": (
            "CRC8_ATM",
            "CRC16_CCITT",
            "CRC32_ETHERNET",
            "CrcEngine",
            "CrcParameters",
            "remainder_table",
            "syndrome_crc",
        ),
        "engine": (
            "Compressor",
            "DedupStreamCompressor",
            "GDStreamCompressor",
            "GzipStreamCompressor",
            "NullStreamCompressor",
            "compress_bytes",
            "compress_file",
            "decompress_bytes",
            "decompress_file",
        ),
        "decoder": ("DecoderStats", "GDDecoder"),
        "dictionary": ("BasisDictionary", "DictionaryStats", "EvictionPolicy"),
        "encoder": ("EncoderMode", "EncoderStats", "GDEncoder"),
        "hamming": ("HammingCode", "SyndromeTable"),
        "polynomials": (
            "TABLE_1",
            "HammingPolynomial",
            "polynomial_for_order",
            "supported_orders",
        ),
        "records": (
            "CompressedRecord",
            "GDRecord",
            "RawRecord",
            "RecordType",
            "UncompressedRecord",
        ),
        "transform": ("GDParts", "GDTransform"),
    },
)
