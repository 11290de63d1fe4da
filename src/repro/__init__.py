"""ZipLine reproduction: in-network compression at line speed.

A production-quality Python reproduction of *ZipLine: In-Network Compression
at Line Speed* (CoNEXT 2020).  The library implements generalized
deduplication (GD) over Hamming codes computed with CRC arithmetic, a
functional model of the Tofino data plane (match-action tables, CRC
externs, digests), the ZipLine control plane with LRU identifier
management, trace workloads, the gzip and classic-dedup codecs the paper
compares against, and a discrete-event simulator;
:mod:`repro.analysis.figures` computes every table and figure of the
paper's evaluation from these models.

Quickstart::

    from repro import GDCodec, registry

    codec = GDCodec(order=8, identifier_bits=15)
    result = codec.compress(payload_bytes, pad=True)
    print(result.compression_ratio)
    restored = codec.decompress_records(result.records, len(payload_bytes))

    # Streaming, bounded-memory, any registered codec (gd/gzip/dedup/null):
    compressor = registry.get("gd")
    blob = b"".join(compressor.compress_stream(blocks))
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

# The codec layer loads when one of these is first read, so importing a
# submodule (``repro.topology``, ``repro.workloads``) does not load it.
__getattr__, __dir__, _exported = lazy_exports(
    __name__,
    {
        "core": (
            "BasisDictionary",
            "CompressionResult",
            "Compressor",
            "CrcEngine",
            "CrcParameters",
            "EncoderMode",
            "EvictionPolicy",
            "GDCodec",
            "GDDecoder",
            "GDEncoder",
            "GDTransform",
            "HammingCode",
            "syndrome_crc",
        ),
    },
    submodules=("registry",),
)

__all__ = [*_exported, "__version__"]
