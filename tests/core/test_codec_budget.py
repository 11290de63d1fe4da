"""A guard on the streamed GD codec: Python calls per chunk.

Wall time on a shared host cannot size the codec's per-chunk cost; the
number of Python calls a round trip makes can, because it repeats exactly.
The round trip is ``GDStreamCompressor.compress_stream`` then a fresh
compressor's ``decompress_stream``, over the shape of the
``codec-stream-file`` benchmark's buffer (synthetic-sensor chunks over 64
bases, then DNS chunks whose names outnumber what the hot entry can pin),
cut into the engine's 64 KiB blocks, on the ``numpy`` backend, at 8,192
chunks.  A first round trip builds the lazily made tables, so only the
steady state is counted.

What is left is per record type, not per chunk: a type-3 record costs no
Python call at all (the dictionary stage, the packer, the parser and the
join each loop in C or in one comprehension per block), and a type-2
record five (``BasisDictionary.insert`` and its identifier allocation on
each side, ``pack_type2``).

History (Python 3.11, numpy 2.4): 0.9066 calls per chunk (7,427) while
the numpy split turned every basis row into an ``int`` for the dictionary,
the decoder turned the resolved ints back into rows for the parity fold
and ``pack_type2`` checked its value's width through
``bits.int_to_bytes``; 0.6620 (5,423) once a basis stays a byte row from
the split to the join and ``pack_type2`` serialises its value itself —
two calls fewer per type-2 record.  The row conversions were one
comprehension per block each, so they cost calls only per block; their
cost was the per-row work inside them (docs/performance.md, "A basis
stays a byte row").
"""

import gc
import sys
from contextlib import contextmanager

import pytest

from repro import registry
from repro.core.backends import get_backend
from repro.core.engine import DEFAULT_BLOCK_SIZE
from repro.workloads import DnsQueryWorkload, SyntheticSensorWorkload

pytestmark = pytest.mark.skipif(
    not get_backend("numpy").available(), reason="numpy is not installed"
)

#: Python-level ``call`` events per chunk a round trip may spend: 0.6620
#: measured, plus ~150 calls for numpy's Python-level wrappers, whose
#: layers differ between versions (3.12 inlines comprehensions, so it
#: spends fewer).  One more call per type-2 record would read ~0.78.
MAX_CALLS_PER_CHUNK = 0.68

CHUNKS_PER_SOURCE = 4096


@contextmanager
def _collector_off():
    """Collect earlier tests' garbage, then keep the collector off while a
    run is counted (a finalizer it ran mid-run would be counted)."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _count_python_calls(function):
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    with _collector_off():
        sys.setprofile(profiler)
        try:
            result = function()
        finally:
            sys.setprofile(None)
    return calls, result


def _blocks(data):
    return [
        data[offset : offset + DEFAULT_BLOCK_SIZE]
        for offset in range(0, len(data), DEFAULT_BLOCK_SIZE)
    ]


def _buffer():
    sensor = SyntheticSensorWorkload(
        num_chunks=CHUNKS_PER_SOURCE, distinct_bases=64, seed=2020
    )
    dns = DnsQueryWorkload(num_queries=CHUNKS_PER_SOURCE, distinct_names=1600, seed=2020)
    return b"".join(sensor.iter_chunks()) + b"".join(dns.iter_chunks())


def _round_trip(data):
    def compressor():
        return registry.get("gd", identifier_bits=15, backend="numpy")

    packed = b"".join(compressor().compress_stream(_blocks(data)))
    return b"".join(compressor().decompress_stream(_blocks(packed)))


def test_streamed_round_trip_stays_within_its_per_chunk_budget():
    data = _buffer()
    chunks = len(data) // 32
    assert _round_trip(data) == data  # builds the lazily made tables
    calls, restored = _count_python_calls(lambda: _round_trip(data))
    assert restored == data
    assert calls / chunks <= MAX_CALLS_PER_CHUNK, calls / chunks
