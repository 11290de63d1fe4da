"""Codec tracing annotates the production pipeline instead of replacing it.

``gd.encode`` / ``gd.decode`` instants are derived from what the one encode
stage and the one resolve stage decided, so a traced run must (a) emit
exactly one instant per chunk with the documented args, (b) produce the same
bytes, stats and dictionaries as the untraced run and (c) call the same
functions — encode stage, resolve stage, the dictionary's two batch verbs,
backend split and join — the same number of times.
"""

import random

import pytest

from repro import obs
from repro.core.codec import GDCodec
from repro.core.decoder import GDDecoder
from repro.core.dictionary import BasisDictionary
from repro.core.encoder import GDEncoder
from repro.core.engine import GDStreamCompressor
from repro.exceptions import DictionaryError


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    before = obs.TRACER
    yield
    obs.TRACER = before


def _chunk(codec, basis, flip=None):
    body = codec.transform.code.encode(basis)
    if flip is not None:
        body ^= 1 << flip
    return body.to_bytes(codec.chunk_bytes, "big")


def _args(events, name):
    return [event["args"] for event in events if event["name"] == name]


def _traced(function):
    tracer = obs.enable()
    try:
        value = function()
    finally:
        obs.disable()
    return value, tracer.sink.events


class TestDocumentedArgs:
    def test_hit_miss_and_eviction(self):
        # Two identifiers, three bases: the fifth chunk evicts basis 22.
        codec = GDCodec(order=4, identifier_bits=1)
        data = b"".join(
            _chunk(codec, basis, flip)
            for basis, flip in [(11, 0), (11, 3), (22, None), (11, 5), (33, 1)]
        )
        result, events = _traced(lambda: codec.compress(data))
        assert _args(events, "gd.encode") == [
            {"outcome": "miss", "learned_identifier": 0, "chunk_index": 0},
            {"outcome": "hit", "identifier": 0, "chunk_index": 1},
            {"outcome": "miss", "learned_identifier": 1, "chunk_index": 2},
            {"outcome": "hit", "identifier": 0, "chunk_index": 3},
            {
                "outcome": "miss",
                "learned_identifier": 1,
                "chunk_index": 4,
                "evicted_basis": 22,
            },
        ]
        assert all(event["track"] == "gd-encoder" for event in events)

        restored, events = _traced(
            lambda: codec.decompress_records(result.records)
        )
        assert restored == data
        assert _args(events, "gd.decode") == [
            {"outcome": "uncompressed", "learned_identifier": 0},
            {"outcome": "hit", "identifier": 0},
            {"outcome": "uncompressed", "learned_identifier": 1},
            {"outcome": "hit", "identifier": 0},
            {"outcome": "uncompressed", "learned_identifier": 1, "evicted_basis": 22},
        ]
        assert all(event["track"] == "gd-decoder" for event in events)

    def test_static_and_no_table_misses_learn_nothing(self):
        for kwargs in (dict(mode="static", static_bases=[11]), dict(mode="no_table")):
            codec = GDCodec(order=4, identifier_bits=4, **kwargs)
            result, events = _traced(lambda: codec.compress(_chunk(codec, 22)))
            assert _args(events, "gd.encode") == [{"outcome": "miss", "chunk_index": 0}]
        # The no-table decoder has nothing to learn into either.
        _restored, events = _traced(lambda: codec.decompress_records(result.records))
        assert _args(events, "gd.decode") == [{"outcome": "uncompressed"}]

    def test_unknown_identifier(self):
        codec = GDCodec(order=4, identifier_bits=4)
        records = codec.compress(_chunk(codec, 11) * 2).records
        tracer = obs.enable()
        try:
            with pytest.raises(DictionaryError):
                codec.clone().decoder.decode_batch(records[1:])
        finally:
            obs.disable()
        assert _args(tracer.sink.events, "gd.decode") == [
            {"outcome": "unknown", "identifier": 0}
        ]


def _sensor_like(codec, chunks, seed=5):
    rng = random.Random(seed)
    code = codec.transform.code
    bases = [rng.getrandbits(code.k) for _ in range(40)]
    return b"".join(
        _chunk(codec, rng.choice(bases), rng.randrange(code.n)) for _ in range(chunks)
    )


def _round_trip(data):
    """Container and stream round trips; everything an observer could see."""
    codec = GDCodec(identifier_bits=4)
    container = codec.compress_to_container(data)
    restored = codec.decompress_container(container)
    result = codec.compress(data)
    decoded = codec.decompress_records(result.records)
    compressor = GDStreamCompressor(identifier_bits=4)
    blocks = [data[offset : offset + 4096] for offset in range(0, len(data), 4096)]
    stream = b"".join(compressor.compress_stream(blocks))
    streamed = b"".join(compressor.decompress_stream([stream]))
    return (
        container,
        restored,
        decoded,
        stream,
        streamed,
        codec.encoder.snapshot_state(),
        codec.decoder.snapshot_state(),
    )


class TestObserverEffect:
    def test_traced_run_is_the_untraced_run_plus_events(self, monkeypatch):
        codec = GDCodec()
        chunks = 600
        data = _sensor_like(codec, chunks)

        calls = {}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[owner.__name__, name] = calls.get((owner.__name__, name), 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(GDEncoder, "_encode_columns")
        counted(GDDecoder, "decode_columns_to_bytes")
        counted(BasisDictionary, "probe_batch")
        counted(BasisDictionary, "resolve_batch")
        backend = type(codec.transform.backend_impl)
        counted(backend, "split_batch_columns")
        counted(backend, "join_batch_to_bytes")

        untraced = _round_trip(data)
        untraced_calls = dict(calls)
        calls.clear()
        traced, events = _traced(lambda: _round_trip(data))

        assert traced == untraced
        assert calls == untraced_calls
        assert set(calls) == {
            ("GDEncoder", "_encode_columns"),
            ("GDDecoder", "decode_columns_to_bytes"),
            ("BasisDictionary", "probe_batch"),
            ("BasisDictionary", "resolve_batch"),
            (backend.__name__, "split_batch_columns"),
            (backend.__name__, "join_batch_to_bytes"),
        }
        # Three compressions and three decompressions of every chunk.
        assert len(_args(events, "gd.encode")) == 3 * chunks
        assert len(_args(events, "gd.decode")) == 3 * chunks
        outcomes = {args["outcome"] for args in _args(events, "gd.encode")}
        assert outcomes == {"hit", "miss"}
