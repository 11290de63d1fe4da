"""Basis rows as dictionary keys: every backend writes the same stream and state.

The GD pipeline keys its dictionaries on basis *rows* (``ceil(k / 8)``
big-endian bytes) from the split to the join; only records, static
preloads, snapshots and trace arguments carry a basis as an ``int``.
Generated streams attack that on purpose: orders 3–9 (``m`` a multiple of
8 only at order 8, and order 9 outside the numpy envelope), prefix widths
with and without a spare byte, identifier widths small enough that every
eviction policy evicts, static preloads, and blocks of at least
:data:`MIN_BATCH_CHUNKS` chunks, so the numpy backend serves each block it
supports.  For each stream, on every available backend:

* the container bytes and the canonical ``snapshot_state()`` JSON of both
  halves are the same, and the encoder's dictionary snapshot equals the
  int-keyed oracle's (``gd_oracle``);
* a snapshot taken between two blocks and restored into a fresh codec
  continues to the same bytes (encoder) and the same chunks (decoder);
* a type-2 record whose tag is mutated, or that is cut short, raises a
  named :class:`CodingError`.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import MIN_BATCH_CHUNKS, available_backend_names
from repro.core.codec import GDCodec
from repro.core.hamming import HammingCode
from repro.core.wire import HEADER, read_container
from repro.exceptions import CodingError

from gd_oracle import OracleCodec

BACKENDS = available_backend_names()


@st.composite
def streams(draw):
    """Codec parameters, the static table and the stream's blocks."""
    order = draw(st.integers(3, 9))
    code = HammingCode(order)
    aligned = -(-code.n // 8) * 8
    chunk_bits = aligned + draw(st.sampled_from((0, 8)))
    identifier_bits = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(("dynamic", "dynamic", "static")))
    policy = draw(st.sampled_from(("lru", "fifo", "random")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # Twice to four times as many bases as identifiers: every policy evicts.
    pool = [rng.getrandbits(code.k) for _ in range(rng.randint(2, 4) << identifier_bits)]
    static = rng.sample(pool, min(len(pool), 1 << identifier_bits))
    prefix_bits = chunk_bits - code.n
    size = chunk_bits // 8
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        chunks = []
        for _ in range(draw(st.integers(MIN_BATCH_CHUNKS, 3 * MIN_BATCH_CHUNKS))):
            body = code.encode(rng.choice(pool))
            if rng.random() < 0.7:
                body ^= 1 << rng.randrange(code.n)
            value = rng.getrandbits(prefix_bits) << code.n | body
            chunks.append(value.to_bytes(size, "big"))
        blocks.append(b"".join(chunks))
    parameters = dict(
        order=order,
        chunk_bits=chunk_bits,
        identifier_bits=identifier_bits,
        mode=mode,
        eviction_policy=policy,
        eviction_seed=rng.randrange(1 << 16),
        static_bases=static if mode == "static" else None,
    )
    return parameters, blocks


def _canonical(state):
    return json.dumps(state, sort_keys=True)


def _compress(parameters, blocks, backend):
    """``(container, runs, encoder state JSON)`` of ``blocks``, one
    dictionary-stage batch per block."""
    codec = GDCodec(**parameters, backend=backend)
    runs = [
        (codec.encoder.encode_buffer_batch(block).pack_stream(), len(block))
        for block in blocks
    ]
    container = b"".join(codec.write_container(runs))
    return container, runs, _canonical(codec.encoder.snapshot_state())


def _decode_runs(codec, runs):
    """Each run's records parsed and decoded as one batch."""
    out = []
    for body, _length in runs:
        tags, prefixes, keys, deviations, offset = codec.parse_records(body, 0)
        assert offset == len(body)
        out.append(codec.decoder.decode_columns_to_bytes(tags, prefixes, keys, deviations))
    return out


@settings(max_examples=60, deadline=None)
@given(streams())
def test_backends_write_one_stream_and_one_state(stream):
    parameters, blocks = stream
    data = b"".join(blocks)
    outcomes = {}
    for backend in BACKENDS:
        container, runs, encoder_state = _compress(parameters, blocks, backend)
        decoding = GDCodec(**parameters, backend=backend)
        assert _decode_runs(decoding, runs) == blocks
        reader = GDCodec(**parameters, backend=backend)
        assert b"".join(read_container([container], lambda _header: reader)) == data
        outcomes[backend] = (
            container,
            encoder_state,
            _canonical(decoding.decoder.snapshot_state()),
            _canonical(reader.decoder.snapshot_state()),
        )
    assert len(set(outcomes.values())) == 1, sorted(outcomes)
    oracle = OracleCodec(**parameters)
    oracle.encode(data)
    if oracle.encoder_dictionary is not None:
        assert json.loads(encoder_state)["dictionary"] == (
            oracle.encoder_dictionary.snapshot_state()
        )


@settings(max_examples=40, deadline=None)
@given(streams(), st.data())
def test_a_snapshot_restored_between_blocks_continues_the_stream(stream, data):
    parameters, blocks = stream
    cut = data.draw(st.integers(0, len(blocks)))
    backend = data.draw(st.sampled_from(BACKENDS))
    _container, runs, _state = _compress(parameters, blocks, backend)

    encoding = GDCodec(**parameters, backend=backend)
    decoding = GDCodec(**parameters, backend=backend)
    for block in blocks[:cut]:
        encoding.encoder.encode_buffer_batch(block)
    assert _decode_runs(decoding, runs[:cut]) == blocks[:cut]
    resumed = GDCodec(**parameters, backend=backend)
    resumed.encoder.restore_state(json.loads(_canonical(encoding.encoder.snapshot_state())))
    resumed.decoder.restore_state(json.loads(_canonical(decoding.decoder.snapshot_state())))
    assert resumed.encoder.snapshot_state() == encoding.encoder.snapshot_state()
    assert resumed.decoder.snapshot_state() == decoding.decoder.snapshot_state()
    packed = [resumed.encoder.encode_buffer_batch(block).pack_stream() for block in blocks[cut:]]
    assert packed == [body for body, _length in runs[cut:]]
    assert _decode_runs(resumed, runs[cut:]) == blocks[cut:]


@settings(max_examples=40, deadline=None)
@given(streams(), st.data())
def test_a_mutated_type2_record_is_a_named_coding_error(stream, data):
    parameters, blocks = stream
    backend = data.draw(st.sampled_from(BACKENDS))
    container, _runs, _state = _compress(parameters, blocks, backend)
    codec = GDCodec(**parameters, backend=backend)
    layout = codec.encoder.layout
    tags = codec.parse_records(container, HEADER.size, streamed=True)[0]
    offsets, at = [], HEADER.size
    for tag in tags:
        if tag == 2:
            offsets.append(at)
        at += 1 + (layout.t2_padded if tag == 2 else layout.t3_padded) // 8
    if not offsets:
        return  # a static table that held every basis: no type-2 record
    offset = data.draw(st.sampled_from(offsets))
    tag = data.draw(st.sampled_from([1, *range(4, 256)]))
    mutated = container[:offset] + bytes([tag]) + container[offset + 1 :]
    cut = container[: offset + data.draw(st.integers(1, layout.t2_padded // 8))]
    for blob in (mutated, cut):
        reader = GDCodec(**parameters, backend=backend)
        try:
            b"".join(read_container([blob], lambda _header: reader))
        except CodingError as error:
            assert str(error)
        else:
            raise AssertionError("a mutated type-2 record decoded")


def test_a_random_policy_snapshot_carries_its_generator_position():
    """Restoring a ``random``-policy codec mid-stream evicts as the original does.

    Two identifiers under six bases evict on most misses, so by the cut the
    policy's generator has moved; a snapshot without its position would
    restart the draws from the seed and pack the second half differently.
    """
    parameters = dict(order=4, identifier_bits=2, eviction_policy="random", eviction_seed=5)
    code = HammingCode(4)
    rng = random.Random(11)
    bases = [rng.getrandbits(code.k) for _ in range(6)]
    size = GDCodec(**parameters).chunk_bytes

    def block():
        return b"".join(
            code.encode(rng.choice(bases)).to_bytes(size, "big") for _ in range(200)
        )

    first, second = block(), block()
    original = GDCodec(**parameters)
    runs = [(original.encoder.encode_buffer_batch(first).pack_stream(), len(first))]
    assert _decode_runs(original, runs) == [first]
    resumed = GDCodec(**parameters)
    resumed.encoder.restore_state(json.loads(_canonical(original.encoder.snapshot_state())))
    resumed.decoder.restore_state(json.loads(_canonical(original.decoder.snapshot_state())))
    packed = resumed.encoder.encode_buffer_batch(second).pack_stream()
    assert packed == original.encoder.encode_buffer_batch(second).pack_stream()
    assert _decode_runs(resumed, [(packed, len(second))]) == [second]
