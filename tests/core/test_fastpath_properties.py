"""Property tests: the fused transform is bit-identical to the reference layers.

``GDTransform`` rebuilds the GD hot loop out of lane tables, the prefix
identity ``x**n ≡ 1 (mod g)`` and bulk big-int XORs; the reference —
reached by name through ``gd_oracle`` — walks the checked ``HammingCode``
layers one step at a time.  These tests drive both over randomized inputs —
every Hamming order in 3..8, a sweep of prefix widths, dictionary pressure,
batch and chunk-at-a-time APIs — and require exact equality of outputs
*and* statistics.
"""

import random

import pytest

from repro.core.codec import GDCodec
from repro.core.crc import is_primitive_polynomial, poly_mod
from repro.core.decoder import GDDecoder
from repro.core.dictionary import BasisDictionary, EvictionPolicy
from repro.core.encoder import GDEncoder
from repro.core.hamming import HammingCode
from repro.core.transform import GDTransform
from repro.workloads import SyntheticSensorWorkload

from gd_oracle import OracleCodec, reference_join, reference_split_buffer, roundtrip

ORDERS = range(3, 9)


def _random_buffer(transform, count, rng, clustered=False):
    """``count`` random chunks as one contiguous buffer."""
    code = transform.code
    chunks = []
    for _ in range(count):
        if clustered and rng.random() < 0.7:
            # codeword of a small basis pool plus a single-bit deviation —
            # the clustered shape GD is built for (exercises dict hits).
            basis = rng.randrange(8)
            body = code.encode(basis)
            if rng.random() < 0.8:
                body ^= 1 << rng.randrange(code.n)
            value = (rng.getrandbits(transform.prefix_bits) << code.n) | body
        else:
            value = rng.getrandbits(transform.chunk_bits)
        chunks.append(value.to_bytes(transform.chunk_bytes, "big"))
    return b"".join(chunks)


class TestTransformEquivalence:
    @pytest.mark.parametrize("order", ORDERS)
    def test_split_and_join_match_reference_across_prefix_widths(self, order):
        rng = random.Random(order)
        n = (1 << order) - 1
        for extra_bits in (0, 1, 2, 3, 7, 8, 9, 13, 17):
            chunk_bits = n + extra_bits
            transform = GDTransform(order=order, chunk_bits=chunk_bits)
            data = _random_buffer(transform, 40, rng)
            fields = transform.split_batch_fields(data)
            assert fields == reference_split_buffer(transform, data)
            size = transform.chunk_bytes
            for index, (prefix, basis, deviation) in enumerate(fields):
                piece = data[index * size : (index + 1) * size]
                assert transform.split_fields(piece) == (prefix, basis, deviation)
                rebuilt = transform.join_fields_fast(prefix, basis, deviation)
                assert rebuilt == reference_join(transform, prefix, basis, deviation)
                assert rebuilt.to_bytes(size, "big") == piece

    @pytest.mark.parametrize("order", range(3, 11))
    def test_prefix_above_the_body_reduces_to_the_prefix_itself(self, order):
        """``(p * x**n) mod g == p mod g``: a primitive ``g`` has order ``n``.

        The identity the fused split cancels the prefix bits with instead
        of a per-prefix table, for the Table 1 generators and a custom
        primitive polynomial alike.
        """
        codes = [HammingCode(order)]
        if order == 8:
            custom = 0b101100011  # x^8+x^6+x^5+x+1, not the Table 1 entry
            assert custom != codes[0].full_polynomial
            assert is_primitive_polynomial(custom)
            codes.append(HammingCode(order, custom))
        n = (1 << order) - 1
        rng = random.Random(order)
        for code in codes:
            generator = code.full_polynomial
            for prefix_bits in (1, 5, 8, 9, 12, 17):
                for prefix in {0, 1, (1 << prefix_bits) - 1} | {
                    rng.getrandbits(prefix_bits) for _ in range(40)
                }:
                    expected = poly_mod(prefix << n, generator)
                    assert expected == poly_mod(prefix, generator)
                    if prefix_bits <= order:
                        assert expected == prefix
                    assert code.prefix_syndrome(prefix) == expected

    @pytest.mark.parametrize("order", ORDERS)
    def test_split_batch_parts_match_per_chunk_split(self, order):
        rng = random.Random(100 + order)
        transform = GDTransform(order=order)
        data = _random_buffer(transform, 25, rng)
        size = transform.chunk_bytes
        batch = transform.split_batch(data)
        singles = [
            transform.split(data[offset : offset + size])
            for offset in range(0, len(data), size)
        ]
        assert batch == singles

    def test_memoryview_and_bytearray_inputs_are_zero_copy_equivalent(self):
        transform = GDTransform(order=8)
        rng = random.Random(5)
        data = _random_buffer(transform, 30, rng)
        expected = transform.split_batch_fields(data)
        assert transform.split_batch_fields(bytearray(data)) == expected
        assert transform.split_batch_fields(memoryview(data)) == expected
        # a view into a larger buffer: the zero-copy slicing contract
        padded = b"\xff" * 32 + data + b"\xff" * 7
        view = memoryview(padded)[32 : 32 + len(data)]
        assert transform.split_batch_fields(view) == expected

    def test_bulk_parities_match_per_basis_parity(self):
        for order in ORDERS:
            code = GDTransform(order=order).code
            rng = random.Random(order * 7)
            bases = [rng.getrandbits(code.k) for _ in range(50)] + [0, (1 << code.k) - 1]
            bulk = code.parities_of_bases(bases)
            for basis, parity in zip(bases, bulk):
                assert parity == code.parity_of_basis(basis)


class TestCodecEquivalence:
    """The codec must emit the records and bytes of the bit-serial oracle."""

    @pytest.mark.parametrize("mode", ["dynamic", "no_table"])
    @pytest.mark.parametrize("order", [3, 5, 8])
    def test_roundtrip_and_container_bit_identical(self, order, mode):
        rng = random.Random(order * 31)
        codec = GDCodec(order=order, identifier_bits=6, mode=mode)
        oracle = OracleCodec(order=order, identifier_bits=6, mode=mode)
        data = _random_buffer(codec.transform, 120, rng, clustered=True)

        result = codec.compress(data)
        reference_records = oracle.encode(data)
        assert list(result.records) == reference_records
        assert codec.encoder.stats.as_dict() == oracle.stats.as_dict()

        container = codec.clone().compress_to_container(data)
        assert container == oracle.container(reference_records, len(data))
        assert codec.clone().decompress_container(container) == data

        decoder_codec = codec.clone()
        chunks = decoder_codec.decoder.decode_batch(result.records)
        size = codec.transform.chunk_bytes
        assert b"".join(chunk.to_bytes(size, "big") for chunk in chunks) == (
            oracle.decode(reference_records)
        )

    def test_under_eviction_pressure_with_random_policy(self):
        """Tiny dictionary + seeded random eviction: lossless, and the
        container is the oracle's byte for byte."""
        data = b"".join(
            SyntheticSensorWorkload(
                num_chunks=600, distinct_bases=40, seed=9
            ).chunks()
        )
        parameters = dict(
            order=8,
            identifier_bits=4,
            eviction_policy=EvictionPolicy.RANDOM,
            eviction_seed=1234,
        )
        codec = GDCodec(**parameters)
        assert roundtrip(codec, data) == data
        oracle = OracleCodec(**parameters)
        assert codec.compress_to_container(data) == oracle.container(
            oracle.encode(data), len(data)
        )

    def test_static_mode_matches_reference(self):
        workload = SyntheticSensorWorkload(num_chunks=300, distinct_bases=12, seed=4)
        data = b"".join(workload.chunks())
        preload = GDCodec(order=8, identifier_bits=8)
        bases = sorted(
            {basis for _p, basis, _d in preload.transform.split_batch_fields(data)}
        )
        parameters = dict(order=8, identifier_bits=8, mode="static", static_bases=bases)
        codec = GDCodec(**parameters)
        assert roundtrip(codec, data) == data
        oracle = OracleCodec(**parameters)
        assert codec.compress_to_container(data) == oracle.container(
            oracle.encode(data), len(data)
        )


class TestBatchApiEquivalence:
    def test_encode_chunks_buffer_equals_chunk_at_a_time(self):
        transform = GDTransform(order=8)
        data = _random_buffer(transform, 80, random.Random(17), clustered=True)
        size = transform.chunk_bytes

        batch_encoder = GDEncoder(
            GDTransform(order=8), BasisDictionary(64), identifier_bits=6
        )
        single_encoder = GDEncoder(
            GDTransform(order=8), BasisDictionary(64), identifier_bits=6
        )
        batch_records = batch_encoder.encode_chunks(data)
        single_records = [
            single_encoder.encode_batch([data[offset : offset + size]])[0]
            for offset in range(0, len(data), size)
        ]
        assert batch_records == single_records
        assert batch_encoder.stats.as_dict() == single_encoder.stats.as_dict()

        # iterable-of-chunks form of encode_chunks
        iterable_encoder = GDEncoder(
            GDTransform(order=8), BasisDictionary(64), identifier_bits=6
        )
        pieces = [data[offset : offset + size] for offset in range(0, len(data), size)]
        assert iterable_encoder.encode_chunks(pieces) == batch_records

        batch_decoder = GDDecoder(GDTransform(order=8), BasisDictionary(64))
        single_decoder = GDDecoder(GDTransform(order=8), BasisDictionary(64))
        batch_chunks = batch_decoder.decode_batch(batch_records)
        single_chunks = [single_decoder.decode_batch([r])[0] for r in batch_records]
        assert batch_chunks == single_chunks
        assert batch_decoder.stats.as_dict() == single_decoder.stats.as_dict()
        assert b"".join(
            chunk.to_bytes(size, "big") for chunk in batch_chunks
        ) == data


class TestDictionaryHotCache:
    """The hot-entry cache must not change observable LRU behaviour."""

    class _ModelLru:
        """Straight-line reference model of the pre-cache dictionary."""

        def __init__(self, capacity):
            from collections import OrderedDict

            self.capacity = capacity
            self.map = OrderedDict()
            self.next_id = 0

        def lookup(self, key, touch=True):
            if key not in self.map:
                return None
            if touch:
                self.map.move_to_end(key)
            return self.map[key]

    def test_mixed_operations_match_reference_model(self):
        rng = random.Random(42)
        real = BasisDictionary(8, EvictionPolicy.LRU)
        model = self._ModelLru(8)

        # drive both with an op mix heavy on repeat lookups (the hot case)
        hot_key = None
        for _ in range(3000):
            action = rng.random()
            if action < 0.5 and hot_key is not None:
                key = hot_key
            else:
                key = rng.randrange(20)
                hot_key = key
            if action < 0.75:
                got = real.lookup(key, touch=True)
                expected = model.lookup(key, touch=True)
                assert got == expected
            elif action < 0.85:
                got = real.lookup(key, touch=False)
                expected = model.lookup(key, touch=False)
                assert got == expected
            else:
                identifier, _evicted = real.insert(key)
                if key in model.map:
                    model.map.move_to_end(key)
                    assert identifier == model.map[key]
                else:
                    if len(model.map) >= model.capacity:
                        _old, recycled = model.map.popitem(last=False)
                        model.map[key] = recycled
                    else:
                        model.map[key] = model.next_id
                        model.next_id += 1
                    assert identifier == model.map[key]
            assert list(real.snapshot().items()) == list(model.map.items())

    def test_touch_remove_and_clear_keep_cache_consistent(self):
        dictionary = BasisDictionary(4)
        for key in (1, 2, 3, 4):
            dictionary.insert(key)
        assert dictionary.lookup(4) == 3  # hot
        assert dictionary.remove(4) == 3  # removes the hot entry
        assert dictionary.lookup(4) is None
        dictionary.touch(1)
        assert dictionary.lookup(1) == 0
        dictionary.clear()
        assert dictionary.lookup(1) is None
        identifier, _ = dictionary.insert(9)
        assert identifier == 0
        assert dictionary.lookup(9) == 0

    def test_external_install_invalidates_hot_cache(self):
        """Regression: a control-plane install appends a new MRU entry, so a
        stale hot key must not skip its recency refresh afterwards."""
        dictionary = BasisDictionary(2, EvictionPolicy.LRU)
        dictionary.insert("A")  # hot = A
        dictionary.insert_with_identifier("X", 1)  # X is now the MRU entry
        assert dictionary.lookup("A", touch=True) == 0  # must refresh A
        _identifier, evicted = dictionary.insert("C")
        assert evicted == "X"  # A was touched after X, so X is the LRU

    def test_encoder_decoder_stay_lock_step_under_pressure(self):
        """Shared eviction decisions survive the hot cache (lossless check)."""
        data = b"".join(
            SyntheticSensorWorkload(num_chunks=800, distinct_bases=30, seed=3).chunks()
        )
        codec = GDCodec(order=8, identifier_bits=4)  # 16 slots for 30 bases
        assert roundtrip(codec, data) == data
