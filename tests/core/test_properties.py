"""Property-based tests (hypothesis) for the core coding invariants.

These are the invariants the whole system rests on:

* the CRC used for syndromes is linear over GF(2);
* the GD transformation is a bijection: split/join round-trips for every
  chunk, at several Hamming orders;
* chunks within Hamming distance one of a codeword share that codeword's
  basis;
* the codec is lossless for arbitrary byte strings;
* the dictionary never hands out two identifiers for one key or one
  identifier for two keys.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import GDCodec
from repro.core.crc import syndrome_crc
from repro.core.dictionary import BasisDictionary
from repro.core.hamming import HammingCode
from repro.core.transform import GDTransform

from gd_oracle import roundtrip

# Session-scoped codes/transforms so hypothesis examples do not pay the
# construction cost repeatedly.
_CODE_BY_ORDER = {order: HammingCode(order) for order in (3, 4, 5, 8)}
_TRANSFORM_BY_ORDER = {order: GDTransform(order=order) for order in (3, 4, 8)}


class TestCrcProperties:
    @given(
        left=st.integers(min_value=0, max_value=(1 << 255) - 1),
        right=st.integers(min_value=0, max_value=(1 << 255) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_syndrome_crc_is_linear(self, left, right):
        engine = _CODE_BY_ORDER[8].crc_engine
        combined = engine.compute(left ^ right, 255)
        assert combined == engine.compute(left, 255) ^ engine.compute(right, 255)

    @given(value=st.integers(min_value=0, max_value=(1 << 127) - 1))
    @settings(max_examples=60, deadline=None)
    def test_syndrome_width_bounded(self, value):
        engine = syndrome_crc(0x09, 7)
        syndrome = engine.compute(value, 127)
        assert 0 <= syndrome < (1 << 7)

    @given(value=st.integers(min_value=0, max_value=(1 << 63) - 1))
    @settings(max_examples=60, deadline=None)
    def test_crc_of_shifted_unit_matches_unit_table(self, value):
        # CRC(x^i) values are the columns of H; any message's CRC is the XOR
        # of the columns selected by its set bits.
        engine = syndrome_crc(0x03, 6)
        width = 63
        units = [engine.compute(1 << position, width) for position in range(width)]
        expected = 0
        for position in range(width):
            if (value >> position) & 1:
                expected ^= units[position]
        assert engine.compute(value, width) == expected


class TestHammingProperties:
    @given(
        order=st.sampled_from([3, 4, 5, 8]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_join_roundtrip(self, order, data):
        code = _CODE_BY_ORDER[order]
        chunk = data.draw(st.integers(min_value=0, max_value=(1 << code.n) - 1))
        basis, syndrome = code.chunk_to_basis(chunk)
        assert code.basis_to_chunk(basis, syndrome) == chunk

    @given(
        order=st.sampled_from([3, 4, 8]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_single_bit_neighbours_share_basis(self, order, data):
        code = _CODE_BY_ORDER[order]
        basis = data.draw(st.integers(min_value=0, max_value=(1 << code.k) - 1))
        position = data.draw(st.integers(min_value=0, max_value=code.n - 1))
        codeword = code.encode(basis)
        neighbour = codeword ^ (1 << position)
        neighbour_basis, syndrome = code.chunk_to_basis(neighbour)
        assert neighbour_basis == basis
        assert code.syndrome_table.mask_for(syndrome) == 1 << position

    @given(
        order=st.sampled_from([3, 4]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_syndrome_zero_iff_codeword(self, order, data):
        code = _CODE_BY_ORDER[order]
        chunk = data.draw(st.integers(min_value=0, max_value=(1 << code.n) - 1))
        is_codeword = code.encode(chunk >> code.m) == chunk
        assert (code.syndrome(chunk) == 0) == is_codeword


class TestTransformProperties:
    @given(
        order=st.sampled_from([3, 4, 8]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_transform_bijection(self, order, data):
        transform = _TRANSFORM_BY_ORDER[order]
        chunk = data.draw(
            st.binary(min_size=transform.chunk_bytes, max_size=transform.chunk_bytes)
        )
        parts = transform.split(chunk)
        assert transform.join(parts).to_bytes(transform.chunk_bytes, "big") == chunk

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_field_widths_always_respected(self, data):
        transform = _TRANSFORM_BY_ORDER[4]
        chunk = data.draw(st.integers(min_value=0, max_value=(1 << 16) - 1))
        parts = transform.split(chunk)
        assert 0 <= parts.prefix < (1 << transform.prefix_bits)
        assert 0 <= parts.basis < (1 << transform.basis_bits)
        assert 0 <= parts.deviation < (1 << transform.deviation_bits)


class TestCodecProperties:
    @given(payload=st.binary(min_size=0, max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_codec_lossless_for_arbitrary_bytes(self, payload):
        codec = GDCodec(order=4)
        assert roundtrip(codec, payload, pad=True) == payload

    @given(payload=st.binary(min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_container_roundtrip_arbitrary_bytes(self, payload):
        codec = GDCodec(order=4, identifier_bits=8)
        blob = codec.compress_to_container(payload)
        assert GDCodec(order=4, identifier_bits=8).decompress_container(blob) == payload

    @given(payload=st.binary(min_size=32, max_size=320))
    @settings(max_examples=40, deadline=None)
    def test_no_table_mode_never_shrinks_or_learns(self, payload):
        codec = GDCodec(order=8, mode="no_table", alignment_padding_bits=8)
        result = codec.compress(payload, pad=True)
        assert result.compressed_record_fraction == 0.0
        assert result.payload_bytes >= len(payload)


class TestDictionaryProperties:
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200),
        capacity=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_mapping_stays_bijective(self, keys, capacity):
        dictionary = BasisDictionary(capacity)
        for key in keys:
            dictionary.insert(key)
            snapshot = dictionary.snapshot()
            # no two keys share an identifier, no identifier out of range
            identifiers = list(snapshot.values())
            assert len(identifiers) == len(set(identifiers))
            assert all(0 <= identifier < capacity for identifier in identifiers)
            assert len(snapshot) <= capacity

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=120),
    )
    @settings(max_examples=60, deadline=None)
    def test_lookup_after_insert_always_hits(self, keys):
        dictionary = BasisDictionary(64)
        for key in keys:
            identifier, _ = dictionary.insert(key)
            assert dictionary.lookup(key) == identifier
            assert dictionary.reverse_lookup(identifier) == key
