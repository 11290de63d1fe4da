"""Table-driven CRC path: equivalence with the bitwise references.

The acceptance bar for ``CrcEngine.compute`` is bit-identical results
everywhere the slow paths are defined: random polynomials, message widths 1-512 including
non-byte-aligned ones (255/511-bit chunks), and the full Rocksoft variant
space (init / reflect-in / reflect-out / xor-out, augmented and plain).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crc import (
    CRC8_ATM,
    CRC16_CCITT,
    CRC32_ETHERNET,
    CrcEngine,
    CrcParameters,
    poly_mod,
    remainder_table,
    syndrome_crc,
)
from repro.exceptions import CodingError


@st.composite
def polynomial_and_message(draw):
    """A random (width, polynomial, message_bits, message) quadruple.

    Polynomial widths 1-64, message widths 0-512 with no alignment
    restriction, and an odd constant term so the polynomial is a valid
    CRC generator.
    """
    width = draw(st.integers(min_value=1, max_value=64))
    polynomial = draw(st.integers(min_value=1, max_value=(1 << width) - 1)) | 1
    message_bits = draw(st.integers(min_value=0, max_value=512))
    message = draw(
        st.integers(min_value=0, max_value=(1 << message_bits) - 1 if message_bits else 0)
    )
    return width, polynomial, message_bits, message


class TestPlainRemainderEquivalence:
    @given(case=polynomial_and_message())
    @settings(max_examples=300, deadline=None)
    def test_table_matches_bitwise_division(self, case):
        width, polynomial, message_bits, message = case
        full = (1 << width) | polynomial
        engine = syndrome_crc(polynomial, width)
        assert engine.compute(message, message_bits) == poly_mod(message, full)

    @given(case=polynomial_and_message())
    @settings(max_examples=150, deadline=None)
    def test_engine_dispatch_matches_reference(self, case):
        width, polynomial, message_bits, message = case
        engine = syndrome_crc(polynomial, width)
        expected = engine.compute_bits_reference(message, message_bits)
        assert engine.compute(message, message_bits) == expected

    def test_non_byte_aligned_chunk_widths(self):
        """The paper's chunk sizes: 255 bits (order 8) and 511 bits (order 9)."""
        rng = random.Random(2020)
        for width, polynomial, chunk_bits in ((8, 0x1D, 255), (9, 0x11, 511)):
            engine = syndrome_crc(polynomial, width)
            full = (1 << width) | polynomial
            for _ in range(200):
                value = rng.getrandbits(chunk_bits)
                assert engine.compute(value, chunk_bits) == poly_mod(value, full)

    def test_every_width_1_through_512(self):
        """Sweep every message width once (catches tail-handling bugs)."""
        rng = random.Random(7)
        engine = syndrome_crc(0x1D, 8)
        for width in range(1, 513):
            value = rng.getrandbits(width)
            assert engine.compute(value, width) == poly_mod(value, 0x11D)


class TestRocksoftVariantEquivalence:
    @given(
        width_index=st.integers(min_value=0, max_value=2),
        init_seed=st.integers(min_value=0),
        xor_seed=st.integers(min_value=0),
        reflect_in=st.booleans(),
        reflect_out=st.booleans(),
        message_bytes=st.binary(min_size=0, max_size=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_variants_match_bit_serial(
        self, width_index, init_seed, xor_seed, reflect_in, reflect_out, message_bytes
    ):
        width, polynomial = ((8, 0x07), (16, 0x1021), (32, 0x04C11DB7))[width_index]
        parameters = CrcParameters(
            polynomial=polynomial,
            width=width,
            init=init_seed % (1 << width),
            reflect_in=reflect_in,
            reflect_out=reflect_out,
            xor_out=xor_seed % (1 << width),
            augment=True,
        )
        engine = CrcEngine(parameters)
        value = int.from_bytes(message_bytes, "big")
        bits = len(message_bytes) * 8
        expected = engine.compute_bits_reference(value, bits)
        assert engine.compute(value, bits) == expected
        assert engine.compute(message_bytes) == expected

    @pytest.mark.parametrize(
        "parameters,check",
        [
            (CRC32_ETHERNET, 0xCBF43926),
            (CRC16_CCITT, 0x29B1),
            (CRC8_ATM, 0xF4),
        ],
    )
    def test_known_check_values(self, parameters, check):
        """The canonical '123456789' check values survive the fast path."""
        engine = CrcEngine(parameters)
        assert engine.compute(b"123456789") == check

    def test_reflect_in_still_requires_byte_alignment(self):
        engine = CrcEngine(CRC32_ETHERNET)
        with pytest.raises(CodingError):
            engine.compute(0, 7)
        with pytest.raises(CodingError):
            engine.compute(0, 31)


class TestTableRegistrySharing:
    def test_tables_are_cached_per_polynomial(self):
        assert remainder_table(0x1D, 8, 8) is remainder_table(0x1D, 8, 8)
        assert remainder_table(0x1D, 8, 8) is not remainder_table(0x11, 9, 9)

    def test_table_entries_are_remainders(self):
        table = remainder_table(0x1D, 8, 8)
        assert len(table) == 256
        for index in (0, 1, 2, 128, 255):
            assert table[index] == poly_mod(index << 8, 0x11D)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(CodingError):
            remainder_table(0x1D, 0, 0)
        with pytest.raises(CodingError):
            remainder_table(0x100, 8, 8)
        with pytest.raises(CodingError):
            remainder_table(0, 8, 8)
        with pytest.raises(CodingError):
            remainder_table(0x1D, 8, -8)

    def test_value_must_be_non_negative(self):
        with pytest.raises(CodingError):
            syndrome_crc(0x1D, 8).compute(-1, 8)
