"""Tests for the CRC engine and GF(2) polynomial arithmetic."""

import pytest

from repro.core.crc import (
    CRC8_ATM,
    CRC16_CCITT,
    CRC32_ETHERNET,
    CrcEngine,
    CrcParameters,
    is_primitive_polynomial,
    poly_mod,
    poly_mul,
    poly_mulmod,
    polynomial_degree,
    polynomial_str,
    reflect_bits,
    syndrome_crc,
)
from repro.exceptions import CodingError


class TestPolynomialArithmetic:
    def test_poly_mod_known_values(self):
        # x^3 mod (x^3 + x + 1) = x + 1
        assert poly_mod(0b1000, 0b1011) == 0b011
        # x^6 mod (x^3 + x + 1) = x^2 + 1
        assert poly_mod(0b1000000, 0b1011) == 0b101
        assert poly_mod(0, 0b1011) == 0

    def test_poly_mod_degree_below_divisor(self):
        assert poly_mod(0b101, 0b1011) == 0b101

    def test_poly_mod_invalid(self):
        with pytest.raises(CodingError):
            poly_mod(5, 0)
        with pytest.raises(CodingError):
            poly_mod(-1, 3)

    def test_poly_mul(self):
        # (x + 1)(x + 1) = x^2 + 1 over GF(2)
        assert poly_mul(0b11, 0b11) == 0b101
        assert poly_mul(0b1011, 1) == 0b1011
        assert poly_mul(0, 0b1011) == 0

    def test_poly_mulmod(self):
        modulus = 0b1011
        assert poly_mulmod(0b100, 0b10, modulus) == poly_mod(0b1000, modulus)

    def test_polynomial_degree_and_str(self):
        assert polynomial_degree(0b1011) == 3
        assert polynomial_str(0b1011) == "x^3 + x + 1"
        assert polynomial_str(0b1) == "1"
        assert polynomial_str(0b110) == "x^2 + x"

    def test_primitivity_check(self):
        assert is_primitive_polynomial(0b1011)       # x^3 + x + 1
        assert is_primitive_polynomial(0b100011101)  # x^8 + x^4 + x^3 + x^2 + 1
        assert is_primitive_polynomial(0b111)        # x^2 + x + 1
        assert not is_primitive_polynomial(0b1111)   # (x + 1)^3, reducible
        assert not is_primitive_polynomial(0b1001)   # x^3 + 1 = (x + 1)(x^2 + x + 1)

    def test_reflect_bits(self):
        assert reflect_bits(0b0001, 4) == 0b1000
        assert reflect_bits(0b1101, 4) == 0b1011
        assert reflect_bits(0xA5, 8) == 0xA5
        with pytest.raises(CodingError):
            reflect_bits(0x100, 8)


class TestCrcParameters:
    def test_full_polynomial_adds_leading_term(self):
        params = CrcParameters(polynomial=0x3, width=3, augment=False)
        assert params.full_polynomial == 0b1011

    def test_rejects_oversized_polynomial(self):
        with pytest.raises(CodingError):
            CrcParameters(polynomial=0x1F, width=3)

    def test_rejects_zero_polynomial(self):
        with pytest.raises(CodingError):
            CrcParameters(polynomial=0, width=8)

    def test_plain_remainder_rejects_rocksoft_options(self):
        with pytest.raises(CodingError):
            CrcParameters(polynomial=0x3, width=3, augment=False, init=1)
        with pytest.raises(CodingError):
            CrcParameters(polynomial=0x3, width=3, augment=False, reflect_in=True)

    def test_linear_only_without_init_and_xor_out(self):
        a, b = 0x1234, 0x0F0F

        def is_linear(engine):
            return engine.compute(a ^ b, 16) == engine.compute(a, 16) ^ engine.compute(b, 16)

        assert is_linear(CrcEngine(CrcParameters(polynomial=0x3, width=3, augment=False)))
        assert not is_linear(CrcEngine(CRC32_ETHERNET))


class TestSyndromeCrc:
    """The plain-remainder CRC used as Hamming syndrome (Table 2b)."""

    TABLE_2B = {
        0b0000001: 0b001,
        0b0000010: 0b010,
        0b0000100: 0b100,
        0b0001000: 0b011,
        0b0010000: 0b110,
        0b0100000: 0b111,
        0b1000000: 0b101,
    }

    def test_table_2b_values(self):
        engine = syndrome_crc(0x3, 3)
        for sequence, expected in self.TABLE_2B.items():
            assert engine.compute(sequence, 7) == expected

    def test_zero_message_has_zero_crc(self):
        engine = syndrome_crc(0x3, 3)
        assert engine.compute(0, 7) == 0

    def test_linearity(self):
        engine = syndrome_crc(0x3, 3)
        samples = [0b0000001, 0b0010000, 0b1010101, 0b1111111, 0]
        for left in samples:
            for right in samples:
                assert engine.compute(left ^ right, 7) == (
                    engine.compute(left, 7) ^ engine.compute(right, 7)
                )

    def test_unit_crcs_are_table_2b(self):
        engine = syndrome_crc(0x3, 3)
        units = [engine.compute(1 << position, 7) for position in range(7)]
        assert units == [0b001, 0b010, 0b100, 0b011, 0b110, 0b111, 0b101]

    def test_unit_crcs_distinct_for_primitive_polynomial(self):
        engine = syndrome_crc(0x1D, 8)
        units = [engine.compute(1 << position, 255) for position in range(255)]
        assert len(set(units)) == 255
        assert 0 not in units

    def test_compute_accepts_int_and_bytes(self):
        engine = syndrome_crc(0x3, 3)
        assert engine.compute(0b0001000, width=7) == 0b011
        for message in (b"\x01", bytearray(b"\x01"), memoryview(b"\x01")):
            assert engine.compute(message) == engine.compute(1, 8)
        with pytest.raises(CodingError):
            engine.compute(5)  # int without a width

    @pytest.mark.parametrize(
        "message",
        [3.0, "\x01", None, [1], (8, 7)],
        ids=["float", "str", "none", "list", "value-width-pair"],
    )
    def test_compute_rejects_other_message_types(self, message):
        """A ``(value, width)`` pair is two arguments, not one message."""
        with pytest.raises(CodingError, match="unsupported message type"):
            syndrome_crc(0x3, 3).compute(message)

    def test_rejects_oversized_message(self):
        engine = syndrome_crc(0x3, 3)
        with pytest.raises(CodingError):
            engine.compute(1 << 7, 7)

    @pytest.mark.parametrize("engine", [syndrome_crc(0x3, 3), CrcEngine(CRC8_ATM)])
    def test_negative_width_is_a_coding_error(self, engine):
        """A negative width used to escape as ``ValueError: negative shift count``."""
        with pytest.raises(CodingError, match="width"):
            engine.compute(0, -1)
        with pytest.raises(CodingError, match="width"):
            engine.compute_bits_reference(0, -1)
        with pytest.raises(CodingError, match="width"):
            engine.compute_batch(b"", -1)


class TestProtocolCrcs:
    """Known check values for the standard protocol CRCs."""

    CHECK_INPUT = b"123456789"

    def test_crc32_ethernet_check_value(self):
        assert CrcEngine(CRC32_ETHERNET).compute(self.CHECK_INPUT) == 0xCBF43926

    def test_crc16_ccitt_check_value(self):
        assert CrcEngine(CRC16_CCITT).compute(self.CHECK_INPUT) == 0x29B1

    def test_crc8_atm_check_value(self):
        assert CrcEngine(CRC8_ATM).compute(self.CHECK_INPUT) == 0xF4

    def test_table_and_reference_paths_agree(self):
        engine = CrcEngine(CRC8_ATM)
        data = bytes(range(40))
        table_result = engine.compute(data)
        reference = engine.compute_bits_reference(int.from_bytes(data, "big"), len(data) * 8)
        assert table_result == reference

    def test_compute_bits_matches_bytes_path_for_augmented_crc(self):
        engine = CrcEngine(CRC16_CCITT)
        data = b"\x01\x02\x03\x04"
        assert engine.compute(data) == engine.compute_bits_reference(
            int.from_bytes(data, "big"), 32
        )

    def test_reflect_in_requires_byte_alignment(self):
        engine = CrcEngine(CRC32_ETHERNET)
        with pytest.raises(CodingError):
            engine.compute_bits_reference(1, 7)
