"""Tests for the bit-field width helpers."""

import pytest

from repro.core import bits
from repro.exceptions import CodingError


class TestScalarHelpers:
    @pytest.mark.parametrize(
        "width, expected", [(0, 0), (1, 1), (8, 0xFF), (255, (1 << 255) - 1)]
    )
    def test_mask_widths(self, width, expected):
        assert bits.mask(width) == expected

    def test_mask_rejects_negative_width(self):
        with pytest.raises(CodingError):
            bits.mask(-1)

    @pytest.mark.parametrize(
        "n_bits, expected", [(0, 0), (1, 1), (8, 1), (9, 2), (247, 31), (256, 32)]
    )
    def test_bits_to_bytes_len(self, n_bits, expected):
        assert bits.bits_to_bytes_len(n_bits) == expected

    def test_bits_to_bytes_len_rejects_negative(self):
        with pytest.raises(CodingError):
            bits.bits_to_bytes_len(-1)

    @pytest.mark.parametrize(
        "value, expected", [(0, 0), (1, 8), (8, 8), (247, 248), (255, 256)]
    )
    def test_align_up(self, value, expected):
        assert bits.align_up(value, 8) == expected

    def test_align_up_invalid(self):
        with pytest.raises(CodingError):
            bits.align_up(5, 0)
        with pytest.raises(CodingError):
            bits.align_up(-1, 8)

    def test_int_bytes_roundtrip(self):
        value = 0x1234_5678_9ABC
        data = bits.int_to_bytes(value, 48)
        assert len(data) == 6
        assert int.from_bytes(data, "big") == value

    def test_int_to_bytes_keeps_leading_zero_bytes(self):
        # A 255-bit field always serialises to 32 bytes, MSB first.
        assert bits.int_to_bytes(1, 255) == bytes(31) + b"\x01"
        assert bits.int_to_bytes(0, 0) == b""

    def test_int_to_bytes_rejects_overflow(self):
        with pytest.raises(CodingError):
            bits.int_to_bytes(256, 8)
        with pytest.raises(CodingError):
            bits.int_to_bytes(-1, 8)
