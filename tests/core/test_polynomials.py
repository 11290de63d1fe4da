"""Tests for the Table 1 polynomial registry."""

import pytest

from repro.core.polynomials import (
    PAPER_ERRATA,
    TABLE_1,
    crc_parameter,
    polynomial_for_order,
    polynomials_for_order,
    supported_orders,
)
from repro.exceptions import CodingError

from code_oracle import find_primitive_polynomials


class TestTable1Registry:
    def test_fifteen_rows_like_the_paper(self):
        assert len(TABLE_1) == 15

    def test_orders_cover_3_to_15(self):
        assert supported_orders() == list(range(3, 16))

    def test_every_row_is_a_consistent_hamming_code(self):
        for entry in TABLE_1:
            assert entry.n == (1 << entry.m) - 1
            assert entry.k == entry.n - entry.m
            assert entry.full_polynomial.bit_length() - 1 == entry.m

    def test_every_polynomial_is_primitive(self):
        # A primitive generator is exactly what a cyclic Hamming code needs;
        # this validates the polynomial column of Table 1 wholesale.
        for entry in TABLE_1:
            assert entry.is_valid_hamming_generator(), entry.polynomial_text

    def test_crc_parameter_strips_leading_term(self):
        entry = polynomial_for_order(3)
        assert entry.full_polynomial == 0b1011
        assert entry.crc_parameter == 0x3

    def test_paper_parameter_column_matches_except_known_errata(self):
        for index, entry in enumerate(TABLE_1):
            if index in PAPER_ERRATA:
                assert entry.crc_parameter != entry.paper_crc_parameter
            else:
                assert entry.crc_parameter == entry.paper_crc_parameter, (
                    f"row {index} ({entry.code}) unexpectedly disagrees with the paper"
                )

    def test_known_parameters_from_table_1(self):
        # Spot checks of the printed CRC-m parameters (non-erratum rows).
        assert crc_parameter(3) == 0x3
        assert crc_parameter(5) == 0x05
        assert crc_parameter(5, index=1) == 0x17
        assert crc_parameter(8) == 0x1D
        assert crc_parameter(12) == 0x053
        assert crc_parameter(15) == 0x003

    def test_paper_parameters_m8_is_crc8_polynomial(self):
        # The (255, 247) row is the classic CRC-8 polynomial 0x1D.
        entry = polynomial_for_order(8)
        assert entry.code == (255, 247)
        assert entry.crc_parameter == 0x1D

    def test_two_rows_for_orders_5_and_9(self):
        assert len(polynomials_for_order(5)) == 2
        assert len(polynomials_for_order(9)) == 2
        assert len(polynomials_for_order(8)) == 1

    def test_lookup_unknown_order(self):
        with pytest.raises(CodingError):
            polynomial_for_order(16)
        with pytest.raises(CodingError):
            polynomial_for_order(8, index=1)


class TestPrimitiveSearch:
    def test_finds_known_degree_3_primitives(self):
        found = find_primitive_polynomials(3)
        assert 0b1011 in found
        assert 0b1101 in found
        assert len(found) == 2

    def test_limit_stops_early(self):
        found = find_primitive_polynomials(8, limit=1)
        assert len(found) == 1

    def test_invalid_degree(self):
        with pytest.raises(CodingError):
            find_primitive_polynomials(0)
