"""Tests for the Hamming code implementation."""

import random

import pytest

from repro.core.hamming import HammingCode, hamming_parameters_for_order
from repro.exceptions import CodingError

from code_oracle import (
    bases_sharing_chunk,
    correct,
    generator_matrix,
    parity_check_matrix,
    syndrome_via_matrix,
)


class TestParameters:
    def test_parameters_for_order(self):
        assert hamming_parameters_for_order(3) == (7, 4)
        assert hamming_parameters_for_order(4) == (15, 11)
        assert hamming_parameters_for_order(8) == (255, 247)
        assert hamming_parameters_for_order(15) == (32767, 32752)

    def test_rejects_tiny_order(self):
        with pytest.raises(CodingError):
            hamming_parameters_for_order(1)

    def test_default_polynomial_comes_from_table_1(self, hamming_7_4):
        assert hamming_7_4.full_polynomial == 0b1011
        assert hamming_7_4.crc_parameter == 0x3

    def test_explicit_polynomial_must_match_order(self):
        with pytest.raises(CodingError):
            HammingCode(3, polynomial=0b10011)  # degree 4 polynomial for m=3
        with pytest.raises(CodingError):
            HammingCode(3, polynomial=0b1010)  # zero constant term

    def test_non_primitive_polynomial_rejected_during_table_build(self):
        # (x + 1)^3 has order < 7, so two positions collide.
        with pytest.raises(CodingError):
            HammingCode(3, polynomial=0b1111)


class TestTable2Syndromes:
    """Table 2a of the paper: Hamming (7, 4) syndromes of single-bit errors."""

    EXPECTED = {0: 0b001, 1: 0b010, 2: 0b100, 3: 0b011, 4: 0b110, 5: 0b111, 6: 0b101}

    def test_single_bit_error_syndromes(self, hamming_7_4):
        for position, expected in self.EXPECTED.items():
            assert hamming_7_4.syndrome_of_error_position(position) == expected

    def test_syndrome_lookup_table_inverts_the_mapping(self, hamming_7_4):
        for position, syndrome in self.EXPECTED.items():
            assert hamming_7_4.syndrome_table.mask_for(syndrome) == 1 << position

    def test_zero_syndrome_has_no_error(self, hamming_7_4):
        assert hamming_7_4.syndrome_table.mask_for(0) == 0

    def test_syndrome_equals_crc(self, hamming_7_4):
        for value in range(1 << 7):
            assert hamming_7_4.syndrome(value) == hamming_7_4.crc_engine.compute(value, 7)

    def test_syndrome_equals_matrix_product(self, hamming_7_4):
        for value in (0, 1, 0b1010101, 0b1111111, 0b0110011):
            assert hamming_7_4.syndrome(value) == syndrome_via_matrix(hamming_7_4, value)


class TestCodewordAlgebra:
    def test_encode_produces_codewords(self, hamming_7_4):
        for message in range(1 << 4):
            codeword = hamming_7_4.encode(message)
            assert hamming_7_4.chunk_to_basis(codeword) == (message, 0)

    def test_codewords_are_distinct(self, hamming_15_11):
        codewords = {hamming_15_11.encode(m) for m in range(1 << 11)}
        assert len(codewords) == 1 << 11

    def test_minimum_distance_is_three(self, hamming_7_4):
        codewords = [hamming_7_4.encode(m) for m in range(1 << 4)]
        minimum = min(
            bin(a ^ b).count("1")
            for i, a in enumerate(codewords)
            for b in codewords[i + 1 :]
        )
        assert minimum == 3

    def test_correct_single_bit_errors(self, hamming_7_4):
        for message in range(1 << 4):
            codeword = hamming_7_4.encode(message)
            for position in range(7):
                corrupted = codeword ^ (1 << position)
                corrected, flipped = correct(hamming_7_4, corrupted)
                assert corrected == codeword
                assert flipped == position

    def test_correct_clean_codeword(self, hamming_7_4):
        codeword = hamming_7_4.encode(0b1001)
        corrected, flipped = correct(hamming_7_4, codeword)
        assert corrected == codeword
        assert flipped is None

    def test_generator_and_parity_check_orthogonal(self, hamming_7_4):
        generator = generator_matrix(hamming_7_4)
        parity = parity_check_matrix(hamming_7_4)
        n, k, m = hamming_7_4.n, hamming_7_4.k, hamming_7_4.m
        assert len(generator) == k and all(len(row) == n for row in generator)
        assert len(parity) == m and all(len(row) == n for row in parity)
        for g_row in generator:
            for h_row in parity:
                dot = 0
                for g_bit, h_bit in zip(g_row, h_row):
                    dot ^= g_bit & h_bit
                assert dot == 0

    def test_parity_check_columns_are_distinct_nonzero(self, hamming_7_4):
        parity = parity_check_matrix(hamming_7_4)
        columns = [
            tuple(parity[row][col] for row in range(hamming_7_4.m))
            for col in range(hamming_7_4.n)
        ]
        assert len(set(columns)) == hamming_7_4.n
        assert all(any(column) for column in columns)


class TestGDSplit:
    def test_roundtrip_exhaustive_small_code(self, hamming_7_4):
        for chunk in range(1 << 7):
            basis, syndrome = hamming_7_4.chunk_to_basis(chunk)
            assert 0 <= basis < (1 << 4)
            assert 0 <= syndrome < (1 << 3)
            assert hamming_7_4.basis_to_chunk(basis, syndrome) == chunk

    def test_split_is_a_bijection(self, hamming_7_4):
        pairs = {hamming_7_4.chunk_to_basis(chunk) for chunk in range(1 << 7)}
        assert len(pairs) == 1 << 7

    def test_roundtrip_random_paper_code(self, paper_code, rng):
        for _ in range(200):
            chunk = rng.getrandbits(paper_code.n)
            basis, syndrome = paper_code.chunk_to_basis(chunk)
            assert paper_code.basis_to_chunk(basis, syndrome) == chunk

    def test_codeword_maps_to_zero_syndrome(self, paper_code, rng):
        basis = rng.getrandbits(paper_code.k)
        codeword = paper_code.encode(basis)
        got_basis, syndrome = paper_code.chunk_to_basis(codeword)
        assert syndrome == 0
        assert got_basis == basis

    def test_single_bit_neighbours_share_the_basis(self, paper_code, rng):
        basis = rng.getrandbits(paper_code.k)
        codeword = paper_code.encode(basis)
        for _ in range(50):
            position = rng.randrange(paper_code.n)
            neighbour = codeword ^ (1 << position)
            got_basis, syndrome = paper_code.chunk_to_basis(neighbour)
            assert got_basis == basis
            assert paper_code.syndrome_table.mask_for(syndrome) == 1 << position

    def test_bases_sharing_chunk_count(self, hamming_7_4):
        assert bases_sharing_chunk(hamming_7_4, 0) == hamming_7_4.n + 1 == 8

    def test_parity_of_basis_matches_encode(self, hamming_15_11, rng):
        for _ in range(100):
            basis = rng.getrandbits(hamming_15_11.k)
            assert hamming_15_11.encode(basis) == (
                (basis << hamming_15_11.m) | hamming_15_11.parity_of_basis(basis)
            )

    def test_bounds_checking(self, hamming_7_4):
        with pytest.raises(CodingError):
            hamming_7_4.syndrome(1 << 7)
        with pytest.raises(CodingError):
            hamming_7_4.chunk_to_basis(1 << 7)
        with pytest.raises(CodingError):
            hamming_7_4.parity_of_basis(1 << 4)
        with pytest.raises(CodingError):
            hamming_7_4.basis_to_chunk(1 << 4, 0)
        with pytest.raises(CodingError):
            hamming_7_4.basis_to_chunk(0, 1 << 3)
        with pytest.raises(CodingError):
            hamming_7_4.syndrome_of_error_position(7)
        with pytest.raises(CodingError):
            hamming_7_4.chunk_to_basis(-1)


class TestAllTable1Orders:
    @pytest.mark.parametrize("order", [3, 4, 5, 6, 7, 8, 9, 10])
    def test_roundtrip_for_every_order(self, order):
        code = HammingCode(order)
        assert (code.m, code.n, code.k) == (order, 2**order - 1, 2**order - 1 - order)
        generator = random.Random(order)
        for _ in range(25):
            chunk = generator.getrandbits(code.n)
            basis, syndrome = code.chunk_to_basis(chunk)
            assert code.basis_to_chunk(basis, syndrome) == chunk
