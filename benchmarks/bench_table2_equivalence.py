"""Table 2: equivalence of Hamming (7, 4) syndromes and CRC-3 values.

Regenerates both halves of Table 2 — the syndrome of every single-bit error
pattern of the (7, 4) code and the CRC-3 of every 7-bit sequence with one
non-zero bit — and verifies they are identical.  The benchmarked operation
is the syndrome computation itself (one CRC over a 255-bit chunk with the
paper's m = 8 configuration), which is the per-packet work the Tofino CRC
extern performs.
"""

import random

from repro.analysis.reporting import format_table, save_results_json
from repro.core.crc import syndrome_crc
from repro.core.hamming import HammingCode

from benchmarks.conftest import RESULTS_DIR, emit_result


def test_table2_equivalence(benchmark):
    """Regenerate Table 2 and benchmark the m = 8 syndrome computation."""
    code_7_4 = HammingCode(3)
    crc3 = syndrome_crc(0x3, 3)

    rows = []
    for error_position in range(7):
        sequence = 1 << error_position
        hamming_syndrome = code_7_4.syndrome_of_error_position(error_position)
        crc_value = crc3.compute(sequence, 7)
        rows.append(
            [
                error_position,
                format(sequence, "07b"),
                format(hamming_syndrome, "03b"),
                format(crc_value, "03b"),
                "ok" if hamming_syndrome == crc_value else "MISMATCH",
            ]
        )
        assert hamming_syndrome == crc_value

    table = format_table(
        ["Error bit", "Bit sequence", "Hamming syndrome", "CRC-3", "equal"],
        rows,
        title="Table 2 — Hamming (7, 4) syndromes vs CRC-3 of single-bit sequences",
    )
    emit_result("table2_equivalence", table)
    save_results_json(
        RESULTS_DIR / "table2_equivalence.json",
        {str(row[0]): {"sequence": row[1], "syndrome": row[2], "crc3": row[3]} for row in rows},
    )

    # Benchmark: per-chunk syndrome computation with the paper's parameters.
    paper_code = HammingCode(8)
    rng = random.Random(1)
    chunks = [rng.getrandbits(255) for _ in range(512)]

    def syndrome_batch():
        total = 0
        for chunk in chunks:
            total ^= paper_code.syndrome(chunk)
        return total

    benchmark(syndrome_batch)


def test_syndrome_matches_crc_for_paper_order(benchmark):
    """Exhaustive equivalence check for m = 8 (every single-bit pattern)."""
    code = HammingCode(8)
    crc8 = syndrome_crc(code.crc_parameter, 8)

    def check_all_positions():
        for position in range(code.n):
            assert code.syndrome_of_error_position(position) == crc8.compute(
                1 << position, code.n
            )
        return code.n

    assert benchmark(check_all_positions) == 255
