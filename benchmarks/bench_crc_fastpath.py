"""CRC fast path: table-driven vs bit-at-a-time syndrome computation.

The whole software reproduction leans on one inner loop: the polynomial
remainder that turns a chunk into its Hamming syndrome (and, in the decode
direction, a basis into its parity bits).  This microbenchmark pins down the
speedup of ``CrcEngine.compute`` — the byte loop over the shared 256-entry
table, :func:`repro.core.crc.remainder_table` at ``distance == width`` — over
the two slow references, direct GF(2) division (``poly_mod``) and the
bit-serial Rocksoft loop, on the chunk sizes the paper uses (255-bit for
order 8, 511-bit for order 9), plus the plain CRC-32 of a 1500-byte frame.

Results land in ``benchmarks/results/crc_fastpath.json`` so the performance
trajectory of the hot path is tracked PR over PR.  Set
``REPRO_BENCH_SMOKE=1`` to run a scaled-down version (CI smoke mode); the
equivalence checks and the ≥5× speedup assertion hold in both modes.
"""

import os
import random
import time

from repro.analysis.reporting import format_table, save_results_json
from repro.core.crc import (
    CRC32_ETHERNET,
    CrcEngine,
    poly_mod,
    syndrome_crc,
)
from repro.core.polynomials import polynomial_for_order

from benchmarks.conftest import RESULTS_DIR, emit_result

#: Scaled down when REPRO_BENCH_SMOKE is set (CI smoke mode).
SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
CHUNKS = 500 if SMOKE else 5_000
REPEATS = 3

#: The ISSUE/acceptance floor: table path at least this much faster than the
#: bitwise path on 255-bit chunks.
MIN_SPEEDUP_255 = 5.0


def _time_best(function, values, repeats=REPEATS):
    """Best-of-N wall time of ``function`` over every value, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for value in values:
            function(value)
        best = min(best, time.perf_counter() - start)
    return best


def _syndrome_case(order, chunk_bits, rng):
    """Benchmark one syndrome configuration; returns the result row dict."""
    parameter = polynomial_for_order(order).crc_parameter
    full = (1 << order) | parameter
    engine = syndrome_crc(parameter, order)
    values = [rng.getrandbits(chunk_bits) for _ in range(CHUNKS)]

    # Equivalence on every benchmarked vector: table == direct division ==
    # bit-serial reference (spot checked, the reference is very slow).
    for value in values[: CHUNKS // 10]:
        expected = poly_mod(value, full)
        assert engine.compute(value, chunk_bits) == expected
        assert engine.compute_bits_reference(value, chunk_bits) == expected

    bitwise = _time_best(lambda v: poly_mod(v, full), values)
    table = _time_best(lambda v: engine.compute(v, chunk_bits), values)
    return {
        "order": order,
        "chunk_bits": chunk_bits,
        "chunks": CHUNKS,
        "bitwise_us_per_chunk": bitwise * 1e6 / CHUNKS,
        "table_us_per_chunk": table * 1e6 / CHUNKS,
        "speedup": bitwise / table,
        "bitwise_throughput_mbit_s": CHUNKS * chunk_bits / bitwise / 1e6,
        "table_throughput_mbit_s": CHUNKS * chunk_bits / table / 1e6,
    }


def test_crc_fastpath_speedup(benchmark):
    """Table-driven syndromes are ≥5× faster than bitwise on 255-bit chunks."""
    rng = random.Random(2020)
    results = {}
    rows = []
    for order, chunk_bits in ((8, 255), (9, 511)):
        case = _syndrome_case(order, chunk_bits, rng)
        results[f"syndrome_m{order}_{chunk_bits}b"] = case
        rows.append(
            [
                f"CRC-{order} syndrome",
                f"{chunk_bits} bits",
                f"{case['bitwise_us_per_chunk']:.2f}",
                f"{case['table_us_per_chunk']:.2f}",
                f"{case['speedup']:.1f}x",
                f"{case['table_throughput_mbit_s']:.0f}",
            ]
        )

    # Protocol CRC case: CRC-32 over a 1500-byte frame, table vs bit serial.
    engine = CrcEngine(CRC32_ETHERNET)
    frames = [rng.getrandbits(1500 * 8).to_bytes(1500, "big") for _ in range(64)]
    for frame in frames[:4]:
        value = int.from_bytes(frame, "big")
        assert engine.compute(frame) == engine.compute_bits_reference(
            value, len(frame) * 8
        )
    serial = _time_best(
        lambda f: engine.compute_bits_reference(int.from_bytes(f, "big"), len(f) * 8),
        frames,
        repeats=1,
    )
    table32 = _time_best(engine.compute, frames)
    results["crc32_1500B"] = {
        "serial_us_per_frame": serial * 1e6 / len(frames),
        "table_us_per_frame": table32 * 1e6 / len(frames),
        "speedup": serial / table32,
    }
    rows.append(
        [
            "CRC-32/ETHERNET",
            "1500 bytes",
            f"{serial * 1e6 / len(frames):.2f}",
            f"{table32 * 1e6 / len(frames):.2f}",
            f"{serial / table32:.1f}x",
            f"{len(frames) * 1500 * 8 / table32 / 1e6:.0f}",
        ]
    )

    table_text = format_table(
        ["computation", "message", "slow [us]", "table [us]", "speedup", "table Mbit/s"],
        rows,
        title=f"CRC fast path ({'smoke' if SMOKE else 'full'} mode, {CHUNKS} chunks)",
    )
    emit_result("crc_fastpath", table_text)
    save_results_json(RESULTS_DIR / "crc_fastpath.json", results)

    # The benchmarked hot path: one 255-bit syndrome via the table.
    engine = syndrome_crc(polynomial_for_order(8).crc_parameter, 8)
    value = rng.getrandbits(255)
    benchmark(lambda: engine.compute(value, 255))

    speedup_255 = results["syndrome_m8_255b"]["speedup"]
    assert speedup_255 >= MIN_SPEEDUP_255, (
        f"table path only {speedup_255:.1f}x faster than bitwise on 255-bit "
        f"chunks (floor is {MIN_SPEEDUP_255}x)"
    )
