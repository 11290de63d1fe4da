"""End-to-end trace replay through the emulated ZipLine topology.

Drives the synthetic sensor workload through the full
``source → encoder switch → emulated link → decoder switch → sink`` path of
:mod:`repro.replay` for the three Figure 3 dictionary scenarios, plus one
impaired run (seeded loss) that demonstrates the counted-failure-mode
contract of a lossy link.  Every run is a ``linear_topology`` spec run by
``TopologyEngine`` with the trace as the flow's in-memory source; it
verifies end-to-end payload integrity and reports the compression ratio on
the wire, latency percentiles and the per-component counter breakdown — the
numbers a figure-style experiment needs, from one command.

Results land in ``benchmarks/results/replay_endtoend.{txt,json}``.  Set
``REPRO_BENCH_SMOKE=1`` for the scaled-down CI smoke mode; the integrity
assertions hold in both modes.  The benchmarked hot path is one complete
static-table replay (switch pipelines + link emulation + verification).
"""

import os

from repro.analysis.reporting import format_table, save_results_json
from repro.replay import ChunkTraceSource, FixedRatePacing
from repro.topology import TopologyEngine, linear_topology
from repro.workloads import SyntheticSensorWorkload

from benchmarks.conftest import RESULTS_DIR, emit_result

#: Scaled down when REPRO_BENCH_SMOKE is set (CI smoke mode).
SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
CHUNKS = 400 if SMOKE else 20_000
BASES = 5 if SMOKE else 32
REPLAY_RATE = 1e6  # packets per second, the evaluation's replay rate
LOSS_PROBABILITY = 0.02
SEED = 2020


def _run_scenario(trace, scenario, static_bases=None, **link):
    engine = TopologyEngine(
        linear_topology(scenario=scenario, **link), static_bases=static_bases
    )
    source = (ChunkTraceSource(trace), FixedRatePacing(packet_rate=REPLAY_RATE))
    return engine.run(sources={"flow0": source})


def test_replay_endtoend(benchmark):
    """Full-topology replay across scenarios, with integrity verification."""
    workload = SyntheticSensorWorkload(
        num_chunks=CHUNKS, distinct_bases=BASES, seed=SEED
    )
    trace = workload.trace()
    static_bases = workload.bases()

    rows = []
    results = {}

    for scenario in ("no_table", "static", "dynamic"):
        report = _run_scenario(
            trace,
            scenario,
            static_bases=static_bases if scenario == "static" else None,
        )
        assert report.integrity.lossless_in_order, (
            f"{scenario}: loss-free replay must return every chunk in order"
        )
        latency = report.latency_summary()
        rows.append(
            [
                scenario,
                f"{report.compression_ratio:.4f}",
                f"{latency['p50'] * 1e6:.2f}",
                f"{latency['p99'] * 1e6:.2f}",
                "n/a"
                if report.learning_time is None
                else f"{report.learning_time * 1e3:.2f}",
                "yes",
                "0",
            ]
        )
        results[scenario] = report.as_dict()

    # Impaired run: loss is a counted failure mode, never corruption.
    lossy = _run_scenario(
        trace,
        "static",
        static_bases=static_bases,
        loss=LOSS_PROBABILITY,
        link_seed=SEED,
    )
    assert lossy.integrity.intact, "delivered chunks must never be corrupted"
    dropped = lossy.metrics.counter("link0.dropped_loss")
    assert dropped > 0
    assert lossy.integrity.missing == dropped
    latency = lossy.latency_summary()
    rows.append(
        [
            f"static+loss {LOSS_PROBABILITY:.0%}",
            f"{lossy.compression_ratio:.4f}",
            f"{latency['p50'] * 1e6:.2f}",
            f"{latency['p99'] * 1e6:.2f}",
            "n/a",
            "yes" if lossy.integrity.intact else "NO",
            f"{int(dropped)}",
        ]
    )
    results["static_lossy"] = lossy.as_dict()

    # Static must reproduce the Figure 3 shape; no_table must show overhead.
    static_ratio = float(rows[1][1])
    no_table_ratio = float(rows[0][1])
    assert static_ratio < 0.15
    assert no_table_ratio > 1.0

    table_text = format_table(
        [
            "scenario",
            "ratio",
            "lat p50 [us]",
            "lat p99 [us]",
            "learning [ms]",
            "intact",
            "lost",
        ],
        rows,
        title=(
            f"end-to-end replay ({'smoke' if SMOKE else 'full'} mode, "
            f"{CHUNKS} chunks, {REPLAY_RATE:.0e} pkt/s)"
        ),
    )
    emit_result("replay_endtoend", table_text)
    save_results_json(RESULTS_DIR / "replay_endtoend.json", results)

    # Hot path under benchmark: one complete static-table replay, including
    # both switch pipelines, the emulated link and integrity verification.
    def replay_once():
        report = _run_scenario(trace, "static", static_bases=static_bases)
        assert report.integrity.lossless_in_order
        return report.compression_ratio

    benchmark(replay_once)
