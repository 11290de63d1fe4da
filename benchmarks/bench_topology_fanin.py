"""K-sender fan-in through one shared ZipLine encoder.

The deployment scenario the paper motivates — many senders sharing a
datacenter path through one in-network compressor — expressed as the
``fan-in`` topology preset: K concurrent flows (each with its own workload
stream and derived seed) through a single encoder, one measured 100 GbE
link and one decoder.  The benchmark guards three properties:

* **ratio invariance** — the aggregate compression ratio on the shared
  link equals the single-flow static ratio (the dictionary serves all
  senders; Figure 3's 0.094 must not degrade under fan-in);
* **aggregate throughput** — the engine sustains a floor of simulated
  chunks per wall-clock second across all flows (scaled for CI smoke);
* **determinism** — the same spec and seed produce byte-identical reports.

Results land in ``benchmarks/results/topology_fanin.{txt,json}``.  Set
``REPRO_BENCH_SMOKE=1`` for the scaled-down CI smoke mode.
"""

import os
import time

from repro.analysis.reporting import format_table, save_results_json
from repro.topology import TopologyEngine, fan_in_topology, linear_topology

from benchmarks.conftest import RESULTS_DIR, emit_result, environment_info

#: Scaled down when REPRO_BENCH_SMOKE is set (CI smoke mode).
SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
SENDERS = 4 if SMOKE else 8
CHUNKS_PER_FLOW = 500 if SMOKE else 5_000
BASES_PER_FLOW = 4 if SMOKE else 16
SEED = 2020

#: Wall-clock throughput floor (chunks replayed per second across all
#: flows, including both switch pipelines, link emulation and the per-flow
#: integrity check).  Deliberately conservative: this guards against
#: order-of-magnitude regressions, not machine variance.
THROUGHPUT_FLOOR_CHUNKS_PER_S = 2_000


def _build_spec():
    return fan_in_topology(
        senders=SENDERS,
        chunks=CHUNKS_PER_FLOW,
        bases=BASES_PER_FLOW,
        scenario="static",
        seed=SEED,
    )


def _single_flow_static_ratio():
    """The reference ratio: one flow of the same shape through the chain."""
    spec = linear_topology(
        scenario="static", chunks=CHUNKS_PER_FLOW, bases=BASES_PER_FLOW, flow_seed=SEED
    )
    report = TopologyEngine(spec).run()
    assert report.integrity.lossless_in_order
    return report.compression_ratio


def test_topology_fanin(benchmark):
    """Fan-in smoke: aggregate throughput + unchanged compression ratio."""
    started = time.perf_counter()
    report = TopologyEngine(_build_spec()).run()
    elapsed = time.perf_counter() - started

    total_chunks = SENDERS * CHUNKS_PER_FLOW
    assert report.chunks_sent == total_chunks
    assert report.integrity.intact
    assert report.integrity.missing == 0
    for flow in report.flows:
        assert flow.integrity.lossless_in_order
        assert flow.delivered == CHUNKS_PER_FLOW

    # Ratio invariance: the shared dictionary compresses the aggregate
    # exactly as well as a single flow (every flow's 32-byte chunks leave
    # as 3-byte type-3 packets once the static table is loaded).
    fan_in_ratio = report.compression_ratio
    single_ratio = _single_flow_static_ratio()
    assert abs(fan_in_ratio - single_ratio) < 1e-9, (
        f"fan-in ratio {fan_in_ratio:.6f} deviates from the single-flow "
        f"static ratio {single_ratio:.6f}"
    )

    throughput = total_chunks / elapsed
    assert throughput >= THROUGHPUT_FLOOR_CHUNKS_PER_S, (
        f"aggregate fan-in throughput {throughput:,.0f} chunks/s fell below "
        f"the {THROUGHPUT_FLOOR_CHUNKS_PER_S:,} floor"
    )

    # Determinism: same spec + seed ⇒ byte-identical report.
    assert TopologyEngine(_build_spec()).run().json_text() == report.json_text()

    table_text = format_table(
        ["metric", "value"],
        [
            ["senders", SENDERS],
            ["chunks per flow", f"{CHUNKS_PER_FLOW:,}"],
            ["aggregate chunks", f"{total_chunks:,}"],
            ["fan-in ratio", f"{fan_in_ratio:.4f}"],
            ["single-flow ratio", f"{single_ratio:.4f}"],
            ["throughput [chunks/s]", f"{throughput:,.0f}"],
            ["intact", "yes"],
        ],
        title=(
            f"fan-in topology ({'smoke' if SMOKE else 'full'} mode, "
            f"{SENDERS} senders)"
        ),
    )
    emit_result("topology_fanin", table_text)
    save_results_json(
        RESULTS_DIR / "topology_fanin.json",
        {
            "senders": SENDERS,
            "chunks_per_flow": CHUNKS_PER_FLOW,
            "fan_in_ratio": fan_in_ratio,
            "single_flow_ratio": single_ratio,
            "throughput_chunks_per_s": throughput,
            "environment": environment_info(),
            "report": report.as_dict(),
        },
    )

    # Hot path under benchmark: one full fan-in run end to end.
    def fan_in_once():
        result = TopologyEngine(_build_spec()).run()
        assert result.integrity.intact
        return result.compression_ratio

    benchmark(fan_in_once)
