"""Sharded topology scale: flows/sec, chunks/sec, and bounded memory.

The paper's deployment axis — thousands of hosts behind rack encoders —
runs here as the ``rack-fan-in`` preset through the sharded execution
layer (:func:`repro.topology.run_topology`).  The benchmark guards four
properties:

* **byte-identity** — the ``--workers 4`` report is byte-identical to the
  sequential one (the determinism contract of the sharded engine);
* **throughput trajectory** — flows/sec and chunks/sec land in
  ``benchmarks/results/topology_scale.json`` and are guarded against the
  committed ``BENCH_topology.json`` baseline (machine-independent ratios
  only; absolutes are annotated with the environment);
* **parallel speedup** — on a host with 4+ cores, ``workers=4`` must beat
  sequential by the floor recorded in the trajectory (2x full mode,
  1.1x smoke; skipped on smaller machines where there is nothing to
  parallelise onto);
* **bounded memory** — a streaming-metrics run must allocate measurably
  less than the same run with exact (per-sample) metrics.

Set ``REPRO_BENCH_SMOKE=1`` for the scaled-down CI smoke mode.
"""

import json
import os
import time
import tracemalloc
from pathlib import Path

from repro.analysis.reporting import format_table, save_results_json
from repro.topology import rack_fan_in_topology, run_topology

from benchmarks.conftest import RESULTS_DIR, emit_result, environment_info

#: Scaled down when REPRO_BENCH_SMOKE is set (CI smoke mode).
SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
RACKS = 4 if SMOKE else 8
SENDERS_PER_RACK = 4 if SMOKE else 16
CHUNKS_PER_FLOW = 300 if SMOKE else 400
BASES_PER_FLOW = 4 if SMOKE else 8
SEED = 2020
WORKERS = 4

#: Committed scale trajectory (see docs/performance.md).
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_topology.json"

#: A current ratio below ``(1 - TOLERANCE) * baseline`` fails the bench.
REGRESSION_TOLERANCE = 0.30

#: Machine-independent speedup floors, enforced only where 4 workers have
#: 4 cores to land on.  The full-mode floor is the acceptance criterion:
#: 4 independent rack shards must buy at least 2x wall-clock.
SPEEDUP_FLOOR = 1.1 if SMOKE else 2.0

#: Hard absolute floor: even a 1-core sequential run must push more than
#: this many simulated chunks per wall-clock second (order-of-magnitude
#: guard, far below any measured number).
CHUNKS_PER_S_FLOOR = 1_000


def _build_spec():
    return rack_fan_in_topology(
        racks=RACKS,
        senders=SENDERS_PER_RACK,
        chunks=CHUNKS_PER_FLOW,
        bases=BASES_PER_FLOW,
        scenario="static",
        seed=SEED,
    )


def _timed_run(workers):
    started = time.perf_counter()
    report = run_topology(_build_spec(), workers=workers,
                          metrics_mode="streaming")
    return report, time.perf_counter() - started


def _load_baseline():
    """The committed trajectory baseline, or ``None`` when absent."""
    if not TRAJECTORY_PATH.exists():
        return None
    with TRAJECTORY_PATH.open(encoding="utf-8") as handle:
        return json.load(handle).get("baseline")


def _guard(label, current, baseline_value):
    """Fail when ``current`` regressed >30 % below the committed baseline."""
    if baseline_value is None:
        return
    floor = (1.0 - REGRESSION_TOLERANCE) * baseline_value
    assert current >= floor, (
        f"{label} regressed: {current:,.2f} vs committed baseline "
        f"{baseline_value:,.2f} (floor {floor:,.2f})"
    )


def _peak_memory(metrics_mode):
    """Peak allocation of one rack's worth of flows under either mode."""
    spec = rack_fan_in_topology(
        racks=1, senders=SENDERS_PER_RACK, chunks=CHUNKS_PER_FLOW,
        bases=BASES_PER_FLOW, scenario="static", seed=SEED,
    )
    tracemalloc.start()
    report = run_topology(spec, workers=1, metrics_mode=metrics_mode)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert report.integrity.intact
    return peak


def test_topology_scale(benchmark):
    """Sharded rack fan-in: throughput trajectory + byte-identity."""
    total_flows = RACKS * SENDERS_PER_RACK
    total_chunks = total_flows * CHUNKS_PER_FLOW

    sequential_report, sequential_s = _timed_run(workers=1)
    parallel_report, parallel_s = _timed_run(workers=WORKERS)

    assert sequential_report.chunks_sent == total_chunks
    assert sequential_report.integrity.intact
    assert sequential_report.integrity.missing == 0
    # The determinism contract: worker count changes wall-clock only.
    assert parallel_report.json_text() == sequential_report.json_text()

    flows_per_s = total_flows / parallel_s
    chunks_per_s = total_chunks / parallel_s
    sequential_chunks_per_s = total_chunks / sequential_s
    speedup = sequential_s / parallel_s

    assert sequential_chunks_per_s >= CHUNKS_PER_S_FLOOR, (
        f"sequential throughput {sequential_chunks_per_s:,.0f} chunks/s "
        f"fell below the {CHUNKS_PER_S_FLOOR:,} hard floor"
    )

    mode = "smoke" if SMOKE else "full"
    baseline = _load_baseline()
    cores = os.cpu_count() or 1
    if cores >= WORKERS:
        # 4 shards on 4+ cores: the parallel layer must actually pay.
        assert speedup >= SPEEDUP_FLOOR, (
            f"workers={WORKERS} speedup {speedup:.2f}x fell below the "
            f"{SPEEDUP_FLOOR}x floor on a {cores}-core host"
        )
        if baseline is not None:
            speedups = baseline.get("speedups", {})
            # Pool overhead weighs differently on the short smoke workload,
            # so the committed speedup only guards runs in the same mode.
            if speedups.get("mode") in (None, mode):
                _guard(
                    f"workers={WORKERS} speedup",
                    speedup,
                    speedups.get("workers4"),
                )
    if baseline is not None and baseline.get("environment", {}).get(
        "cpu_count"
    ) == cores:
        # Absolute chunk rates only mean something on the same shape of
        # machine as the committed baseline.
        _guard(
            "sequential chunks/s",
            sequential_chunks_per_s,
            baseline.get("absolute", {}).get("sequential_chunks_per_s"),
        )

    # Bounded memory: the streaming run must retain no per-sample state
    # (latency lists, arrival frames, per-chunk pending copies).
    exact_peak = _peak_memory("exact")
    streaming_peak = _peak_memory("streaming")
    assert streaming_peak < 0.9 * exact_peak, (
        f"streaming peak {streaming_peak:,} B is not materially below the "
        f"exact-metrics peak {exact_peak:,} B"
    )

    table_text = format_table(
        ["metric", "value"],
        [
            ["racks x senders", f"{RACKS} x {SENDERS_PER_RACK}"],
            ["flows", f"{total_flows:,}"],
            ["aggregate chunks", f"{total_chunks:,}"],
            ["sequential [s]", f"{sequential_s:.3f}"],
            [f"workers={WORKERS} [s]", f"{parallel_s:.3f}"],
            ["speedup", f"{speedup:.2f}x"],
            ["flows/s", f"{flows_per_s:,.1f}"],
            ["chunks/s", f"{chunks_per_s:,.0f}"],
            ["exact peak [B]", f"{exact_peak:,}"],
            ["streaming peak [B]", f"{streaming_peak:,}"],
            ["byte-identical", "yes"],
        ],
        title=f"topology scale ({mode} mode, {cores} cores)",
    )
    emit_result("topology_scale", table_text)
    save_results_json(
        RESULTS_DIR / "topology_scale.json",
        {
            "mode": mode,
            "racks": RACKS,
            "senders_per_rack": SENDERS_PER_RACK,
            "chunks_per_flow": CHUNKS_PER_FLOW,
            "flows": total_flows,
            "chunks": total_chunks,
            "sequential_s": sequential_s,
            "parallel_s": parallel_s,
            "workers": WORKERS,
            "speedup_workers4": speedup,
            "flows_per_s": flows_per_s,
            "chunks_per_s": chunks_per_s,
            "sequential_chunks_per_s": sequential_chunks_per_s,
            "exact_peak_bytes": exact_peak,
            "streaming_peak_bytes": streaming_peak,
            "environment": environment_info(),
        },
    )

    # Hot path under benchmark: one sharded run end to end.
    def sharded_once():
        report = run_topology(
            _build_spec(), workers=WORKERS, metrics_mode="streaming"
        )
        assert report.integrity.intact
        return report.chunks_sent

    benchmark(sharded_once)
