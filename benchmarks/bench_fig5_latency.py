"""Figure 5: end-to-end RTT with the switch performing various operations.

The paper's experiment bounces packets off the switch back to the sending
server and reports the round-trip time for the no-op, encode and decode
programs; the three are indistinguishable at ≈ 10–15 µs.  The reproduction
reads the RTT off the simulator: one probe frame per program crosses host →
emulated link → the compiled switch program → emulated link → host, and
the RTT is twice that simulated one-way time plus the calibrated host/NIC
cost of one direction (:data:`repro.analysis.figures.HOST_NIC_ONE_WAY`).
The simulation is deterministic, so each program has one value, not a
distribution.
"""

from repro.analysis.figures import (
    HOST_NIC_ONE_WAY,
    PROGRAMS,
    figure5,
    figure5_programs,
)
from repro.analysis.reporting import format_table, horizontal_bars, save_results_json

from benchmarks.conftest import RESULTS_DIR, emit_result, environment_info

#: The paper's Figure 5 axis spans roughly 0–15 µs with all operations
#: landing in the same band.
PAPER_RTT_BAND_US = (10.0, 15.0)


def test_figure5_latency_series(benchmark):
    """The Figure 5 RTTs, and that only pipeline latency separates them."""
    programs = figure5_programs()
    rtts = figure5(programs)
    rtt_us = {name: rtt * 1e6 for name, rtt in rtts.items()}

    one_way_host_us = HOST_NIC_ONE_WAY * 1e6
    rows = [
        [
            name,
            f"{rtt_us[name]:.3f}",
            f"{rtt_us[name] / 2 - one_way_host_us:.3f}",
            f"{PAPER_RTT_BAND_US[0]:.0f}–{PAPER_RTT_BAND_US[1]:.0f} µs",
        ]
        for name in PROGRAMS
    ]
    table = format_table(
        ["operation", "RTT [µs]", "simulated one-way [µs]", "paper band"],
        rows,
        title="Figure 5 — end-to-end RTT with the programmable switch in the path "
        f"(host/NIC {one_way_host_us:.1f} µs one-way is calibrated)",
    )
    bars = horizontal_bars(rtt_us, unit="µs", maximum=15.0)
    emit_result("figure5_latency", table + "\n\n" + bars)
    save_results_json(
        RESULTS_DIR / "figure5_latency.json",
        {
            "environment": environment_info(),
            "inputs": {"host_nic_one_way_us": one_way_host_us},
            "rtt_us": rtt_us,
        },
    )

    # One full figure: three programs built and a probe through each.
    benchmark(figure5)

    assert all(PAPER_RTT_BAND_US[0] <= value <= PAPER_RTT_BAND_US[1] for value in rtt_us.values())
    # The programs differ in RTT exactly as their pipeline latencies differ.
    for name in PROGRAMS:
        latency_gap = (
            programs[name].pipeline.pipeline_latency
            - programs["no_op"].pipeline.pipeline_latency
        )
        assert rtts[name] - rtts["no_op"] == 2 * latency_gap
