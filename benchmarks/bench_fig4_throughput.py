"""Figure 4: network throughput with the switch performing no-op/encode/decode.

The paper transfers raw Ethernet frames of 64, 1500 and 9000 bytes for ten
seconds through the switch running each of the three programs and reports
Gbit/s and Mpkt/s.  Line-rate numbers cannot be demonstrated in Python, so
this benchmark reproduces the figure in two parts:

1. the *arithmetic series* from :mod:`repro.analysis.figures` — the line
   rate over each frame's wire occupancy, capped by the traffic generator's
   7 Mpkt/s; both are inputs, so there is no noise and no interval.  What
   the model checks is the precondition of the vendor's line-rate
   guarantee: the actual encoder and decoder programs, after forwarding
   frames, have neither recirculated nor duplicated a packet;
2. the *functional packet rate* of the Python switch models, benchmarked
   with pytest-benchmark, so regressions in the data-plane model's cost are
   visible.
"""

import random

from repro.analysis.figures import (
    FIGURE4_FRAME_SIZES,
    GENERATOR_PACKET_RATE,
    LINE_RATE_BPS,
    figure4,
    figure5,
    figure5_programs,
)
from repro.analysis.reporting import format_table, save_results_json
from repro.core.transform import GDTransform
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.mac import MacAddress
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

from benchmarks.conftest import RESULTS_DIR, emit_result, environment_info

DST = MacAddress("02:00:00:00:00:02")
SRC = MacAddress("02:00:00:00:00:01")

#: Paper reference points for the annotation column (Gbit/s, approximate bar
#: heights; small frames are reported as packet rate).
PAPER_GBPS = {64: 3.6, 1500: 84.0, 9000: 99.7}
PAPER_MPPS = {64: 7.0, 1500: 7.0, 9000: 1.4}


def test_figure4_throughput_series(benchmark):
    """The Figure 4 bars, read off programs that have forwarded frames."""
    programs = figure5_programs()
    figure5(programs)  # each program processes its probe frame
    rates = benchmark(figure4, programs)

    rows = []
    results = {
        "environment": environment_info(),
        "inputs": {
            "line_rate_bps": LINE_RATE_BPS,
            "generator_packet_rate": GENERATOR_PACKET_RATE,
        },
    }
    for (name, frame_bytes), rate in rates.items():
        gbps = rate * frame_bytes * 8 / 1e9
        rows.append(
            [
                name,
                frame_bytes,
                f"{gbps:.3f} Gbit/s",
                f"{rate / 1e6:.3f} Mpkt/s",
                f"{PAPER_GBPS[frame_bytes]:.1f} / {PAPER_MPPS[frame_bytes]:.1f}",
                "generator" if rate == GENERATOR_PACKET_RATE else "line rate",
            ]
        )
        results[f"{name}_{frame_bytes}"] = {
            "throughput_gbps": gbps,
            "packet_rate_mpps": rate / 1e6,
        }

    table = format_table(
        ["operation", "frame size [B]", "throughput", "packet rate",
         "paper (Gbit/s / Mpkt/s)", "bound by"],
        rows,
        title="Figure 4 — throughput with the switch performing various operations "
        "(arithmetic: 100 Gbit/s line rate and 7 Mpkt/s generator cap are inputs)",
    )
    emit_result("figure4_throughput", table)
    save_results_json(RESULTS_DIR / "figure4_throughput.json", results)

    for frame_bytes in FIGURE4_FRAME_SIZES:
        assert len({rates[(name, frame_bytes)] for name in programs}) == 1
    assert round(results["encode_9000"]["throughput_gbps"], 3) == 99.734
    assert not programs["encode"].pipeline.uses_forbidden_features
    assert not programs["decode"].pipeline.uses_forbidden_features


def _chunk_frames(count: int, transform: GDTransform) -> list:
    rng = random.Random(7)
    code = transform.code
    frames = []
    for _ in range(count):
        basis = rng.getrandbits(code.k)
        body = code.encode(basis) ^ (1 << rng.randrange(code.n))
        chunk = ((rng.getrandbits(1) << code.n) | body).to_bytes(32, "big")
        frames.append(
            EthernetFrame(DST, SRC, ETHERTYPE_RAW_CHUNK, chunk).to_bytes()
        )
    return frames


def test_functional_model_encode_packet_rate(benchmark):
    """Packets/second of the Python encoder model (not a line-rate claim)."""
    transform = GDTransform(order=8)
    encoder = ZipLineEncoderSwitch(transform=transform, forwarding={0: 1})
    encoder.switch.attach_port(1, lambda data, time: None)
    frames = _chunk_frames(200, transform)

    def push_all():
        for frame in frames:
            encoder.receive(frame, ingress_port=0)
        return encoder.switch.total_rx_packets()

    benchmark(push_all)


def test_functional_model_noop_packet_rate(benchmark):
    """Packets/second of plain forwarding through the model (baseline cost)."""
    transform = GDTransform(order=8)
    encoder = ZipLineEncoderSwitch(transform=transform, forwarding={0: 1})
    encoder.switch.attach_port(1, lambda data, time: None)
    frame = EthernetFrame(DST, SRC, EtherType.IPV4, b"x" * 50).to_bytes()
    frames = [frame] * 200

    def push_all():
        for raw in frames:
            encoder.receive(raw, ingress_port=0)
        return True

    benchmark(push_all)
