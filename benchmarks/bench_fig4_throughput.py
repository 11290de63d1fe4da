"""Figure 4: network throughput with the switch performing no-op/encode/decode.

The paper transfers raw Ethernet frames of 64, 1500 and 9000 bytes for ten
seconds through the switch running each of the three programs and reports
Gbit/s and Mpkt/s.  Absolute line-rate numbers cannot be demonstrated in
Python, so this benchmark reproduces the figure in two parts:

1. the *analytical series* from :mod:`repro.perfmodel` — identical bars for
   the three operations, generator-bound small frames (~7 Mpkt/s) and
   line-rate jumbo frames — after verifying against the actual encoder and
   decoder pipelines that neither program recirculates or duplicates
   packets (the precondition of the vendor's line-rate guarantee);
2. the *functional packet rate* of the Python switch models, benchmarked
   with pytest-benchmark, so regressions in the data-plane model's cost are
   visible.
"""

import random

from repro.analysis.experiment import PAPER_REPETITIONS
from repro.analysis.reporting import format_table, save_results_json
from repro.analysis.statistics import summarize
from repro.core.transform import GDTransform
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.mac import MacAddress
from repro.perfmodel import SwitchOperation, ThroughputModel
from repro.zipline.decoder_switch import ZipLineDecoderSwitch
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
    """The Figure 4 bars, derived from the path model with 10 repetitions."""
    transform = GDTransform(order=8)
    encoder = ZipLineEncoderSwitch(transform=transform)
    decoder = ZipLineDecoderSwitch(transform=transform)
    operations = [
        SwitchOperation("no_op"),
        SwitchOperation("encode", pipeline=encoder.pipeline),
        SwitchOperation("decode", pipeline=decoder.pipeline),
    ]

    model = ThroughputModel(measurement_noise=0.01, seed=2020)

    rows = []
    # Absolute numbers are machine-bound; note the environment in the JSON
    # so trajectories across commits stay comparable.
    results = {"environment": environment_info()}
    for operation in operations:
        for frame_bytes in (64, 1500, 9000):
            gbps = summarize(
                [
                    model.measure(operation, frame_bytes, noisy=True).throughput_gbps
                    for _ in range(PAPER_REPETITIONS)
                ]
            )
            mpps = summarize(
                [
                    model.measure(operation, frame_bytes, noisy=True).packet_rate_mpps
                    for _ in range(PAPER_REPETITIONS)
                ]
            )
            rows.append(
                [
                    operation.name,
                    frame_bytes,
                    gbps.format("Gbit/s"),
                    mpps.format("Mpkt/s"),
                    f"{PAPER_GBPS[frame_bytes]:.1f} / {PAPER_MPPS[frame_bytes]:.1f}",
                    model.measure(operation, frame_bytes).bottleneck,
                ]
            )
            results[f"{operation.name}_{frame_bytes}"] = {
                "throughput_gbps": gbps.mean,
                "packet_rate_mpps": mpps.mean,
            }

    table = format_table(
        ["operation", "frame size [B]", "throughput", "packet rate",
         "paper (Gbit/s / Mpkt/s)", "bottleneck"],
        rows,
        title="Figure 4 — throughput with the switch performing various operations",
    )
    emit_result("figure4_throughput", table)
    save_results_json(RESULTS_DIR / "figure4_throughput.json", results)

    # The benchmarked operation: one full Figure 4 model evaluation.
    benchmark(model.figure4, operations)

    # Shape assertions: programs indistinguishable, jumbo at line rate.
    assert results["encode_9000"]["throughput_gbps"] > 98
    assert abs(
        results["encode_1500"]["throughput_gbps"] - results["no_op_1500"]["throughput_gbps"]
    ) < 2.0
    assert not encoder.pipeline.uses_forbidden_features
    assert not decoder.pipeline.uses_forbidden_features


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
