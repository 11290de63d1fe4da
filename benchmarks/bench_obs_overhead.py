"""Observability overhead: disabled tracing must stay off the hot path.

The telemetry layer (:mod:`repro.obs`) instruments the encoder/decoder
switches, the emulated links and the simulator.  The contract is that with
the default :class:`~repro.obs.NullTracer` installed, instrumentation costs
one module-attribute lookup plus one ``enabled`` check per instrumented
branch — nothing else (no argument dicts, no string formatting).  This
benchmark guards that contract on the encoder switch's hot path:

* **disabled overhead** — the measured cost of the guard sequence
  (``_obs.TRACER`` + ``.enabled``), times the guard evaluations per frame,
  must stay at or below 2 % of the per-frame cost of the fast path;
* **byte-identity** — a traced fan-in topology run must produce a report
  byte-identical to the untraced run (tracing observes, never perturbs);
* **sample trace artifact** — the traced run's events are exported as a
  Chrome/Perfetto ``trace_event`` JSON under ``benchmarks/results/`` so CI
  uploads a trace that can be dropped straight into ui.perfetto.dev.

Set ``REPRO_BENCH_SMOKE=1`` for the scaled-down CI smoke mode.
"""

import os
import random
import time
import timeit

from repro import obs
from repro.analysis.reporting import format_table, save_results_json
from repro.core.transform import GDTransform
from repro.net.ethernet import EthernetFrame
from repro.net.mac import MacAddress
from repro.topology import preset_topology, run_topology
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

from benchmarks.conftest import RESULTS_DIR, emit_result, environment_info

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
FRAMES = 2_000 if SMOKE else 20_000
REPEATS = 3 if SMOKE else 5
GUARD_SAMPLES = 200_000 if SMOKE else 1_000_000

#: Guard evaluations per frame on the functional-mode encoder fast path:
#: one ``_obs.TRACER``/``.enabled`` pair in ``_compiled_ingress``.  (The switch
#: transmit guard is behind the simulator check and the link/simulator
#: guards are not on this path.)
GUARDS_PER_FRAME = 1

#: Disabled instrumentation may cost at most this fraction of the hot path.
MAX_DISABLED_OVERHEAD = 0.02

#: Traced fan-in run used for the byte-identity check and the sample trace.
TRACE_CHUNKS = 60 if SMOKE else 200
SNAPSHOT_INTERVAL = 1e-5

DST = MacAddress("02:00:00:00:00:02")
SRC = MacAddress("02:00:00:00:00:01")


def _chunk_frames(count: int, transform: GDTransform) -> list:
    """Raw-chunk frames, each a random codeword with one bit flipped."""
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


def _encoder_and_frames():
    transform = GDTransform(order=8)
    encoder = ZipLineEncoderSwitch(transform=transform, forwarding={0: 1})
    encoder.switch.attach_port(1, lambda data, time: None)
    return encoder, _chunk_frames(FRAMES, transform)


def _median_frame_seconds(encoder, frames):
    """Median per-frame wall time over REPEATS pushes of the frame list."""
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for frame in frames:
            encoder.receive(frame, ingress_port=0)
        samples.append((time.perf_counter() - started) / len(frames))
    return sorted(samples)[len(samples) // 2]


def test_obs_disabled_overhead(benchmark):
    """Guard cost x guards/frame must stay ≤ 2 % of the per-frame cost."""
    assert not obs.TRACER.enabled, "benchmark requires the default NullTracer"

    encoder, frames = _encoder_and_frames()
    frame_seconds = _median_frame_seconds(encoder, frames)

    # The exact sequence every instrumented branch executes when disabled.
    guard_seconds = (
        timeit.timeit("o.TRACER.enabled", globals={"o": obs}, number=GUARD_SAMPLES)
        / GUARD_SAMPLES
    )
    overhead = (GUARDS_PER_FRAME * guard_seconds) / frame_seconds
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled tracing costs {overhead:.2%} of the encoder hot path "
        f"({GUARDS_PER_FRAME} x {guard_seconds * 1e9:.1f} ns guard vs "
        f"{frame_seconds * 1e6:.2f} us/frame), above the "
        f"{MAX_DISABLED_OVERHEAD:.0%} budget"
    )

    # Byte-identity: tracing observes the run, it never perturbs it.
    spec_kwargs = dict(chunks=TRACE_CHUNKS, bases=4, seed=2020)
    plain = run_topology(preset_topology("fan-in", **spec_kwargs), workers=1)
    started = time.perf_counter()
    tracer = obs.enable(snapshot_interval=SNAPSHOT_INTERVAL)
    try:
        traced = run_topology(preset_topology("fan-in", **spec_kwargs), workers=1)
    finally:
        obs.disable()
    traced_seconds = time.perf_counter() - started
    assert traced.json_text() == plain.json_text(), (
        "traced fan-in report differs from the untraced one"
    )

    # The sample Perfetto trace CI uploads as an artifact.
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    sample_path = RESULTS_DIR / "obs_sample_trace.json"
    records = obs.write_chrome_trace(tracer.sink.events, sample_path)
    assert records == len(tracer.sink.events)

    table_text = format_table(
        ["metric", "value"],
        [
            ["frames", f"{FRAMES:,}"],
            ["frame time (disabled)", f"{frame_seconds * 1e6:.3f} us"],
            ["guard cost", f"{guard_seconds * 1e9:.1f} ns"],
            ["disabled overhead", f"{overhead:.3%} (budget "
                                  f"{MAX_DISABLED_OVERHEAD:.0%})"],
            ["traced fan-in run", f"{traced_seconds:.3f} s, "
                                  f"{records:,} events"],
            ["report byte-identical", "yes"],
            ["sample trace", str(sample_path.name)],
        ],
        title="observability overhead"
        + (" (smoke mode)" if SMOKE else ""),
    )
    emit_result("obs_overhead", table_text)
    save_results_json(
        RESULTS_DIR / "obs_overhead.json",
        {
            "mode": "smoke" if SMOKE else "full",
            "frames": FRAMES,
            "frame_seconds_disabled": frame_seconds,
            "guard_seconds": guard_seconds,
            "guards_per_frame": GUARDS_PER_FRAME,
            "disabled_overhead_fraction": overhead,
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "traced_run_seconds": traced_seconds,
            "trace_events": records,
            "environment": environment_info(),
        },
    )

    # Hot path under benchmark: the disabled-mode frame push.
    def push_all():
        for frame in frames:
            encoder.receive(frame, ingress_port=0)
        return encoder.switch.port_stats(0).rx_packets

    benchmark(push_all)
