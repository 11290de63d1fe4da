"""Hot-path trajectory benchmark: the fused GD fast path, tracked PR over PR.

The paper's whole pitch is compression *at line speed*; this benchmark is
the reproduction's speedometer.  It measures the layers the fused fast path
rebuilt and asserts both directions of the contract:

* **correctness** — the fast path is bit-identical to the reference,
  called by name (``HammingCode.chunk_to_basis`` per chunk / the
  interpreted switch program, the test oracle
  ``tests/zipline/p4_oracle.py``'s ``receive``) on every workload it times;
* **performance** — machine-independent *speedup ratios* (fast vs reference
  on the same machine, same run) must not regress.  Absolute numbers go
  into the results JSON next to the machine/Python metadata; the committed
  trajectory lives in ``BENCH_hotpath.json`` at the repository root, and
  the assertions fail when a ratio drops more than 30 % below the
  committed baseline.

Measured stages:

1. *transform microbench* — ``split_batch_fields`` (lane-fused) vs the
   reference per-chunk ``chunk_to_basis`` (the pre-PR hot loop);
2. *switch encode* — the Figure 4 functional scenario (raw-chunk frames
   through ``ZipLineEncoderSwitch``), compiled ``receive`` vs the
   interpreted program of the test oracle, with byte-identical output
   asserted (run from the repository root, which the oracle is imported
   from as ``tests.zipline.p4_oracle``);
3. *backend matrix* — every available codec backend (``pure``, ``numpy``
   when installed) over the same corpus: whole-buffer field split,
   columnar batch split, bulk parity, batch join, whole-buffer batch CRC
   (``crc_batch``), the container pipeline (``codec_compress_batch`` /
   ``codec_decompress_batch``) and the streaming engine over 64 KiB
   blocks (``stream_compress`` / ``stream_decompress``).  Each backend's
   output is asserted bit-identical to ``pure`` — and the container to
   the per-record ``to_bytes`` layout oracle — before it is timed; the
   numpy-vs-pure batch speedups are guarded by hard floors plus the
   committed same-backend generations in ``BENCH_hotpath.json`` (its
   ``stream_*_vs_container`` entries are history: one GDZ1 writer and one
   reader serve both stages, so there is no fork left to compare).

``REPRO_BENCH_BACKENDS`` (comma-separated names) restricts the backend
matrix — ``repro bench --suite hotpath --backend numpy`` sets it.  The
legacy fast-vs-reference stages always run on the ``pure`` backend so
their ratios stay comparable with the backend-less committed baseline;
guards only ever compare generations recorded for the same backend.

Every guarded number is a *ratio*, and both sides of a ratio are timed
interleaved — a, b, a, b, … best of :data:`GUARD_REPEATS` each
(:func:`_best_interleaved`) — so a noisy neighbour on a shared host slows
numerator and denominator alike instead of whichever happened to run
during the burst.

``REPRO_BENCH_SMOKE=1`` scales the workloads down for CI; the equivalence
checks and the regression guards hold in both modes.
"""

import json
import os
import random
import time
from pathlib import Path

from repro.analysis.reporting import format_table, save_results_json
from repro.core import backends as codec_backends
from repro.core.codec import GDCodec
from repro.core.engine import DEFAULT_BLOCK_SIZE, GDStreamCompressor
from repro.core.transform import GDTransform
from repro.net.ethernet import EthernetFrame
from repro.net.mac import MacAddress
from repro.workloads import SyntheticSensorWorkload
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

from benchmarks.conftest import RESULTS_DIR, emit_result, environment_info
from tests.zipline import p4_oracle

#: Scaled down when REPRO_BENCH_SMOKE is set (CI smoke mode).
SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))
CHUNKS = 4_000 if SMOKE else 20_000
FRAMES = 200  # the Figure 4 functional batch size
REPEATS = 3
#: Rounds per side of a guarded ratio (the sides alternate within a round).
GUARD_REPEATS = 7 if SMOKE else 10

#: Committed speedup trajectory (see docs/performance.md).
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

#: A current ratio below ``(1 - TOLERANCE) * baseline`` fails the bench.
REGRESSION_TOLERANCE = 0.30

#: Machine-independent hard floors, far below the measured ratios, so a
#: fast path that silently stops being fast fails even without a baseline.
MIN_TRANSFORM_SPEEDUP = 3.0
MIN_SWITCH_SPEEDUP = 1.8

#: The vectorized backend must beat the pure batch path by at least this
#: much on the columnar split (the acceptance criterion is 5x over the
#: committed absolute baseline; the measured ratio is ~8x).
MIN_NUMPY_BATCH_SPEEDUP = 3.0

#: The batched end-to-end compress on the numpy backend must reach at
#: least this multiple of the committed ``codec_compress_mbps`` absolute
#: baseline (12.3 MB/s → floor 49.2 MB/s; measured ~65 MB/s).
MIN_NUMPY_COMPRESS_VS_COMMITTED = 4.0

#: Optional comma-separated backend filter (set by ``repro bench --backend``).
BACKEND_FILTER = os.environ.get("REPRO_BENCH_BACKENDS", "")

DST = MacAddress("02:00:00:00:00:02")
SRC = MacAddress("02:00:00:00:00:01")


def _best_interleaved(sides, repeats=GUARD_REPEATS):
    """Best-of-N seconds of every ``label: function`` in ``sides``, timed
    round-robin: each round runs every side once, in order."""
    best = dict.fromkeys(sides, float("inf"))
    for _ in range(repeats):
        for label, function in sides.items():
            start = time.perf_counter()
            function()
            best[label] = min(best[label], time.perf_counter() - start)
    return best


def _best_seconds(function, repeats=REPEATS):
    """Best-of-N wall time of ``function()``, in seconds (unguarded stages)."""
    return _best_interleaved({"only": function}, repeats)["only"]


def _chunk_buffer():
    """The synthetic sensor trace as one contiguous chunk buffer."""
    workload = SyntheticSensorWorkload(
        num_chunks=CHUNKS, distinct_bases=32, seed=2020
    )
    return b"".join(workload.chunks())


def _chunk_frames(transform, count):
    """Raw-chunk Ethernet frames, as in the Figure 4 functional benchmark."""
    rng = random.Random(7)
    code = transform.code
    frames = []
    for _ in range(count):
        basis = rng.getrandbits(code.k)
        body = code.encode(basis) ^ (1 << rng.randrange(code.n))
        chunk = ((rng.getrandbits(1) << code.n) | body).to_bytes(32, "big")
        frames.append(EthernetFrame(DST, SRC, ETHERTYPE_RAW_CHUNK, chunk).to_bytes())
    return frames


def _load_trajectory():
    """The committed trajectory document, or ``{}`` when absent."""
    if not TRAJECTORY_PATH.exists():
        return {}
    return json.loads(TRAJECTORY_PATH.read_text(encoding="utf-8"))


def _load_baseline():
    """The committed trajectory baseline, or ``None`` when absent."""
    return _load_trajectory().get("baseline") or None


def _selected_backends():
    """Available backends to bench, after the ``REPRO_BENCH_BACKENDS`` filter.

    ``pure`` is always measured — it is the denominator of every backend
    ratio — so a filter only restricts the *accelerated* backends.
    """
    available = codec_backends.available_backend_names()
    if not BACKEND_FILTER.strip():
        return available
    requested = [name.strip() for name in BACKEND_FILTER.split(",") if name.strip()]
    for name in requested:
        assert name in codec_backends.backend_names(), (
            f"REPRO_BENCH_BACKENDS names unknown backend {name!r}; "
            f"registered: {', '.join(codec_backends.backend_names())}"
        )
        assert name in available, (
            f"REPRO_BENCH_BACKENDS names unavailable backend {name!r}: "
            f"{codec_backends.get_backend(name).availability_detail()}"
        )
    selected = [name for name in available if name in requested]
    if "pure" not in selected:
        selected.insert(0, "pure")
    return selected


def _guard(label, current, baseline_value):
    """Fail when ``current`` regressed >30 % below the committed baseline."""
    if baseline_value is None:
        return
    floor = (1.0 - REGRESSION_TOLERANCE) * baseline_value
    assert current >= floor, (
        f"{label} regressed: {current:.2f} vs committed baseline "
        f"{baseline_value:.2f} (floor {floor:.2f})"
    )


def test_hotpath_trajectory():
    """Measure fast vs reference, assert equivalence and guard the ratios."""
    data = _chunk_buffer()
    total_bytes = len(data)
    # The legacy stages are pinned to the pure backend: their committed
    # baseline ratios predate the backend registry and were measured on
    # the fused pure-Python path, so that is what they keep guarding.
    fast_transform = GDTransform(order=8, backend="pure")
    chunk_bytes = fast_transform.chunk_bytes
    code = fast_transform.code
    body_mask = (1 << code.n) - 1

    def reference_split():
        """Every chunk through the checked ``HammingCode`` layer, by name."""
        fields = []
        for offset in range(0, total_bytes, chunk_bytes):
            value = int.from_bytes(data[offset : offset + chunk_bytes], "big")
            basis, deviation = code.chunk_to_basis(value & body_mask)
            fields.append((value >> code.n, basis, deviation))
        return fields

    # -- 1. transform microbench (encode direction) ------------------------
    fast_fields = fast_transform.split_batch_fields(data)
    assert fast_fields == reference_split(), "fast transform diverged from reference"

    seconds = _best_interleaved(
        {
            "fast": lambda: fast_transform.split_batch_fields(data),
            "reference": reference_split,
        }
    )
    transform_fast_mbps = total_bytes / seconds["fast"] / 1e6
    transform_reference_mbps = total_bytes / seconds["reference"] / 1e6
    transform_speedup = transform_fast_mbps / transform_reference_mbps

    # decode direction: join the whole batch back, both paths, and verify
    # the transform round-trips bit for bit.
    rejoined = b"".join(
        fast_transform.join_fields_fast(prefix, basis, deviation).to_bytes(
            chunk_bytes, "big"
        )
        for prefix, basis, deviation in fast_fields
    )
    assert rejoined == data, "fast round trip is not bit-identical"
    join_fast_seconds = _best_seconds(
        lambda: [
            fast_transform.join_fields_fast(prefix, basis, deviation)
            for prefix, basis, deviation in fast_fields
        ]
    )
    join_fast_mbps = total_bytes / join_fast_seconds / 1e6

    # -- 2. switch encode (the Figure 4 functional scenario) ---------------
    frames = _chunk_frames(fast_transform, FRAMES)

    def switch_side(compiled):
        switch = ZipLineEncoderSwitch(transform=GDTransform(order=8), forwarding={0: 1})
        outputs = []
        switch.switch.attach_port(1, lambda frame, _time: outputs.append(frame))
        def push_all():
            if compiled:
                for frame in frames:
                    switch.receive(frame, ingress_port=0)
            else:
                for frame in frames:
                    p4_oracle.receive(switch, frame, 0)

        return outputs, push_all

    fast_outputs, push_compiled = switch_side(True)
    reference_outputs, push_interpreted = switch_side(False)
    seconds = _best_interleaved(
        {"compiled": push_compiled, "interpreted": push_interpreted}
    )
    assert fast_outputs == reference_outputs, "switch fast path diverged"
    switch_fast_pps = len(frames) / seconds["compiled"]
    switch_reference_pps = len(frames) / seconds["interpreted"]
    switch_speedup = switch_fast_pps / switch_reference_pps

    # -- 3. backend matrix --------------------------------------------------
    backend_names = _selected_backends()
    backend_results = {}
    pure_bases = [basis for _, basis, _ in fast_fields]
    pure_parities = list(fast_transform.code.parities_of_bases(pure_bases))
    # The batch join reads the basis rows back to back (BatchSplit).
    pure_rows = b"".join(basis.to_bytes(31, "big") for basis in pure_bases)
    # Whole-buffer batch CRC reference: the switch fast path's chunk CRC
    # (plain remainder over one chunk width), pure fold.
    crc_record_bits = 8 * chunk_bytes
    pure_crcs = fast_transform.code.crc_engine.compute_batch(
        data, crc_record_bits, backend="pure"
    )
    # Container reference: every record's own ``to_bytes`` behind its tag
    # byte — every backend's pipeline must produce these exact bytes.
    oracle_codec = GDCodec(order=8, identifier_bits=15, backend="pure")
    oracle_records = oracle_codec.compress(data).records
    oracle_body = b"".join(
        bytes([int(record.record_type)]) + record.to_bytes()
        for record in oracle_records
    )
    oracle_container = b"".join(
        oracle_codec.write_container([(oracle_body, total_bytes)])
    )
    blocks = [
        data[offset : offset + DEFAULT_BLOCK_SIZE]
        for offset in range(0, total_bytes, DEFAULT_BLOCK_SIZE)
    ]
    # Guarded stages: ``sides[stage][backend]`` are timed interleaved after
    # the loop — every ratio below divides two entries of one ``sides`` row
    # (numpy vs pure).
    stages = ("transform_batch", "crc_batch", "compress", "decompress")
    sides = {stage: {} for stage in stages}
    for name in backend_names:
        transform = GDTransform(order=8, backend=name)
        # correctness before timing: every backend must reproduce the
        # pure fields, parities and joined bytes on the bench corpus.
        fields = transform.split_batch_fields(data)
        assert fields == fast_fields, f"backend {name!r} fields diverged from pure"
        columns = transform.split_batch_columns(data)
        assert columns.fields() == fast_fields, (
            f"backend {name!r} columnar split diverged from pure"
        )
        prefixes = [prefix for prefix, _, _ in fields]
        deviations = [deviation for _, _, deviation in fields]
        parities = list(
            transform.code.parities_of_bases(
                pure_bases, backend=transform.backend_impl
            )
        )
        assert parities == pure_parities, f"backend {name!r} parities diverged"
        joined = transform.join_batch_to_bytes(prefixes, pure_rows, deviations)
        assert joined == data, f"backend {name!r} batch join is not bit-identical"

        fields_seconds = _best_seconds(lambda: transform.split_batch_fields(data))
        sides["transform_batch"][name] = (
            lambda transform=transform: transform.split_batch_columns(data)
        )
        parity_seconds = _best_seconds(
            lambda: transform.code.parities_of_bases(
                pure_bases, backend=transform.backend_impl
            )
        )
        join_seconds = _best_seconds(
            lambda: transform.join_batch_to_bytes(prefixes, pure_rows, deviations)
        )

        # batch CRC: one whole-buffer call, bit-identical to the pure fold.
        crc_engine = transform.code.crc_engine
        batch_crcs = crc_engine.compute_batch(data, crc_record_bits, backend=name)
        assert batch_crcs == pure_crcs, f"backend {name!r} batch CRCs diverged"
        sides["crc_batch"][name] = (
            lambda crc_engine=crc_engine, name=name: crc_engine.compute_batch(
                data, crc_record_bits, backend=name
            )
        )

        # batched codec pipeline: compress (timed like the committed
        # ``codec_compress`` baseline), then the container pack and the
        # columnar container decode, all equality-asserted before timing.
        codec = GDCodec(order=8, identifier_bits=15, backend=name)
        blob = codec.to_container(codec.compress(data))
        assert blob == oracle_container, (
            f"backend {name!r} container diverged from the per-record "
            "serialisation"
        )
        assert (
            GDCodec(order=8, identifier_bits=15, backend=name).decompress_container(
                blob
            )
            == data
        ), f"backend {name!r} batched container round trip failed"
        sides["compress"]["codec_compress_batch", name] = (
            lambda name=name: GDCodec(
                order=8, identifier_bits=15, backend=name
            ).compress(data)
        )
        sides["decompress"]["codec_decompress_batch", name] = (
            lambda name=name, blob=blob: GDCodec(
                order=8, identifier_bits=15, backend=name
            ).decompress_container(blob)
        )

        # streaming engine: the same record pipeline behind 64 KiB blocks.
        def compressor(name=name):
            return GDStreamCompressor(order=8, identifier_bits=15, backend=name)

        stream = b"".join(compressor().compress_stream(blocks))
        assert b"".join(compressor().decompress_stream([stream])) == data, (
            f"backend {name!r} stream round trip failed"
        )
        stream_blocks = [
            stream[offset : offset + DEFAULT_BLOCK_SIZE]
            for offset in range(0, len(stream), DEFAULT_BLOCK_SIZE)
        ]
        sides["compress"]["stream_compress", name] = (
            lambda compressor=compressor: b"".join(
                compressor().compress_stream(blocks)
            )
        )
        sides["decompress"]["stream_decompress", name] = (
            lambda compressor=compressor, stream_blocks=stream_blocks: b"".join(
                compressor().decompress_stream(stream_blocks)
            )
        )

        backend_results[name] = {
            "transform_fields_mbps": total_bytes / fields_seconds / 1e6,
            "parity_batch_mparities_per_s": len(pure_bases) / parity_seconds / 1e6,
            "join_batch_mbps": total_bytes / join_seconds / 1e6,
        }
    for stage in ("transform_batch", "crc_batch"):
        for name, seconds in _best_interleaved(sides[stage]).items():
            backend_results[name][f"{stage}_mbps"] = total_bytes / seconds / 1e6
    for direction in ("compress", "decompress"):
        for (stage, name), seconds in _best_interleaved(sides[direction]).items():
            backend_results[name][f"{stage}_mbps"] = total_bytes / seconds / 1e6
    pure_batch_mbps = backend_results["pure"]["transform_batch_mbps"]
    pure_metrics = backend_results["pure"]
    for name, metrics in backend_results.items():
        metrics["batch_speedup_vs_pure"] = (
            metrics["transform_batch_mbps"] / pure_batch_mbps
        )
        metrics["crc_batch_speedup_vs_pure"] = (
            metrics["crc_batch_mbps"] / pure_metrics["crc_batch_mbps"]
        )
        metrics["compress_batch_speedup_vs_pure"] = (
            metrics["codec_compress_batch_mbps"]
            / pure_metrics["codec_compress_batch_mbps"]
        )
        metrics["decompress_batch_speedup_vs_pure"] = (
            metrics["codec_decompress_batch_mbps"]
            / pure_metrics["codec_decompress_batch_mbps"]
        )

    # -- report -------------------------------------------------------------
    results = {
        "environment": environment_info(),
        "smoke": SMOKE,
        "chunks": CHUNKS,
        "transform_fast_mbps": transform_fast_mbps,
        "transform_reference_mbps": transform_reference_mbps,
        "transform_speedup": transform_speedup,
        "join_fast_mbps": join_fast_mbps,
        "switch_fast_pps": switch_fast_pps,
        "switch_reference_pps": switch_reference_pps,
        "switch_speedup": switch_speedup,
        "backends": backend_results,
    }
    rows = [
        ["transform split (fused)", f"{transform_fast_mbps:.1f} MB/s",
         f"{transform_speedup:.1f}x vs reference"],
        ["transform split (reference)", f"{transform_reference_mbps:.1f} MB/s", "1.0x"],
        ["transform join (fused)", f"{join_fast_mbps:.1f} MB/s", ""],
        ["switch encode (compiled)", f"{switch_fast_pps:,.0f} pkt/s",
         f"{switch_speedup:.1f}x vs interpreted"],
        ["switch encode (interpreted)", f"{switch_reference_pps:,.0f} pkt/s", "1.0x"],
    ]
    for name in backend_names:
        metrics = backend_results[name]
        rows.extend(
            [
                [f"[{name}] transform fields",
                 f"{metrics['transform_fields_mbps']:.1f} MB/s", ""],
                [f"[{name}] transform batch",
                 f"{metrics['transform_batch_mbps']:.1f} MB/s",
                 f"{metrics['batch_speedup_vs_pure']:.1f}x vs pure"],
                [f"[{name}] parity batch",
                 f"{metrics['parity_batch_mparities_per_s']:.2f} Mparity/s", ""],
                [f"[{name}] join batch",
                 f"{metrics['join_batch_mbps']:.1f} MB/s", ""],
                [f"[{name}] crc batch",
                 f"{metrics['crc_batch_mbps']:.1f} MB/s",
                 f"{metrics['crc_batch_speedup_vs_pure']:.1f}x vs pure"],
                [f"[{name}] codec compress batch",
                 f"{metrics['codec_compress_batch_mbps']:.1f} MB/s",
                 f"{metrics['compress_batch_speedup_vs_pure']:.1f}x vs pure"],
                [f"[{name}] codec decompress batch",
                 f"{metrics['codec_decompress_batch_mbps']:.1f} MB/s",
                 f"{metrics['decompress_batch_speedup_vs_pure']:.1f}x vs pure"],
                [f"[{name}] stream compress",
                 f"{metrics['stream_compress_mbps']:.1f} MB/s",
                 ""],
                [f"[{name}] stream decompress",
                 f"{metrics['stream_decompress_mbps']:.1f} MB/s",
                 ""],
            ]
        )
    table = format_table(
        ["stage", "throughput", "speedup"],
        rows,
        title="hot path — fused fast path vs reference",
    )
    emit_result("hotpath", table)
    save_results_json(RESULTS_DIR / "hotpath.json", results)

    # -- guards -------------------------------------------------------------
    assert transform_speedup >= MIN_TRANSFORM_SPEEDUP, (
        f"transform fast path only {transform_speedup:.2f}x over the reference "
        f"(floor {MIN_TRANSFORM_SPEEDUP}x)"
    )
    assert switch_speedup >= MIN_SWITCH_SPEEDUP, (
        f"switch fast path only {switch_speedup:.2f}x over the interpreted "
        f"pipeline (floor {MIN_SWITCH_SPEEDUP}x)"
    )
    if "numpy" in backend_results:
        numpy_speedup = backend_results["numpy"]["batch_speedup_vs_pure"]
        assert numpy_speedup >= MIN_NUMPY_BATCH_SPEEDUP, (
            f"numpy batch split only {numpy_speedup:.2f}x over the pure "
            f"backend (floor {MIN_NUMPY_BATCH_SPEEDUP}x)"
        )
    trajectory = _load_trajectory()
    baseline = trajectory.get("baseline")
    if "numpy" in backend_results and baseline is not None:
        committed_compress = baseline.get("absolute", {}).get("codec_compress_mbps")
        if committed_compress:
            floor = MIN_NUMPY_COMPRESS_VS_COMMITTED * committed_compress
            current = backend_results["numpy"]["codec_compress_batch_mbps"]
            assert current >= floor, (
                f"numpy batched compress only {current:.1f} MB/s; the "
                f"acceptance floor is {MIN_NUMPY_COMPRESS_VS_COMMITTED}x the "
                f"committed {committed_compress} MB/s baseline ({floor:.1f})"
            )
    if baseline is not None:
        ratios = baseline.get("speedups", {})
        # Older baselines predate the backend registry and carry no
        # "backend" key; they guard the pure-pinned legacy stages only.
        # A generation recorded for another backend never judges this run.
        if ratios.get("backend") in (None, "pure"):
            _guard("transform speedup", transform_speedup, ratios.get("transform"))
            _guard("switch speedup", switch_speedup, ratios.get("switch"))
    for generation in trajectory.get("generations", []):
        name = generation.get("backend")
        if name not in backend_results:
            continue  # backend filtered out or unavailable here
        speedups = generation.get("speedups", {})
        for committed_key, metric_key in (
            ("batch_vs_pure", "batch_speedup_vs_pure"),
            ("crc_batch_vs_pure", "crc_batch_speedup_vs_pure"),
            ("compress_batch_vs_pure", "compress_batch_speedup_vs_pure"),
            ("decompress_batch_vs_pure", "decompress_batch_speedup_vs_pure"),
        ):
            _guard(
                f"{name} {committed_key.replace('_', ' ')}",
                backend_results[name][metric_key],
                speedups.get(committed_key),
            )
