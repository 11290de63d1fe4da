"""Command-line interface for the ZipLine reproduction.

Exposes the pieces a user reaches for most often without writing Python:

* ``compress`` / ``decompress`` — streaming file compression with any codec
  in the registry (GD with its self-describing ``GDZ1`` container, gzip,
  classic dedup, null), processed in bounded memory so file size does not
  matter; decompression detects the format from the file's magic;
* ``codecs`` — list the registered compressors;
* ``generate-trace`` — write a synthetic-sensor or DNS chunk trace as a pcap
  file ready to replay;
* ``replay`` — run a pcap trace through an emulated ZipLine topology
  (encoder → lossy, reordering link(s) → decoder) and report ratio,
  latency percentiles and counters; see :mod:`repro.replay`;
* ``topology`` — run a topology graph (JSON spec or a named preset such as
  the K-sender ``fan-in``) with per-flow reporting; see
  :mod:`repro.topology` and ``docs/topology.md``;
* ``experiment`` — run a scenario-matrix spec (JSON/TOML) as replay runs,
  optionally sharded over worker processes, into one aggregate table; see
  :mod:`repro.experiments` and ``docs/experiments.md``;
* ``trace`` — summarize the files the run commands' ``--trace-out`` /
  ``--events-out`` flags record; see ``docs/observability.md``;
* ``bench`` — run any of the ``benchmarks/bench_*.py`` files in the CI's
  smoke mode (or ``--full``), or ``--profile`` the :data:`PROFILE_STAGES`
  with cProfile; see ``docs/performance.md``;
* ``claims`` — compute rows of :data:`repro.analysis.figures.CLAIMS`, the
  paper's numbers, and exit 1 when one does not hold.

Invoke with ``repro ...`` (the console script), ``python -m repro ...``, or
look at ``repro.cli.main``.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from repro import obs, registry
from repro.analysis.figures import CLAIMS, CLAIMS_HEADER, claim_row, select_claims
from repro.analysis.reporting import format_table, save_results_json
from repro.core.engine import DEFAULT_BLOCK_SIZE, compress_file, decompress_file
from repro.exceptions import ReproError
from repro.experiments import ExperimentSpec, MatrixRunner
from repro.topology import (
    TopologyEngine,
    TopologyReport,
    TopologySpec,
    linear_topology,
)
from repro.topology.spec import (
    CONTROL_MODES,
    LINEAR_SHAPES,
    PACINGS,
    RUN_PARAMETERS,
    SCENARIOS,
)
from repro.workloads import WORKLOAD_FACTORIES

__all__ = ["build_parser", "main"]


#: ``repro replay``'s run-parameter flags as (parameter, choices, help):
#: what ``_cmd_replay`` forwards to the chain preset under the parameter's
#: own name.  :mod:`repro.topology.spec` owns each default; the help quotes
#: it as ``{default}``, or as ``{short}`` (``100``, ``1e6``) where that
#: reads better.
_REPLAY_FLAGS = (
    ("hops", None, "number of emulated links in series (default {default})"),
    ("scenario", SCENARIOS, "dictionary scenario (default: {default})"),
    ("pacing", PACINGS,
     "injection pacing: as-recorded timestamps, fixed rate, or back-to-back "
     "(default: {default})"),
    ("packet_rate", None,
     "replay rate in packets/s (pacing=rate; default {short})"),
    ("speedup", None,
     "time-compression factor for pacing=recorded (default {default})"),
    ("bandwidth_gbps", None,
     "emulated link bandwidth in Gbit/s (default {short})"),
    ("propagation_us", None,
     "one-way propagation delay per hop in microseconds (default {short})"),
    ("queue_capacity", None,
     "bounded link queue in frames, 0 = unbounded (default {default})"),
    ("loss", None,
     "per-packet loss probability on each hop (default {short})"),
    ("reorder", None,
     "per-packet reorder probability on each hop (default {short})"),
)


def _short(default: Any) -> str:
    """A float default as help text writes it: ``100``, ``0.5``, ``1e6``."""
    return f"{default:g}".replace("e+0", "e") if isinstance(default, float) else str(default)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZipLine reproduction: generalized deduplication tooling",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compress = subparsers.add_parser(
        "compress", help="stream-compress a file with a registered codec"
    )
    compress.add_argument("input", type=Path, help="file to compress")
    compress.add_argument("output", type=Path, help="compressed stream to write")
    compress.add_argument(
        "--codec",
        choices=registry.names(),
        default="gd",
        help="compressor from the registry (default: gd)",
    )
    compress.add_argument("--order", type=int, default=8, help="Hamming order m (default 8, gd only)")
    compress.add_argument(
        "--identifier-bits", type=int, default=15,
        help="identifier width t (default 15, gd/dedup)",
    )
    compress.add_argument(
        "--level", type=int, default=6, help="DEFLATE level 1-9 (default 6, gzip only)"
    )
    compress.add_argument(
        "--block-size", type=int, default=DEFAULT_BLOCK_SIZE,
        help=f"streaming read size in bytes (default {DEFAULT_BLOCK_SIZE})",
    )

    decompress = subparsers.add_parser(
        "decompress",
        help="decompress a stream back into a file (format detected from magic)",
    )
    decompress.add_argument("input", type=Path, help="compressed stream to read")
    decompress.add_argument("output", type=Path, help="file to write")
    decompress.add_argument(
        "--block-size", type=int, default=DEFAULT_BLOCK_SIZE,
        help=f"streaming read size in bytes (default {DEFAULT_BLOCK_SIZE})",
    )

    codecs = subparsers.add_parser(
        "codecs", help="list the registered compressors"
    )
    codecs.add_argument(
        "--backends", action="store_true",
        help="list the codec backends (pure/numpy) with availability "
             "and selection status instead of the compressors",
    )

    generate = subparsers.add_parser(
        "generate-trace", help="generate a chunk trace and write it as a pcap"
    )
    generate.add_argument(
        "dataset", choices=("synthetic", "dns"), help="which Figure 3 dataset to generate"
    )
    generate.add_argument("output", type=Path, help="pcap file to write")
    generate.add_argument("--chunks", type=int, default=10_000, help="number of chunks/queries")
    generate.add_argument("--bases", type=int, default=32, help="distinct bases (synthetic)")
    generate.add_argument("--names", type=int, default=300, help="distinct names (dns)")
    generate.add_argument("--seed", type=int, default=2020, help="generator seed")

    replay = subparsers.add_parser(
        "replay",
        help="replay a pcap trace through an emulated ZipLine topology",
        description=(
            "Stream a pcap trace through traffic source -> encoder switch -> "
            "emulated link(s) -> decoder switch -> sink, verify end-to-end "
            "payload integrity, and report compression ratio, latency "
            "percentiles and the full counter breakdown."
        ),
    )
    replay.add_argument(
        "input", type=Path, nargs="?", default=None,
        help="pcap trace to replay (alternative to --trace)",
    )
    replay.add_argument(
        "--trace", type=Path, default=None, help="pcap trace to replay"
    )
    replay.add_argument(
        "--topology",
        default="encoder-link-decoder",
        metavar="NAME",
        help="linear replay topology: "
             + ", ".join(LINEAR_SHAPES)
             + " (default: encoder-link-decoder; graph shapes live under "
             "'repro topology')",
    )
    for name, choices, text in _REPLAY_FLAGS:
        default = RUN_PARAMETERS[name].default
        replay.add_argument(
            "--" + name.replace("_", "-"), type=type(default), choices=choices,
            default=default, help=text.format(default=default, short=_short(default)),
        )
    seed = RUN_PARAMETERS["seed"].default
    replay.add_argument(
        "--seed", type=int, default=seed, help=f"impairment RNG seed (default {seed})"
    )
    replay.add_argument(
        "--counters", action="store_true",
        help="print the full per-component counter breakdown",
    )
    replay.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the full report as JSON",
    )
    _add_obs_arguments(replay)

    topology = subparsers.add_parser(
        "topology",
        help="run a topology graph with concurrent flows",
        description=(
            "Build a topology of hosts, ZipLine switches and emulated links "
            "-- from a declarative JSON spec (--spec) or a named preset "
            "(--preset) -- partition it into independent per-encoder shards, "
            "run them (across --workers N processes when N > 1, with "
            "byte-identical reports at any worker count), and report "
            "per-flow integrity, per-link counters and the aggregate "
            "compression ratio. See docs/topology.md."
        ),
    )
    topology.add_argument(
        "--spec", type=Path, default=None, help="topology spec (.json)"
    )
    topology.add_argument(
        "--preset", default=None, metavar="NAME",
        help="named topology preset (linear, fan-in, fan-in-stress, "
             "rack-fan-in, fault-storm, paper-testbed)",
    )
    topology.add_argument(
        "--senders", type=int, default=None,
        help="concurrent senders for the fan-in presets, per rack for "
             "rack-fan-in (default: the preset's own)",
    )
    topology.add_argument(
        "--racks", type=int, default=None,
        help="rack count for --preset rack-fan-in (default: the preset's own)",
    )
    topology.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for sharded execution (default 1 = "
             "sequential; the report is byte-identical either way)",
    )
    topology.add_argument(
        "--metrics", choices=("exact", "streaming", "auto"), default="auto",
        help="latency metrics mode: exact keeps every sample, streaming "
             "uses fixed-size sketches (bounded memory), auto picks "
             "streaming at 256+ flows (default: auto)",
    )
    scenario = RUN_PARAMETERS["scenario"].default
    topology.add_argument(
        "--scenario", choices=SCENARIOS, default=scenario,
        help=f"dictionary scenario for presets (default: {scenario})",
    )
    topology.add_argument(
        "--chunks", type=int, default=None,
        help="chunks per flow for presets (default: the preset's own)",
    )
    topology.add_argument(
        "--bases", type=int, default=None,
        help="distinct bases per flow for presets (default: the preset's own)",
    )
    topology.add_argument(
        "--seed", type=int, default=seed, help=f"spec-level seed (default {seed})"
    )
    topology.add_argument(
        "--control",
        choices=CONTROL_MODES,
        default=None,
        help="override how mapping installs reach the decoder: direct calls "
             "or in-network control messages over an emulated link",
    )
    topology.add_argument(
        "--control-rate", type=float, default=None, metavar="CMDS_PER_S",
        help="token-bucket pacing of the in-network control channel in "
             "commands per second (default: unlimited); excess installs "
             "are deferred and surface as control.* backpressure counters",
    )
    topology.add_argument(
        "--faults", default=None, metavar="JSON_OR_PATH",
        help="fault plan: inline JSON or a path to a JSON file with "
             "control_loss / control_reorder probabilities, scheduled "
             "decoder 'restarts' and encoder eviction 'storms' "
             "(see docs/control-plane.md)",
    )
    topology.add_argument(
        "--counters", action="store_true",
        help="print the full per-component counter breakdown",
    )
    topology.add_argument(
        "--quiet", action="store_true",
        help="suppress per-shard progress lines",
    )
    topology.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the full report as JSON",
    )
    _add_obs_arguments(topology)

    experiment = subparsers.add_parser(
        "experiment",
        help="run a scenario-matrix sweep from a declarative spec",
        description=(
            "Expand a JSON/TOML experiment spec (base parameters + swept "
            "axes) into the cross-product of replay scenarios, execute them "
            "-- sharded across worker processes when --workers > 1, with "
            "byte-identical reports either way -- and print the aggregate "
            "table. See docs/experiments.md for the spec format."
        ),
    )
    experiment.add_argument(
        "--spec", type=Path, required=True, help="experiment spec (.json or .toml)"
    )
    experiment.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for sharded execution (default 1 = sequential)",
    )
    experiment.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write the full result set (spec + every report) as JSON",
    )
    experiment.add_argument(
        "--csv", type=Path, default=None, metavar="PATH",
        help="write the per-scenario summary table as CSV",
    )
    experiment.add_argument(
        "--group-by", action="append", default=None, metavar="AXIS",
        help="print a mean +/- 95%% CI summary per value of AXIS (repeatable)",
    )
    experiment.add_argument(
        "--metric", default="compression_ratio",
        help="metric the group-by tables summarise (default: compression_ratio)",
    )
    experiment.add_argument(
        "--list", action="store_true",
        help="list the expanded scenarios without running them",
    )
    experiment.add_argument(
        "--quiet", action="store_true",
        help="suppress per-scenario progress lines",
    )
    _add_obs_arguments(experiment)

    trace = subparsers.add_parser(
        "trace",
        help="inspect recorded trace files",
        description=(
            "Work with the trace files 'repro replay/topology/experiment' "
            "write via --trace-out/--events-out. See docs/observability.md."
        ),
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize",
        help="print per-stage span statistics (count, mean/p50/p99, slowest)",
    )
    trace_summarize.add_argument(
        "file", type=Path,
        help="trace file: --events-out JSON-lines or --trace-out Perfetto JSON",
    )
    trace_summarize.add_argument(
        "--top", type=int, default=5,
        help="slowest spans to list per stage (default 5)",
    )

    bench = subparsers.add_parser(
        "bench",
        help="run the reproduction benchmarks (smoke mode by default)",
        description=(
            "Run benchmarks/bench_*.py from a source checkout without "
            "hand-typed PYTHONPATH incantations. Defaults to the scaled-down "
            "smoke mode CI uses (REPRO_BENCH_SMOKE=1); results land in "
            "benchmarks/results/. With --profile, instead profile the GD "
            "encode and decode hot paths with cProfile and print the top 25 "
            "functions by cumulative time."
        ),
    )
    bench.add_argument(
        "names", nargs="*", metavar="NAME",
        help="benchmarks to run, e.g. 'hotpath' or 'crc_fastpath' "
             "(default: all)",
    )
    bench.add_argument(
        "--list", action="store_true", help="list available benchmarks and exit"
    )
    bench.add_argument(
        "--full", action="store_true",
        help="run at full scale instead of the smoke-mode default",
    )
    bench.add_argument(
        "--backend", action="append", default=None, metavar="NAME",
        help="restrict backend-aware benchmarks to these codec backends "
             "(repeatable; sets REPRO_BENCH_BACKENDS for the run); with "
             "--profile, run the profiled stages on this backend",
    )
    bench.add_argument(
        "--profile", nargs="*", default=None, metavar="STAGE",
        help="profile hot-path stages with cProfile instead of running "
             "benchmark files; stages: encode, decode, transform, "
             "transform-batch, parity-batch, crc-batch, encode-batch, "
             "decode-batch, switch-encode, switch-decode "
             "(bare --profile = encode decode)",
    )
    bench.add_argument(
        "--profile-chunks", type=int, default=20_000,
        help="chunks in the --profile workload (default 20000)",
    )

    claims = subparsers.add_parser(
        "claims",
        help="compute rows of the paper-claims table as docs/paper-mapping.md "
             "shows them; exit 1 when one is outside its tolerance",
    )
    claims.add_argument(
        "ids", nargs="*", metavar="ID",
        help="claims to compute (default: all): "
             + ", ".join(claim.id for claim in CLAIMS),
    )
    claims.add_argument(
        "--scale", type=int, default=None,
        help="compute at this scale (chunks, runs or m) instead of each "
             "row's stated one; rows that take no scale refuse it",
    )

    return parser


def _compressor_parameters(args: argparse.Namespace) -> dict:
    """Forward only the options the selected codec understands."""
    if args.codec == "gd":
        return {"order": args.order, "identifier_bits": args.identifier_bits}
    if args.codec == "dedup":
        return {"identifier_bits": args.identifier_bits}
    if args.codec == "gzip":
        return {"level": args.level}
    return {}


def _cmd_compress(args: argparse.Namespace) -> int:
    compressor = registry.get(args.codec, **_compressor_parameters(args))
    read, written = compress_file(
        compressor, args.input, args.output, block_size=args.block_size
    )
    ratio = written / read if read else 0.0
    print(
        f"{args.input} ({read:,} B) -> {args.output} ({written:,} B, "
        f"codec {args.codec}), container ratio {ratio:.3f}"
    )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as stream:
        header = stream.read(8)
    compressor = registry.get_for_header(header)
    _read, written = decompress_file(
        compressor, args.input, args.output, block_size=args.block_size
    )
    print(
        f"{args.input} -> {args.output} ({written:,} B restored, "
        f"codec {compressor.name})"
    )
    return 0


def _cmd_codecs(args: argparse.Namespace) -> int:
    if getattr(args, "backends", False):
        rows = [
            [
                status["name"],
                "yes" if status["available"] else "no",
                str(status["priority"]),
                "yes" if status["default"] else "",
                "yes" if status.get("crc_batch") else "no",
                status["detail"] or "",
            ]
            for status in registry.backend_status()
        ]
        print(
            format_table(
                ["backend", "available", "priority", "default", "crc batch",
                 "detail"],
                rows,
                title="codec backends (select with REPRO_GD_BACKEND)",
            )
        )
        return 0
    rows = [
        [name, registry.magic_for(name).hex() or "-"]
        for name in registry.names()
    ]
    print(format_table(["codec", "magic"], rows, title="registered compressors"))
    return 0


def _cmd_generate_trace(args: argparse.Namespace) -> int:
    # The Figure 3 datasets are cut at the paper's chunk size.
    workload, _bases = WORKLOAD_FACTORIES[args.dataset](
        chunks=args.chunks, bases=args.bases, names=args.names,
        order=RUN_PARAMETERS["order"].default, seed=args.seed,
    )
    trace = workload.trace()
    count = trace.to_pcap(args.output)
    stats = trace.stats()
    print(
        f"wrote {count:,} chunk packets to {args.output} "
        f"({stats.total_bytes / 1e6:.2f} MB of payload, "
        f"{stats.distinct_chunks:,} distinct chunks)"
    )
    return 0


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the shared tracing flags on a run-style subcommand."""
    group = parser.add_argument_group(
        "observability", "packet-lifecycle tracing; see docs/observability.md"
    )
    group.add_argument(
        "--trace-out", type=Path, default=None, metavar="PATH",
        help="write a Chrome trace_event JSON of the run, one track per "
             "node/link (open at ui.perfetto.dev)",
    )
    group.add_argument(
        "--events-out", type=Path, default=None, metavar="PATH",
        help="write the raw trace event stream as JSON-lines",
    )
    group.add_argument(
        "--snapshot-interval", type=float, default=None, metavar="SECONDS",
        help="sample live metrics (compression ratio, queue depth, packet "
             "rate, dictionary occupancy) every N simulated seconds into "
             "the trace",
    )


def _obs_requested(args: argparse.Namespace) -> bool:
    return (
        args.trace_out is not None
        or args.events_out is not None
        or args.snapshot_interval is not None
    )


def _obs_enable(args: argparse.Namespace):
    """Install a recording tracer when the obs flags ask for one.

    Returns the tracer (so the caller can pull the recorded events out of
    its sink) or ``None`` when tracing stays disabled.  Must be called
    *before* the engine is built: construction binds the tracer
    clock to the run's simulator.
    """
    if args.snapshot_interval is not None:
        if args.snapshot_interval <= 0:
            raise ReproError(
                f"--snapshot-interval must be positive, got {args.snapshot_interval}"
            )
        if args.trace_out is None and args.events_out is None:
            raise ReproError(
                "--snapshot-interval needs --trace-out or --events-out to "
                "receive the samples"
            )
    if args.trace_out is None and args.events_out is None:
        return None
    return obs.enable(snapshot_interval=args.snapshot_interval)


def _obs_write(args: argparse.Namespace, tracer) -> None:
    """Write the recorded events to whichever outputs were requested."""
    events = tracer.sink.events
    if args.events_out is not None:
        count = obs.write_events(events, str(args.events_out))
        print(f"trace events ({count:,} records) written to {args.events_out}")
    if args.trace_out is not None:
        count = obs.write_chrome_trace(events, str(args.trace_out))
        print(f"Perfetto trace ({count:,} records) written to {args.trace_out}")


def _run_and_report(
    args: argparse.Namespace, spec: TopologySpec, run: Callable[[], TopologyReport]
) -> int:
    """The shared tail of ``repro replay`` and ``repro topology``.

    Runs ``run()`` (traced when the obs flags ask), prints its report,
    writes the trace and ``--json`` outputs and returns the exit code.
    Corruption is never acceptable.  A network with configured impairments
    (link loss, reordering or queue bounds, active faults, a paced control
    channel) loses or reorders chunks by design — counted failure modes —
    but on an ideal one every chunk must come back in order: silent total
    loss must not exit 0.  With no chunk-level integrity verdict (e.g.
    decoder-only over a processed trace), a decode that dropped packets on
    unknown identifiers must not report success.
    """
    tracer = _obs_enable(args)
    try:
        report = run()
    finally:
        if tracer is not None:
            obs.disable()
    print(report.render(include_counters=args.counters))
    if tracer is not None:
        _obs_write(args, tracer)
    if args.json is not None:
        save_results_json(args.json, report.as_dict())
        print(f"report written to {args.json}")
    integrity = report.integrity
    if integrity is None:
        unknown = sum(
            value
            for name, value in report.metrics.counter_rows()
            if name.endswith(".unknown_identifier")
        )
        return 1 if unknown > 0 else 0
    impaired = (
        any(link.loss or link.reorder or link.queue_capacity for link in spec.links)
        or (spec.faults is not None and spec.faults.active)
        or spec.control_rate is not None
    )
    verdict = integrity.intact if impaired else integrity.lossless_in_order
    return 0 if verdict else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.trace is None):
        raise ReproError("give the trace exactly once: positionally or via --trace")
    trace_path = args.trace if args.trace is not None else args.input

    shape = args.topology.lower()
    if shape not in LINEAR_SHAPES:
        raise ReproError(
            f"unknown topology {args.topology!r}; valid topologies: "
            f"{', '.join(LINEAR_SHAPES)} (graph topologies such as fan-in run "
            "via 'repro topology --preset')"
        )
    # Every input of this command is spec-expressible: the pcap is the
    # flow's trace (the static scenario preloads its distinct bases), and
    # --seed seeds both the link impairments and the control plane.
    spec = linear_topology(
        name=shape,
        shape=shape,
        trace=str(trace_path),
        **{name: getattr(args, name) for name, *_ in _REPLAY_FLAGS},
        link_seed=args.seed,
        seed=args.seed,
    )
    return _run_and_report(args, spec, lambda: TopologyEngine(spec).run())


#: ``--metrics auto`` switches to bounded streaming sketches at this many
#: flows.  The rule depends only on the spec — never on the worker count —
#: so it cannot break the byte-identity contract across ``--workers N``.
AUTO_STREAMING_FLOWS = 256


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.topology import TOPOLOGY_PRESETS, preset_topology, run_topology

    if (args.spec is None) == (args.preset is None):
        raise ReproError(
            "give the topology exactly once: --spec FILE or --preset NAME "
            f"(presets: {', '.join(sorted(TOPOLOGY_PRESETS))})"
        )
    if args.workers < 1:
        raise ReproError(
            f"--workers must be a positive integer, got {args.workers}"
        )
    if args.spec is not None:
        spec = TopologySpec.from_file(args.spec)
    else:
        preset_kwargs = dict(scenario=args.scenario, seed=args.seed)
        for key in ("chunks", "bases"):
            value = getattr(args, key)
            if value is not None:
                preset_kwargs[key] = value
        # A shape argument goes to the presets whose builder declares it.
        builder = TOPOLOGY_PRESETS.get(args.preset)
        for key, where in (
            ("senders", "the fan-in presets"), ("racks", "--preset rack-fan-in")
        ):
            value = getattr(args, key)
            if value is None:
                continue
            if builder and key not in inspect.signature(builder).parameters:
                raise ReproError(
                    f"--{key} only applies to {where}, not {args.preset!r}"
                )
            preset_kwargs[key] = value
        spec = preset_topology(args.preset, **preset_kwargs)
    if args.control is not None:
        spec.control = args.control
    if args.control_rate is not None or args.faults is not None:
        from repro.topology.faults import load_fault_plan, validate_spec_faults

        if args.control_rate is not None:
            if args.control_rate <= 0:
                raise ReproError(
                    f"--control-rate must be positive, got {args.control_rate}"
                )
            spec.control_rate = args.control_rate
        if args.faults is not None:
            spec.faults = load_fault_plan(args.faults)
        # Overrides bypass TopologySpec.__init__; re-check the cross-field
        # constraints so a typo'd node name fails before the run.
        validate_spec_faults(spec)
    if args.metrics == "auto":
        metrics_mode = (
            "streaming" if len(spec.flows) >= AUTO_STREAMING_FLOWS else "exact"
        )
    else:
        metrics_mode = args.metrics
    progress = None if args.quiet else print
    return _run_and_report(
        args,
        spec,
        lambda: run_topology(
            spec, workers=args.workers, metrics_mode=metrics_mode, progress=progress
        ),
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.from_file(args.spec)
    if args.list:
        rows = [
            [scenario.index, scenario.scenario_id, scenario.seed]
            for scenario in spec.expand()
        ]
        print(
            format_table(
                ["#", "scenario", "seed"],
                rows,
                title=f"experiment {spec.name}: {spec.matrix_size} scenarios",
            )
        )
        return 0

    # Reject group-by typos before the (possibly long) sweep runs, not
    # after, so a bad flag cannot discard hours of results.
    for axis in args.group_by or ():
        if axis not in spec.axes:
            raise ReproError(
                f"unknown group-by axis {axis!r}; "
                f"axes: {', '.join(spec.axis_names) or 'none'}"
            )

    total = spec.matrix_size
    progress = None
    if not args.quiet:
        def progress(result) -> None:
            ratio = result.metric("compression_ratio")
            rendered = "n/a" if ratio is None else f"{ratio:.4f}"
            print(f"  done {result.scenario_id} (ratio {rendered})", flush=True)

    # Scenario worker processes cannot stream their in-memory traces back
    # to the parent, so experiment tracing is sequential-only.
    if _obs_requested(args) and args.workers > 1:
        raise ReproError(
            "--trace-out/--events-out/--snapshot-interval require "
            f"--workers 1 for 'repro experiment', got --workers {args.workers}"
        )

    print(f"experiment {spec.name}: {total} scenarios, {args.workers} worker(s)")
    tracer = _obs_enable(args)
    try:
        result = MatrixRunner(spec, workers=args.workers).run(progress=progress)
    finally:
        if tracer is not None:
            obs.disable()
    # Persist exports before rendering: a bad --metric must not discard a
    # finished sweep.
    if args.csv is not None:
        result.to_csv(args.csv)
    if args.out is not None:
        result.to_json(args.out)
    print()
    print(result.render(group_axes=args.group_by, metric=args.metric))
    if args.csv is not None:
        print(f"summary CSV written to {args.csv}")
    if args.out is not None:
        print(f"full report written to {args.out}")
    if tracer is not None:
        _obs_write(args, tracer)
    if not result.intact:
        print("error: at least one scenario delivered corrupted chunks", file=sys.stderr)
        return 1
    return 0


def _benchmarks_dir() -> Path:
    """The benchmarks/ tree of the source checkout this package runs from."""
    candidate = Path(__file__).resolve().parents[2] / "benchmarks"
    if not candidate.is_dir():
        raise ReproError(
            "benchmarks directory not found; 'repro bench' needs a source "
            "checkout (pip install -e .)"
        )
    return candidate


def _resolve_benchmarks(names: Sequence[str], directory: Path) -> List[Path]:
    """Map short names ('hotpath') to benchmark files, validating each."""
    available = sorted(directory.glob("bench_*.py"))
    if not names:
        return available
    by_stem = {path.stem: path for path in available}
    resolved: List[Path] = []
    for name in names:
        stem = name[: -len(".py")] if name.endswith(".py") else name
        if not stem.startswith("bench_"):
            stem = f"bench_{stem}"
        path = by_stem.get(stem)
        if path is None:
            known = ", ".join(p.stem[len("bench_"):] for p in available)
            raise ReproError(f"unknown benchmark {name!r}; available: {known}")
        resolved.append(path)
    return resolved


#: Stages ``repro bench --profile`` knows how to isolate.
PROFILE_STAGES = (
    "encode", "decode", "transform", "transform-batch", "parity-batch",
    "crc-batch", "encode-batch", "decode-batch",
    "switch-encode", "switch-decode",
)

#: Stages profiled by a bare ``--profile`` (the historical behaviour).
DEFAULT_PROFILE_STAGES = ("encode", "decode")


def _profile_chunk_frames(count: int, transform, distinct_bases: int = 32) -> list:
    """Raw chunk frames over a bounded basis pool (misses then mostly hits)."""
    import random

    from repro.net.ethernet import EthernetFrame
    from repro.net.mac import MacAddress
    from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

    destination = MacAddress("02:00:00:00:00:02")
    source = MacAddress("02:00:00:00:00:01")
    rng = random.Random(7)
    code = transform.code
    bases = [rng.getrandbits(code.k) for _ in range(max(1, distinct_bases))]
    frames = []
    for _ in range(count):
        basis = rng.choice(bases)
        body = code.encode(basis) ^ (1 << rng.randrange(code.n))
        chunk = ((rng.getrandbits(1) << code.n) | body).to_bytes(
            transform.chunk_bytes, "big"
        )
        frames.append(
            EthernetFrame(destination, source, ETHERTYPE_RAW_CHUNK, chunk).to_bytes()
        )
    return frames


def _profile_hot_paths(
    chunks: int, stages: Sequence[str], backend: Optional[str] = None
) -> int:
    """cProfile the requested hot-path stages; print top-25 cumulative each."""
    import cProfile
    import io
    import pstats

    from repro.core.codec import GDCodec
    from repro.core.transform import GDTransform
    from repro.workloads import SyntheticSensorWorkload

    unknown = [name for name in stages if name not in PROFILE_STAGES]
    if unknown:
        raise ReproError(
            f"unknown profile stage {unknown[0]!r}; "
            f"valid stages: {', '.join(PROFILE_STAGES)}"
        )

    workload = SyntheticSensorWorkload(
        num_chunks=max(1, chunks), distinct_bases=32, seed=2020
    )
    data = b"".join(workload.chunks())

    def top25(profile: "cProfile.Profile") -> str:
        stream = io.StringIO()
        pstats.Stats(profile, stream=stream).sort_stats("cumulative").print_stats(25)
        return stream.getvalue()

    def run_profiled(function):
        profile = cProfile.Profile()
        profile.enable()
        value = function()
        profile.disable()
        return value, profile

    def profile_encode():
        codec = GDCodec(order=8, identifier_bits=15, backend=backend)
        _, profile = run_profiled(lambda: codec.compress(data))
        title = (f"encode: GDCodec.compress of {len(data):,} bytes "
                 f"({chunks:,} chunks)")
        return title, profile

    def profile_decode():
        codec = GDCodec(order=8, identifier_bits=15, backend=backend)
        result = codec.compress(data)
        decoder = codec.clone()
        restored, profile = run_profiled(
            lambda: decoder.decompress_records(
                result.records, original_bytes=len(data)
            )
        )
        if restored != data:
            raise ReproError(
                "profile round trip corrupted the data (fast-path bug?)"
            )
        title = f"decode: decompress_records of {len(result.records):,} records"
        return title, profile

    def profile_transform():
        transform = GDTransform(order=8, backend=backend)
        fields, profile = run_profiled(lambda: transform.split_batch_fields(data))
        title = (f"transform: split_batch_fields of {len(data):,} bytes "
                 f"({len(fields):,} chunks, backend {transform.backend})")
        return title, profile

    def profile_transform_batch():
        transform = GDTransform(order=8, backend=backend)
        split, profile = run_profiled(lambda: transform.split_batch_columns(data))
        title = (f"transform-batch: split_batch_columns of {len(data):,} bytes "
                 f"({len(split):,} chunks, backend {transform.backend})")
        return title, profile

    def profile_parity_batch():
        transform = GDTransform(order=8, backend=backend)
        bases = [basis for _, basis, _ in transform.split_batch_fields(data)]
        _, profile = run_profiled(
            lambda: transform.code.parities_of_bases(
                bases, backend=transform.backend_impl
            )
        )
        title = (f"parity-batch: parities_of_bases over {len(bases):,} bases "
                 f"(backend {transform.backend})")
        return title, profile

    def profile_crc_batch():
        transform = GDTransform(order=8, backend=backend)
        engine = transform.code.crc_engine
        record_bits = 8 * transform.chunk_bytes
        _, profile = run_profiled(
            lambda: engine.compute_batch(data, record_bits, backend=backend)
        )
        title = (f"crc-batch: compute_batch over {len(data):,} bytes "
                 f"({chunks:,} records of {record_bits} bits, "
                 f"backend {transform.backend})")
        return title, profile

    def profile_encode_batch():
        codec = GDCodec(order=8, identifier_bits=15, backend=backend)
        blob, profile = run_profiled(
            lambda: codec.to_container(codec.compress(data))
        )
        title = (f"encode-batch: compress + pack_stream container of "
                 f"{len(data):,} bytes -> {len(blob):,} bytes")
        return title, profile

    def profile_decode_batch():
        codec = GDCodec(order=8, identifier_bits=15, backend=backend)
        blob = codec.to_container(codec.compress(data))
        decoder = codec.clone()
        restored, profile = run_profiled(
            lambda: decoder.decompress_container(blob)
        )
        if restored != data:
            raise ReproError(
                "profile round trip corrupted the data (fast-path bug?)"
            )
        title = (f"decode-batch: columnar decompress_container of "
                 f"{len(blob):,} container bytes")
        return title, profile

    def build_switch_pair():
        from repro.controlplane.manager import ZipLineControlPlane
        from repro.zipline.decoder_switch import ZipLineDecoderSwitch
        from repro.zipline.encoder_switch import ZipLineEncoderSwitch

        transform = GDTransform(order=8)
        encoder = ZipLineEncoderSwitch(transform=transform, forwarding={0: 1})
        decoder = ZipLineDecoderSwitch(transform=transform, forwarding={0: 1})
        # Functional mode (no simulator): learn digests install mappings
        # synchronously, so the frame stream exercises both the learn/miss
        # and the compressed-hit paths.
        ZipLineControlPlane(
            encoder.digest_engine,
            encoder_switch=encoder,
            decoder_switch=decoder,
        )
        frames = _profile_chunk_frames(max(1, chunks), transform)
        return encoder, decoder, frames

    def profile_switch_encode():
        encoder, _decoder, frames = build_switch_pair()
        encoder.switch.attach_port(1, lambda data, time: None)

        def push() -> None:
            for frame in frames:
                encoder.receive(frame, ingress_port=0)

        _, profile = run_profiled(push)
        title = (f"switch-encode: {len(frames):,} raw chunk frames through "
                 "ZipLineEncoderSwitch")
        return title, profile

    def profile_switch_decode():
        encoder, decoder, frames = build_switch_pair()
        encoded: List[bytes] = []
        encoder.switch.attach_port(1, lambda data, time: encoded.append(data))
        for frame in frames:
            encoder.receive(frame, ingress_port=0)
        decoder.switch.attach_port(1, lambda data, time: None)

        def push() -> None:
            for frame in encoded:
                decoder.receive(frame, ingress_port=0)

        _, profile = run_profiled(push)
        title = (f"switch-decode: {len(encoded):,} ZipLine frames through "
                 "ZipLineDecoderSwitch")
        return title, profile

    runners = {
        "encode": profile_encode,
        "decode": profile_decode,
        "transform": profile_transform,
        "transform-batch": profile_transform_batch,
        "parity-batch": profile_parity_batch,
        "crc-batch": profile_crc_batch,
        "encode-batch": profile_encode_batch,
        "decode-batch": profile_decode_batch,
        "switch-encode": profile_switch_encode,
        "switch-decode": profile_switch_decode,
    }
    for stage in stages:
        title, profile = runners[stage]()
        print(f"=== {title} ===")
        print(top25(profile))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "summarize":
        if args.top < 0:
            raise ReproError(f"--top must be non-negative, got {args.top}")
        events = obs.read_events(str(args.file))
        summary = obs.summarize_events(events, top=args.top)
        print(obs.format_summary(summary))
        return 0
    raise ReproError(f"unknown trace subcommand {args.trace_command!r}")


def _cmd_bench(args: argparse.Namespace) -> int:
    backends_requested = list(args.backend or [])
    if args.profile is not None:
        stages = list(args.profile) or list(DEFAULT_PROFILE_STAGES)
        if len(backends_requested) > 1:
            raise ReproError(
                "--profile runs on one backend at a time; pass a single "
                "--backend"
            )
        backend = backends_requested[0] if backends_requested else None
        return _profile_hot_paths(args.profile_chunks, stages, backend=backend)
    directory = _benchmarks_dir()
    selected = _resolve_benchmarks(args.names, directory)
    if args.list:
        rows = [[path.stem[len("bench_"):], str(path.name)] for path in selected]
        print(format_table(["name", "file"], rows, title="available benchmarks"))
        return 0

    import subprocess

    repo_root = directory.parent
    environment = dict(os.environ)
    environment["REPRO_BENCH_SMOKE"] = "0" if args.full else "1"
    if backends_requested:
        environment["REPRO_BENCH_BACKENDS"] = ",".join(backends_requested)
    # Make `import benchmarks.conftest` and `import repro` work regardless
    # of how the console script was installed.
    extra_paths = [str(repo_root), str(repo_root / "src")]
    current = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = os.pathsep.join(
        extra_paths + ([current] if current else [])
    )
    command = [
        sys.executable, "-m", "pytest",
        *[str(path) for path in selected],
        "-q", "--benchmark-disable",
    ]
    mode = "full" if args.full else "smoke"
    print(f"running {len(selected)} benchmark file(s) in {mode} mode")
    completed = subprocess.run(command, env=environment, cwd=repo_root)
    if completed.returncode == 0:
        print(f"results written to {directory / 'results'}")
    return completed.returncode


def _cmd_claims(args: argparse.Namespace) -> int:
    selected = select_claims(args.ids, args.scale)
    print("\n".join(CLAIMS_HEADER), flush=True)
    failed = []
    for claim in selected:
        row, holds = claim_row(claim, args.scale)
        print(row, flush=True)
        if not holds:
            failed.append(claim.id)
    if failed:
        raise ReproError(f"not within tolerance of the paper: {', '.join(failed)}")
    return 0


_HANDLERS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "codecs": _cmd_codecs,
    "generate-trace": _cmd_generate_trace,
    "replay": _cmd_replay,
    "topology": _cmd_topology,
    "experiment": _cmd_experiment,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "claims": _cmd_claims,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # The reader closed stdout (``| head``): that ends the output, not the
        # command.  Stdout now writes to devnull, so the exit's flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ReproError, OSError) as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
