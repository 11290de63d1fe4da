"""The run commands: ``replay``, ``topology`` and ``experiment``.

All three take the shared observability flags (``--trace-out``,
``--events-out``, ``--snapshot-interval``); ``replay`` and ``topology``
share their report tail, :func:`_run_and_report`.  Each handler imports
the layers it runs: building the parser loads no simulator.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro import obs
from repro.analysis.reporting import format_table, save_results_json
from repro.exceptions import ReproError
from repro.parameters import CONTROL_MODES, DEFAULTS, LINEAR_SHAPES, PACINGS, SCENARIOS

if TYPE_CHECKING:
    from repro.topology import TopologyReport, TopologySpec

#: ``repro replay``'s run-parameter flags as (parameter, choices, help):
#: what ``_cmd_replay`` forwards to the chain preset under the parameter's
#: own name.  :data:`repro.parameters.DEFAULTS` holds each default; the help
#: quotes it as ``{default}``, or as ``{short}`` (``100``, ``1e6``) where
#: that reads better.
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


def add_parsers(subparsers) -> None:
    """Register this group's commands on the top-level subparsers."""
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
        default = DEFAULTS[name]
        replay.add_argument(
            "--" + name.replace("_", "-"), type=type(default), choices=choices,
            default=default, help=text.format(default=default, short=_short(default)),
        )
    seed = DEFAULTS["seed"]
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
    scenario = DEFAULTS["scenario"]
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
    from repro.topology import TopologyEngine, linear_topology

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
    from repro.topology import (
        TOPOLOGY_PRESETS,
        TopologySpec,
        preset_topology,
        run_topology,
    )

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
    from repro.experiments import ExperimentSpec, MatrixRunner

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


HANDLERS = {
    "replay": _cmd_replay,
    "topology": _cmd_topology,
    "experiment": _cmd_experiment,
}
