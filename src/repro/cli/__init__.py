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
  smoke mode (or ``--full``); see ``docs/performance.md``;
* ``claims`` — compute rows of :data:`repro.analysis.figures.CLAIMS`, the
  paper's numbers, and exit 1 when one does not hold.

Each command group has its own module: :mod:`repro.cli.codec`,
:mod:`repro.cli.runs` and :mod:`repro.cli.tools`.

To profile a command, run it under the standard library's profiler,
``python -m cProfile -o repro.prof -m repro compress IN OUT``, and read
the file with :mod:`pstats` (``docs/performance.md``, "Running the
benchmarks").

Invoke with ``repro ...`` (the console script), ``python -m repro ...``, or
look at ``repro.cli.main``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.cli import codec, runs, tools
from repro.exceptions import ReproError

__all__ = ["build_parser", "main"]

#: The command groups, in the order ``repro --help`` lists their commands.
_GROUPS = (codec, runs, tools)

_HANDLERS = {
    name: handler for group in _GROUPS for name, handler in group.HANDLERS.items()
}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZipLine reproduction: generalized deduplication tooling",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for group in _GROUPS:
        group.add_parsers(subparsers)
    return parser


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
