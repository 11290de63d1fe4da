"""The tool commands: ``trace``, ``bench`` and ``claims``.

``claims`` loads the models its rows run in its handler: the parser quotes
the claim ids from :mod:`repro.analysis.claim_ids`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Sequence

from repro import obs
from repro.analysis.claim_ids import CLAIM_IDS
from repro.analysis.reporting import format_table
from repro.exceptions import ReproError


def add_parsers(subparsers) -> None:
    """Register this group's commands on the top-level subparsers."""
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
            "benchmarks/results/. To profile a repro command, run it under "
            "the standard library's cProfile instead: python -m cProfile -o "
            "repro.prof -m repro compress IN OUT (see docs/performance.md)."
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
             "(repeatable; sets REPRO_BENCH_BACKENDS for the run)",
    )

    claims = subparsers.add_parser(
        "claims",
        help="compute rows of the paper-claims table as docs/paper-mapping.md "
             "shows them; exit 1 when one is outside its tolerance",
    )
    claims.add_argument(
        "ids", nargs="*", metavar="ID",
        help="claims to compute (default: all): "
             + ", ".join(CLAIM_IDS),
    )
    claims.add_argument(
        "--scale", type=int, default=None,
        help="compute at this scale (chunks, runs or m) instead of each "
             "row's stated one; rows that take no scale refuse it",
    )


def _benchmarks_dir() -> Path:
    """The benchmarks/ tree of the source checkout this package runs from."""
    candidate = Path(__file__).resolve().parents[3] / "benchmarks"
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
    from repro.analysis.figures import CLAIMS_HEADER, claim_row, select_claims

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


HANDLERS = {
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "claims": _cmd_claims,
}
