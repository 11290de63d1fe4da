"""The codec commands: ``compress``, ``decompress``, ``codecs``, ``generate-trace``."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro import registry
from repro.analysis.reporting import format_table
from repro.core.engine import DEFAULT_BLOCK_SIZE, compress_file, decompress_file
from repro.parameters import DEFAULTS
from repro.workloads import WORKLOAD_FACTORIES


def add_parsers(subparsers) -> None:
    """Register this group's commands on the top-level subparsers."""
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
        order=DEFAULTS["order"], seed=args.seed,
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


HANDLERS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "codecs": _cmd_codecs,
    "generate-trace": _cmd_generate_trace,
}
