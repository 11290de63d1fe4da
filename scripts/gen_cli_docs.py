#!/usr/bin/env python3
"""Generate docs/cli.md from the live argparse tree of the repro CLI.

The reference is *derived*, never hand-written: this script walks
``repro.cli.build_parser()`` and emits one section per subcommand with its
description and an argument table.  The output is deliberately built from
the parser's data (no ``format_help()``), so it does not depend on terminal
width and is byte-reproducible — which is what lets CI enforce freshness:

    python scripts/gen_cli_docs.py            # rewrite the generated docs
    python scripts/gen_cli_docs.py --check    # exit 1 if any of them is stale

The same run keeps two more tables in step, each the rows between two
marker comments: the parameter table of docs/experiments.md with
``repro.experiments.spec.PARAMETERS`` (name, default, ``help``), and the
claims table of docs/paper-mapping.md with
``repro.analysis.figures.CLAIMS``, every row computed at the scale it
states and laid out by ``claim_row`` (as ``repro claims`` prints it) — so
``--check`` also fails on a stale Reproduced or Kind cell, and the run
stops on a claim that no longer holds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

# The imports below need the sys.path entry above.
from repro.analysis.figures import CLAIMS, CLAIMS_HEADER, claim_row  # noqa: E402
from repro.cli import build_parser  # noqa: E402
from repro.experiments.spec import PARAMETERS  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "docs" / "cli.md"
EXPERIMENTS_DOC = REPO_ROOT / "docs" / "experiments.md"
TABLE_BEGIN = (
    "<!-- parameters: generated by scripts/gen_cli_docs.py from "
    "repro.experiments.spec.PARAMETERS; do not edit by hand -->"
)
TABLE_END = "<!-- /parameters -->"
CLAIMS_DOC = REPO_ROOT / "docs" / "paper-mapping.md"
CLAIMS_BEGIN = (
    "<!-- claims: generated by scripts/gen_cli_docs.py from "
    "repro.analysis.figures.CLAIMS; do not edit by hand -->"
)
CLAIMS_END = "<!-- /claims -->"

HEADER = """\
<!-- Generated by scripts/gen_cli_docs.py — do not edit by hand.
     Regenerate with: python scripts/gen_cli_docs.py -->

# `repro` command-line reference

"""


def _escape(text: str) -> str:
    """Make free text safe inside a markdown table cell."""
    return text.replace("|", "\\|").replace("\n", " ")


def _argument_name(action: argparse.Action) -> str:
    if action.option_strings:
        name = ", ".join(f"`{option}`" for option in action.option_strings)
    else:
        name = f"`{action.dest}`"
    if action.choices is not None:
        name += " {" + ", ".join(str(choice) for choice in action.choices) + "}"
    return name


def _argument_default(action: argparse.Action) -> str:
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        return "—"
    if action.nargs in (argparse.OPTIONAL, argparse.ZERO_OR_MORE) and action.default is None:
        return "—"
    if action.required or not action.option_strings:
        return "required" if action.default is None else f"`{action.default}`"
    if action.default is None or action.default is argparse.SUPPRESS:
        return "—"
    return f"`{action.default}`"


def _subcommand_section(name: str, parser: argparse.ArgumentParser, summary: str) -> str:
    lines = [f"## `repro {name}`", ""]
    if summary:
        lines += [summary.rstrip(".") + ".", ""]
    description = (parser.description or "").strip()
    if description and description != summary:
        lines += [description, ""]
    actions = [
        action
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    if actions:
        lines += ["| argument | default | description |", "| --- | --- | --- |"]
        for action in actions:
            lines.append(
                "| {} | {} | {} |".format(
                    _argument_name(action),
                    _argument_default(action),
                    _escape(action.help or ""),
                )
            )
        lines.append("")
    return "\n".join(lines)


def generate() -> str:
    """The full markdown document for the current parser tree."""
    parser = build_parser()
    subparsers_action = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    summaries = {
        choice.dest: (choice.help or "")
        for choice in subparsers_action._choices_actions
    }
    parts = [HEADER]
    parts.append((parser.description or "").strip() + "\n")
    parts.append(
        "Invoke as `repro <command>` (console script), or "
        "`python -m repro <command>` from a source checkout "
        "(`PYTHONPATH=src` when not installed).\n"
    )
    names = list(subparsers_action.choices)
    parts.append(
        "Commands: "
        + ", ".join(f"[`{name}`](#repro-{name.replace(' ', '-')})" for name in names)
        + "\n"
    )
    for name, subparser in subparsers_action.choices.items():
        parts.append(_subcommand_section(name, subparser, summaries.get(name, "")))
    return "\n".join(parts).rstrip() + "\n"


def _between_markers(path: Path, text: str, markers, rows) -> str:
    """``text`` (of ``path``) with the rows between its two marker comments
    replaced by ``rows``."""
    head, begin, rest = text.partition(markers[0])
    _stale, end, tail = rest.partition(markers[1])
    if not (begin and end):
        raise SystemExit(f"{path} has lost its generated-table markers")
    return "\n".join([head + begin, *rows, end + tail])


def with_parameter_table(text: str) -> str:
    """docs/experiments.md with the live parameter table."""
    rows = ["| parameter | default | meaning |", "| --- | --- | --- |"]
    for spec in PARAMETERS.values():
        default = "—" if spec.default is None else f"`{spec.default}`"
        rows.append(f"| `{spec.name}` | {default} | {_escape(spec.help)} |")
    return _between_markers(EXPERIMENTS_DOC, text, (TABLE_BEGIN, TABLE_END), rows)


def with_claims_table(text: str) -> str:
    """docs/paper-mapping.md with every claim computed at its stated scale."""
    rows = list(CLAIMS_HEADER)
    for claim in CLAIMS:
        row, holds = claim_row(claim)
        if not holds:
            raise SystemExit(f"claim {claim.id} does not hold at its stated scale: {row}")
        rows.append(row)
    return _between_markers(CLAIMS_DOC, text, (CLAIMS_BEGIN, CLAIMS_END), rows)


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument(
        "--check",
        action="store_true",
        help="verify the generated docs are up to date instead of rewriting them",
    )
    cli.add_argument(
        "--out", type=Path, default=DEFAULT_OUTPUT, help="output path of the CLI reference"
    )
    args = cli.parse_args(argv)

    documents = {
        args.out: generate(),
        EXPERIMENTS_DOC: with_parameter_table(
            EXPERIMENTS_DOC.read_text(encoding="utf-8")
        ),
        CLAIMS_DOC: with_claims_table(CLAIMS_DOC.read_text(encoding="utf-8")),
    }
    stale = 0
    for path, document in documents.items():
        if not args.check:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(document, encoding="utf-8")
            print(f"wrote {path}")
        elif not path.exists():
            print(f"{path} does not exist; run: python scripts/gen_cli_docs.py")
            stale = 1
        elif path.read_text(encoding="utf-8") != document:
            print(
                f"{path} is stale (the CLI, the parameter table or a claim changed); "
                "run: python scripts/gen_cli_docs.py"
            )
            stale = 1
        else:
            print(f"{path} is up to date")
    return stale


if __name__ == "__main__":
    sys.exit(main())
