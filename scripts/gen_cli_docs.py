#!/usr/bin/env python3
"""Generate docs/cli.md from the live argparse tree of the repro CLI.

The reference is *derived*, never hand-written: this script walks
``repro.cli.build_parser()`` and emits one section per subcommand with its
description and an argument table.  The output is deliberately built from
the parser's data (no ``format_help()``), so it does not depend on terminal
width and is byte-reproducible — which is what lets CI enforce freshness:

    python scripts/gen_cli_docs.py            # rewrite the generated docs
    python scripts/gen_cli_docs.py --check    # exit 1 if any of them is stale

The same run keeps the parameter table of docs/experiments.md — the rows
between its two marker comments — in step with
``repro.experiments.spec.PARAMETERS`` (name, default, ``help``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import build_parser  # noqa: E402  (sys.path set up first)
from repro.experiments.spec import PARAMETERS  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "docs" / "cli.md"
EXPERIMENTS_DOC = REPO_ROOT / "docs" / "experiments.md"
TABLE_BEGIN = (
    "<!-- parameters: generated by scripts/gen_cli_docs.py from "
    "repro.experiments.spec.PARAMETERS; do not edit by hand -->"
)
TABLE_END = "<!-- /parameters -->"

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


def with_parameter_table(text: str) -> str:
    """``text`` (docs/experiments.md) with the rows between its two marker
    comments replaced by the live parameter table."""
    head, begin, rest = text.partition(TABLE_BEGIN)
    _stale, end, tail = rest.partition(TABLE_END)
    if not (begin and end):
        raise SystemExit(f"{EXPERIMENTS_DOC} has lost its parameter-table markers")
    rows = ["| parameter | default | meaning |", "| --- | --- | --- |"]
    for spec in PARAMETERS.values():
        default = "—" if spec.default is None else f"`{spec.default}`"
        rows.append(f"| `{spec.name}` | {default} | {_escape(spec.help)} |")
    return "\n".join([head + begin, *rows, end + tail])


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
                f"{path} is stale (the CLI or the parameter table changed); "
                "run: python scripts/gen_cli_docs.py"
            )
            stale = 1
        else:
            print(f"{path} is up to date")
    return stale


if __name__ == "__main__":
    sys.exit(main())
