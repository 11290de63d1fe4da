#!/usr/bin/env python3
r"""Fail when a module under ``src/repro`` outgrows the size limit.

A file above :data:`LIMIT` lines has usually grown a second job (builder
*and* runner *and* reporter); splitting it along that seam is cheaper the
earlier it happens.  :data:`ALLOWED` lists the files that are over the
limit today with the size they may not exceed — an allow-list that only
shrinks: a listed file that drops under the limit must be removed from
it, one that grows past its recorded size fails, and nothing under
``src/repro/topology`` may ever be listed.

    python scripts/check_module_sizes.py            # exit 1 on any violation
    python scripts/check_module_sizes.py --verbose  # also print every size
    python scripts/check_module_sizes.py --packages # code lines per package

``--packages`` reports (no threshold) the figure ROADMAP acceptance lines
quote "by the PR 14 count": lines that are neither blank nor a ``#``
comment, per package under ``src/repro`` — the same number as
``cat <package>/**/*.py | grep -v '^\s*$' | grep -v '^\s*#' | wc -l``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Physical lines, docstrings and blanks included (``wc -l``).
LIMIT = 700

#: path relative to the repo root -> the most lines it may have.
ALLOWED: Dict[str, int] = {}


def line_count(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle)


def code_line_count(path: Path) -> int:
    """Lines that are neither blank nor a ``#`` comment (docstrings count)."""
    with path.open("rb") as handle:
        return sum(
            1 for line in handle if line.strip() and not line.lstrip().startswith(b"#")
        )


def package_sizes(root: Path) -> Dict[str, int]:
    """Code lines per package; top-level modules are counted under ``repro``."""
    source = root / "src" / "repro"
    sizes: Dict[str, int] = {}
    for path in sorted(source.rglob("*.py")):
        parts = path.relative_to(source).parts
        package = f"repro.{parts[0]}" if len(parts) > 1 else "repro"
        sizes[package] = sizes.get(package, 0) + code_line_count(path)
    return sizes


def violations(root: Path, verbose: bool = False) -> List[str]:
    problems: List[str] = []
    sizes = {
        path.relative_to(root).as_posix(): line_count(path)
        for path in sorted((root / "src" / "repro").rglob("*.py"))
    }
    for name, lines in sizes.items():
        if verbose:
            print(f"{lines:6d}  {name}")
        ceiling = ALLOWED.get(name, LIMIT)
        if lines > ceiling:
            problems.append(
                f"{name}: {lines} lines, over its ceiling of {ceiling}"
                + ("" if name in ALLOWED else " (split it along a seam)")
            )
    for name, ceiling in ALLOWED.items():
        if name.startswith("src/repro/topology/"):
            problems.append(f"{name}: nothing under topology/ may be allow-listed")
        elif name not in sizes:
            problems.append(f"{name}: allow-listed but does not exist")
        elif sizes[name] <= LIMIT:
            problems.append(
                f"{name}: now {sizes[name]} lines, within the limit — "
                "remove it from ALLOWED"
            )
        elif sizes[name] < ceiling:
            problems.append(
                f"{name}: shrank to {sizes[name]} lines — lower its ceiling "
                f"from {ceiling} so it cannot grow back"
            )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="print every size")
    parser.add_argument(
        "--packages",
        action="store_true",
        help="print non-blank, non-comment lines per package and exit (report only)",
    )
    args = parser.parse_args()
    if args.packages:
        sizes = package_sizes(REPO_ROOT)
        for package, lines in sizes.items():
            print(f"{lines:6d}  {package}")
        print(f"{sum(sizes.values()):6d}  src/repro")
        return 0
    problems = violations(REPO_ROOT, verbose=args.verbose)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(
        f"every module under src/repro is within {LIMIT} lines "
        f"({len(ALLOWED)} allow-listed)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
