#!/usr/bin/env python3
"""Check that the docs point at things that exist.

Scans the tracked ``*.md`` files (repo root and ``docs/``) for inline links
``[text](target)`` and verifies that every *relative* target exists on
disk, resolved against the linking file's directory.  External links
(``http://``, ``https://``, ``mailto:``) and pure in-page anchors (``#...``)
are skipped — no network access, so CI stays hermetic.

Also checks that every ``REPRO_*`` environment variable the user-facing
docs (``README.md``, ``docs/*.md``) name is one some code still reads, so
a removed knob cannot stay documented, and that every backticked
``repro.<dotted.name>`` they spell resolves by import + ``getattr``, so a
removed function cannot either.

    python scripts/check_docs_links.py            # exit 1 on any stale reference
    python scripts/check_docs_links.py --verbose  # also list every checked link
"""

from __future__ import annotations

import argparse
import pkgutil
import re
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline markdown links; reference-style links are not used in this repo.
#: Image embeds (``![alt](target)``) are excluded — the scraped related-work
#: files reference figures that were intentionally never vendored.
_LINK = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")

#: Schemes that are not filesystem paths.
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


#: An environment variable of this project, wherever it is spelled.
_ENV_VAR = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")

#: Where the code that reads environment variables lives.  The frozen
#: whole-stack harness is left out: it copies the environment into its
#: provenance record without acting on it, and has its own README.
_ENV_READERS = ("src", "benchmarks")
_ENV_READERS_EXCLUDED = ("benchmarks/stack",)

#: A dotted name of this package right after a backtick: the name ends where
#: the identifier characters do, so a call's argument list may follow it.
_DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def markdown_files() -> List[Path]:
    """Every markdown file the repo ships (root + docs/, sorted)."""
    files = sorted(REPO_ROOT.glob("*.md")) + sorted(REPO_ROOT.glob("docs/**/*.md"))
    return [path for path in files if path.is_file()]


def iter_links(path: Path) -> Iterator[Tuple[int, str]]:
    """``(line_number, target)`` for every inline link in a file."""
    in_code_fence = False
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        for match in _LINK.finditer(line):
            yield number, match.group(1)


def user_doc_files() -> List[Path]:
    """The user-facing documentation: ``README.md`` and ``docs/*.md``."""
    return [REPO_ROOT / "README.md"] + sorted(REPO_ROOT.glob("docs/*.md"))


def environment_variables_read() -> Set[str]:
    """Every ``REPRO_*`` name spelled in the code that can read it."""
    excluded = [REPO_ROOT / path for path in _ENV_READERS_EXCLUDED]
    names: Set[str] = set()
    for root in _ENV_READERS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if any(parent in path.parents for parent in excluded):
                continue
            names.update(_ENV_VAR.findall(path.read_text(encoding="utf-8")))
    return names


def user_doc_lines() -> Iterator[Tuple[str, str]]:
    """``(file:line, text)`` for every line of the user-facing docs."""
    for path in user_doc_files():
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            yield f"{path.relative_to(REPO_ROOT)}:{number}", line


def stale_environment_variables() -> List[str]:
    """``file:line`` findings for documented variables no code reads."""
    read = environment_variables_read()
    return [
        f"{where}: documents {name}, "
        f"which nothing under {' or '.join(_ENV_READERS)}/ reads"
        for where, line in user_doc_lines()
        for name in sorted(set(_ENV_VAR.findall(line)) - read)
    ]


def resolves(name: str) -> bool:
    """True when ``name`` is a module, or an attribute chain off one."""
    try:
        pkgutil.resolve_name(name)
    except (ImportError, AttributeError):
        return False
    return True


def stale_dotted_names() -> List[str]:
    """``file:line`` findings for documented ``repro.*`` names that are gone."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    return [
        f"{where}: names `{name}`, which does not resolve"
        for where, line in user_doc_lines()
        for name in sorted(set(_DOTTED_NAME.findall(line)))
        if not resolves(name)
    ]


def check(verbose: bool = False) -> int:
    broken: List[str] = stale_environment_variables() + stale_dotted_names()
    checked = 0
    for path in markdown_files():
        for line_number, target in iter_links(path):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            # Strip an in-page anchor from a file target.
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (path.parent / file_part).resolve()
            checked += 1
            if verbose:
                print(f"  {path.relative_to(REPO_ROOT)}:{line_number} -> {file_part}")
            if not resolved.exists():
                broken.append(
                    f"{path.relative_to(REPO_ROOT)}:{line_number}: "
                    f"broken link -> {target}"
                )
    if broken:
        print("\n".join(broken))
        print(f"\n{len(broken)} stale reference(s); {checked} links checked")
        return 1
    print(f"all {checked} relative links resolve across {len(markdown_files())} files")
    print(
        f"every REPRO_* variable in {len(user_doc_files())} user-facing docs is read "
        "by code, every `repro.*` name resolves"
    )
    return 0


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--verbose", action="store_true", help="list every checked link")
    args = cli.parse_args(argv)
    return check(verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
