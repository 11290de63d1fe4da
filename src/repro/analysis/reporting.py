"""Text rendering and persistence of benchmark results.

Benchmark harnesses print their results as fixed-width tables and save them
as JSON; the CLI prints its reports the same way.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Mapping, Sequence, Union

from repro.exceptions import ReproError

__all__ = ["format_table", "save_results_json"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render a fixed-width text table."""
    if not headers:
        raise ReproError("a table needs at least one column")
    normalised_rows = [[_cell(value) for value in row] for row in rows]
    for index, row in enumerate(normalised_rows):
        if len(row) != len(headers):
            raise ReproError(
                f"row {index} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [
        max(len(str(headers[column])), *(len(row[column]) for row in normalised_rows))
        if normalised_rows
        else len(str(headers[column]))
        for column in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in normalised_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def save_results_json(
    path: Union[str, Path], results: Mapping[str, object], indent: int = 2
) -> Path:
    """Persist benchmark results as JSON (used by the bench harnesses)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=indent, sort_keys=True, default=str)
    return target
