"""Header layouts, as a P4 program's parser declares them.

A P4 header type is a fixed sequence of bit fields; the parser extracts
one header of a type per state.  The ZipLine programs declare four
(:class:`repro.zipline.headers.ZipLineHeaderSet`) and run them compiled:
the compiled program reads each header's fields as integer arithmetic over
the frame bytes, so what the rest of the code needs of a header type is its
layout and its size.  Header widths only need to be byte aligned per
header, matching the Tofino constraint checked by
:func:`repro.tofino.constraints.check_header_alignment`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.exceptions import ParserError
from repro.tofino.constraints import check_header_alignment

__all__ = ["HeaderType"]


class HeaderType:
    """A named header layout: an ordered list of (field name, width) pairs."""

    def __init__(self, name: str, fields: Sequence[Tuple[str, int]]):
        if not fields:
            raise ParserError(f"header type {name!r} must declare at least one field")
        names = [field_name for field_name, _ in fields]
        if len(set(names)) != len(names):
            raise ParserError(f"header type {name!r} has duplicate field names")
        widths = [width for _, width in fields]
        check_header_alignment(list(widths))
        self.name = name
        self.fields: Tuple[Tuple[str, int], ...] = tuple(
            (str(field_name), int(width)) for field_name, width in fields
        )
        self._total_bytes = sum(width for _, width in self.fields) // 8

    @property
    def total_bytes(self) -> int:
        """Total header width in bytes."""
        return self._total_bytes
