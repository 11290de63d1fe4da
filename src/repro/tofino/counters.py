"""Packet/byte counters, as provided by the TNA ``Counter`` extern.

ZipLine "adds counters to provide easily-accessible statistics of the inner
workings" (Section 5): packets are classified by the transformation applied
to them (raw → type 2, type 2 → raw, type 3 → raw, ...).  Every counter the
program declares counts packets and bytes, one cell per transformation,
readable from the control plane; :class:`NamedCounterSet` is that counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.exceptions import ReproError

__all__ = ["CounterSample", "NamedCounterSet"]


@dataclass(frozen=True)
class CounterSample:
    """A snapshot of one counter cell."""

    packets: int
    bytes: int


class NamedCounterSet:
    """A packets-and-bytes counter with one labelled cell per packet kind.

    The ZipLine program counts packets per transformation kind; giving each
    kind a label keeps the data-plane code and the statistics readable.
    """

    def __init__(self, labels: List[str]):
        if not labels:
            raise ReproError("NamedCounterSet requires at least one label")
        if len(set(labels)) != len(labels):
            raise ReproError("counter labels must be unique")
        self._indices = {label: index for index, label in enumerate(labels)}
        #: The cells.  The data plane resolves a label once (:meth:`index`)
        #: and counts with two increments: ``packet_cells[i] += 1`` and
        #: ``byte_cells[i] += length``.
        self.packet_cells = [0] * len(labels)
        self.byte_cells = [0] * len(labels)

    def index(self, label: str) -> int:
        """The cell ``label`` counts in; an unknown label is an error."""
        index = self._indices.get(label)
        if index is None:
            raise ReproError(f"unknown counter label {label!r}")
        return index

    def read(self, label: str) -> CounterSample:
        """Read the sample for ``label`` (control-plane access)."""
        index = self.index(label)
        return CounterSample(
            packets=self.packet_cells[index], bytes=self.byte_cells[index]
        )

    def as_dict(self) -> Dict[str, CounterSample]:
        """Every label's sample."""
        return {label: self.read(label) for label in self._indices}
