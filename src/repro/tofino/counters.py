"""Packet/byte counters, as provided by the TNA ``Counter`` extern.

ZipLine "adds counters to provide easily-accessible statistics of the inner
workings" (Section 5): packets are classified by the transformation applied
to them (raw → type 2, type 2 → raw, type 3 → raw, ...).  The model mirrors
the TNA API: indexed counters counting packets, bytes, or both, readable
from the control plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List

from repro.exceptions import ReproError

__all__ = ["CounterType", "CounterSample", "Counter", "NamedCounterSet"]


class CounterType(Enum):
    """What the counter accumulates."""

    PACKETS = "packets"
    BYTES = "bytes"
    PACKETS_AND_BYTES = "packets_and_bytes"


@dataclass(frozen=True)
class CounterSample:
    """A snapshot of one counter cell."""

    packets: int
    bytes: int


class Counter:
    """An indexed counter array (the TNA ``Counter`` extern)."""

    def __init__(self, size: int, counter_type: CounterType = CounterType.PACKETS_AND_BYTES, name: str = ""):
        if size <= 0:
            raise ReproError(f"counter size must be positive, got {size}")
        self._size = size
        self._type = counter_type
        # Which arrays one ``count`` touches, decided here once.
        self._counts_packets = counter_type is not CounterType.BYTES
        self._counts_bytes = counter_type is not CounterType.PACKETS
        self._packets = [0] * size
        self._bytes = [0] * size
        self.name = name or "counter"

    @property
    def size(self) -> int:
        """Number of counter cells."""
        return self._size

    @property
    def counter_type(self) -> CounterType:
        """What this counter accumulates."""
        return self._type

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise ReproError(f"{self.name}: index {index} out of range [0, {self._size})")

    def count(self, index: int, packet_bytes: int = 0) -> None:
        """Account one packet of ``packet_bytes`` bytes at ``index``."""
        self._check_index(index)
        if packet_bytes < 0:
            raise ReproError(f"packet size must be non-negative, got {packet_bytes}")
        if self._counts_packets:
            self._packets[index] += 1
        if self._counts_bytes:
            self._bytes[index] += packet_bytes

    def read(self, index: int) -> CounterSample:
        """Read one cell (control-plane access)."""
        self._check_index(index)
        return CounterSample(packets=self._packets[index], bytes=self._bytes[index])

    def clear(self) -> None:
        """Zero every cell (control-plane access).

        In place: :class:`NamedCounterSet` hands the two arrays out.
        """
        self._packets[:] = [0] * self._size
        self._bytes[:] = [0] * self._size


class NamedCounterSet:
    """A small convenience wrapper mapping labels to counter indices.

    The ZipLine program counts packets per transformation kind; giving each
    kind a label keeps the data-plane code and the statistics readable.
    """

    def __init__(self, labels: List[str], name: str = ""):
        if not labels:
            raise ReproError("NamedCounterSet requires at least one label")
        if len(set(labels)) != len(labels):
            raise ReproError("counter labels must be unique")
        self._labels = list(labels)
        self._indices = {label: index for index, label in enumerate(labels)}
        self._counter = Counter(len(labels), CounterType.PACKETS_AND_BYTES, name=name)
        #: The counter's own cells.  A data plane that resolved a label
        #: beforehand (:meth:`index`) counts with two increments:
        #: ``packet_cells[i] += 1`` and ``byte_cells[i] += length``.
        self.packet_cells = self._counter._packets
        self.byte_cells = self._counter._bytes

    @property
    def labels(self) -> List[str]:
        """The registered labels, in index order."""
        return list(self._labels)

    def index(self, label: str) -> int:
        """The cell ``label`` counts in; an unknown label is an error."""
        index = self._indices.get(label)
        if index is None:
            raise ReproError(f"unknown counter label {label!r}")
        return index

    def count(self, label: str, packet_bytes: int = 0) -> None:
        """Account one packet under ``label``."""
        index = self.index(label)
        if packet_bytes < 0:
            raise ReproError(f"packet size must be non-negative, got {packet_bytes}")
        self.packet_cells[index] += 1
        self.byte_cells[index] += packet_bytes

    def read(self, label: str) -> CounterSample:
        """Read the sample for ``label``."""
        return self._counter.read(self.index(label))

    def as_dict(self) -> Dict[str, CounterSample]:
        """Every label's sample."""
        return {label: self.read(label) for label in self._labels}

    def clear(self) -> None:
        """Zero every counter."""
        self._counter.clear()
