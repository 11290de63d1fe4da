"""Structured event log for the ZipLine control plane.

The control plane records what it does (mappings learned, evictions,
ignored digests) as typed events with timestamps.  The dynamic-learning
experiment and several tests read this log to verify sequencing — e.g. that
the reverse (decoder-side) mapping is always installed before the forward
(encoder-side) mapping, as Section 5 of the paper requires.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Hashable, Iterator, List, Type, TypeVar

__all__ = [
    "ControlPlaneEvent",
    "DigestReceived",
    "DigestIgnored",
    "MappingEvicted",
    "DecoderMappingInstalled",
    "EncoderMappingInstalled",
    "MappingExpired",
    "EventLog",
    "MAX_EVENTS",
]

#: Events an :class:`EventLog` retains.  The log grows with traffic (about
#: 0.7 events per chunk on a thrashing trace) and no report reads it, so a
#: long run keeps the most recent ones and counts the rest; every test,
#: example and benchmark run records far fewer.
MAX_EVENTS = 1 << 16


@dataclass(frozen=True)
class ControlPlaneEvent:
    """Base class: every event has a timestamp (simulated seconds)."""

    time: float


@dataclass(frozen=True)
class DigestReceived(ControlPlaneEvent):
    """A learn digest reached the control plane."""

    basis: Hashable = None


@dataclass(frozen=True)
class DigestIgnored(ControlPlaneEvent):
    """A digest was ignored (basis already mapped or install pending)."""

    basis: Hashable = None
    reason: str = ""


@dataclass(frozen=True)
class MappingEvicted(ControlPlaneEvent):
    """An identifier was recycled away from a basis."""

    identifier: int = -1
    basis: Hashable = None


@dataclass(frozen=True)
class DecoderMappingInstalled(ControlPlaneEvent):
    """The reverse (identifier → basis) entry became active in the decoder."""

    identifier: int = -1
    basis: Hashable = None


@dataclass(frozen=True)
class EncoderMappingInstalled(ControlPlaneEvent):
    """The forward (basis → identifier) entry became active in the encoder."""

    identifier: int = -1
    basis: Hashable = None


@dataclass(frozen=True)
class MappingExpired(ControlPlaneEvent):
    """An idle-timeout sweep removed a stale mapping."""

    identifier: int = -1
    basis: Hashable = None


EventT = TypeVar("EventT", bound=ControlPlaneEvent)


class EventLog:
    """An append-only, queryable log of the last :data:`MAX_EVENTS` events."""

    def __init__(self) -> None:
        self._events: Deque[ControlPlaneEvent] = deque(maxlen=MAX_EVENTS)
        #: Events recorded and since pushed out by newer ones.
        self.dropped = 0

    def append(self, event: ControlPlaneEvent) -> None:
        """Record one event (the oldest one makes room when the log is full)."""
        if len(self._events) == MAX_EVENTS:
            self.dropped += 1
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ControlPlaneEvent]:
        return iter(list(self._events))

    def of_type(self, event_type: Type[EventT]) -> List[EventT]:
        """Every recorded event of the given type, in order."""
        return [event for event in self._events if isinstance(event, event_type)]
