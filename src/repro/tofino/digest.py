"""Digests: the data plane's asynchronous channel to the control plane.

When the ZipLine data plane sees an unknown basis it emits a *digest*
containing the basis; the control plane receives it (after a batching and
delivery delay), allocates an identifier and installs the mappings.  This
latency is the dominant part of the paper's measured (1.77 ± 0.08) ms
learning delay, so the model makes it explicit and configurable:

* digests are queued by the data plane with zero cost;
* a batch is delivered to subscribers after ``delivery_latency`` seconds
  (TNA batches digests; the default models the digest DMA + driver path);
* the queue has a finite depth — overflowing digests are dropped and
  counted, as on the real ASIC.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import ControlPlaneError
from repro.sim.lookahead import InFlight
from repro.sim.simulator import Simulator

__all__ = ["DigestMessage", "DigestEngine"]

#: Default latency between the data plane emitting a digest and the control
#: plane callback running (seconds).  Chosen so the end-to-end learning time
#: (digest + processing + two table writes) lands near the paper's 1.77 ms.
DEFAULT_DELIVERY_LATENCY = 0.9e-3


@dataclass(frozen=True)
class DigestMessage:
    """One digest record as seen by the control plane."""

    digest_type: str
    data: Dict[str, Any]
    emitted_at: float
    delivered_at: float


class DigestEngine:
    """Queue and deliver digests from the data plane to subscribers.

    Parameters
    ----------
    simulator:
        The shared discrete-event simulator; delivery happens on its clock.
        When ``None`` the engine delivers synchronously (useful for unit
        tests of the data plane alone).
    delivery_latency:
        Seconds between emission and the subscriber callback.
    queue_depth:
        Maximum number of undelivered digests; further digests are dropped.
    """

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        delivery_latency: float = DEFAULT_DELIVERY_LATENCY,
        queue_depth: int = 2048,
    ):
        if delivery_latency < 0:
            raise ControlPlaneError("delivery latency cannot be negative")
        if queue_depth <= 0:
            raise ControlPlaneError("queue depth must be positive")
        self._simulator = simulator
        self._delivery_latency = delivery_latency
        self._queue_depth = queue_depth
        self._subscribers: Dict[str, List[Callable[[DigestMessage], None]]] = {}
        # Delivery-event descriptions, formatted once per digest type.
        self._labels: Dict[str, str] = {}
        self._undelivered = 0
        #: Undelivered digests, holding the programs the subscribers can
        #: write (see :mod:`repro.sim.lookahead`).
        self.in_flight = None if simulator is None else InFlight(simulator)
        self.emitted = 0
        self.delivered = 0
        self.dropped = 0

    # -- configuration -------------------------------------------------------

    @property
    def delivery_latency(self) -> float:
        """Configured emission → callback latency in seconds."""
        return self._delivery_latency

    def subscribe(self, digest_type: str, callback: Callable[[DigestMessage], None]) -> None:
        """Register a control-plane callback for a digest type."""
        if not callable(callback):
            raise ControlPlaneError("digest callback must be callable")
        self._subscribers.setdefault(digest_type, []).append(callback)

    # -- data-plane side --------------------------------------------------------

    def emit(
        self, digest_type: str, data: Dict[str, Any], time: Optional[float] = None
    ) -> bool:
        """Emit one digest from the data plane at ``time`` (the clock when
        ``None``; a program that took its frame ahead of the clock passes
        that frame's stamp).

        Returns ``False`` (and counts a drop) when the queue is full.
        Delivery is scheduled on the simulator when one is attached,
        otherwise the callbacks run immediately.
        """
        self.emitted += 1
        if self._undelivered >= self._queue_depth:
            self.dropped += 1
            return False
        simulator = self._simulator
        if time is None:
            time = simulator.now if simulator is not None else 0.0
        message = DigestMessage(
            digest_type=digest_type,
            data=dict(data),
            emitted_at=time,
            delivered_at=time + self._delivery_latency,
        )
        self._undelivered += 1
        if simulator is None:
            self._deliver(message)
            return True
        label = self._labels.get(digest_type)
        if label is None:
            label = self._labels[digest_type] = f"digest:{digest_type}"
        self.in_flight.schedule_at(
            message.delivered_at, partial(self._deliver, message), label
        )
        return True

    # -- delivery ------------------------------------------------------------------

    def _deliver(self, message: DigestMessage) -> None:
        self._undelivered -= 1
        self.delivered += 1
        for callback in self._subscribers.get(message.digest_type, []):
            callback(message)
