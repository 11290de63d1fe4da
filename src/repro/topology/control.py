"""In-network control messages: table writes that travel over links.

The original reproduction's control plane mutated switch tables through
direct method calls (after modelling the write latency).  In a real
deployment the controller talks to a *remote* switch: the install command
crosses the network.  :class:`ControlChannel` models exactly that — it
serialises each table command into a control frame (EtherType
:data:`ETHERTYPE_ZIPLINE_CONTROL`), sends it down an
:class:`~repro.replay.link.EmulatedLink` (so serialisation, propagation,
queueing and even loss apply), and applies the command to the target
switch when the frame arrives.

:class:`~repro.controlplane.manager.ZipLineControlPlane` accepts a channel's
:meth:`ControlChannel.transport` as its ``decoder_transport``; with none
configured its transport is a direct write.  Either way the command is
applied by :func:`repro.controlplane.manager.apply_switch_command`
(re-exported here).
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Mapping, Optional, Tuple

from repro import obs as _obs
from repro.controlplane.manager import apply_switch_command
from repro.exceptions import TopologyError
from repro.sim.lookahead import InFlight
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # runtime import stays lazy: repro.replay imports us back
    from repro.replay.link import EmulatedLink

__all__ = [
    "ETHERTYPE_ZIPLINE_CONTROL",
    "apply_switch_command",
    "ControlChannel",
]

#: EtherType of in-network control frames (0x88B4..0x88B6 are taken by the
#: chunk / type-2 / type-3 data-plane formats).
ETHERTYPE_ZIPLINE_CONTROL = 0x88B7

_CONTROL_ETHERTYPE_BYTES = ETHERTYPE_ZIPLINE_CONTROL.to_bytes(2, "big")

#: A send costs one token; the bucket is compared against ``1 - ε`` so the
#: refill after a drain wait of exactly ``(1 - tokens) / rate`` — which
#: lands at 0.999… in floating point — still counts as a full token.
#: Without it the drain reschedules itself with ~1e-14 waits forever.
_TOKEN_EPSILON = 1e-9
#: Locally-administered MACs identifying the controller and the managed switch.
_CONTROLLER_MAC = bytes.fromhex("0200000000f1")
_SWITCH_MAC = bytes.fromhex("0200000000f2")


def _control_trace_args(command: Mapping[str, Any]) -> Dict[str, Any]:
    """The op plus whichever key (identifier/basis) the command carries."""
    args: Dict[str, Any] = {"op": command.get("op")}
    if "identifier" in command:
        args["identifier"] = command["identifier"]
    if "basis" in command:
        args["basis"] = command["basis"]
    return args


class ControlChannel:
    """Deliver table commands to a switch over an emulated link.

    Parameters
    ----------
    simulator:
        The shared simulator (send times are read from its clock).
    link:
        The emulated hop control frames traverse.  The channel owns the
        link's sink; the link's bandwidth/propagation/queue parameters
        model the controller-to-switch path.
    switch:
        The managed switch commands are applied to on arrival.
    rate:
        Token-bucket pacing of the command stream in commands per second
        (the BfRt write budget of a real controller).  ``None`` (the
        default) sends every command immediately, the original behaviour.
    burst:
        Token-bucket depth: how many back-to-back commands may be sent
        before pacing kicks in.  Only meaningful with ``rate`` set.
    queue_capacity:
        Bound on the install queue that holds commands deferred by the
        rate limiter.  When the queue is full further commands are dropped
        (and counted); ``None`` defers without bound.

    Reordered and duplicated commands are made idempotent by an *epoch*
    stamped on every identifier-carrying command at send time: the receive
    side applies a command only when its epoch is newer than the last one
    applied for that identifier, so a stale install can never displace a
    newer binding (and thereby re-trigger an eviction on the switch).
    """

    def __init__(
        self,
        simulator: Simulator,
        link: "EmulatedLink",
        switch: Any,
        rate: Optional[float] = None,
        burst: int = 8,
        queue_capacity: Optional[int] = None,
    ):
        if rate is not None and rate <= 0:
            raise TopologyError(f"control rate must be positive, got {rate}")
        if burst <= 0:
            raise TopologyError(f"control burst must be positive, got {burst}")
        if queue_capacity is not None and queue_capacity <= 0:
            raise TopologyError(
                f"control queue capacity must be positive or None, got {queue_capacity}"
            )
        self.simulator = simulator
        self.link = link
        self.switch = switch
        self.rate = rate
        self.burst = burst
        self.queue_capacity = queue_capacity
        self.messages_sent = 0
        self.messages_applied = 0
        self.message_bytes = 0
        #: Commands parked behind the rate limiter / dropped at the full queue.
        self.deferred = 0
        self.dropped_backpressure = 0
        self.max_queue_depth = 0
        #: Stale or duplicate commands ignored by the epoch guard.
        self.stale_ignored = 0
        #: Resync (recovery) commands applied after a switch restart.
        self.resync_applied = 0
        self.last_resync_applied_at = 0.0
        self._queue: Deque[
            Tuple[
                Dict[str, Any],
                Optional[Callable[[], None]],
                Optional[Callable[[], None]],
            ]
        ] = deque()
        #: epoch -> acknowledgement callback of an in-flight command.
        self._pending_acks: Dict[int, Callable[[], None]] = {}
        self._tokens = float(burst)
        self._last_refill = simulator.now
        self._drain_scheduled = False
        self._send_epoch = 0
        self._applied_epochs: Dict[Any, int] = {}
        self._drain_label = f"{link.name}:control-drain"
        #: The drain of commands parked behind the rate limiter holds the
        #: managed switch's lookahead; frames on the wire are counted on it.
        self.in_flight = InFlight(simulator)
        lookahead = getattr(switch, "lookahead", None)
        if lookahead is not None:
            self.in_flight.watch(lookahead)
        link.attach(self._on_frame)

    @property
    def queue_depth(self) -> int:
        """Commands currently parked behind the rate limiter."""
        return len(self._queue)

    def transport(
        self,
        command: Mapping[str, Any],
        on_applied: Optional[Callable[[], None]] = None,
        on_drop: Optional[Callable[[], None]] = None,
    ) -> None:
        """Accept one command from the control plane (pacing applies here).

        The channel models an *acknowledged* table write (a real BfRt
        write is a synchronous RPC): ``on_applied`` fires when the command
        has been applied on the managed switch — the control plane chains
        the encoder-side install off it, so the decoder-first install
        discipline holds even when commands are delayed by backpressure or
        reordered on the wire.  ``on_drop`` fires instead when the write
        visibly fails: rejected at the full install queue, or lost on the
        wire (the ack never comes back).
        """
        stamped = dict(command)
        self._send_epoch += 1
        stamped["epoch"] = self._send_epoch
        if self.rate is None:
            self._dispatch(stamped, on_applied, on_drop)
            return
        self._refill()
        if not self._queue and self._tokens >= 1.0 - _TOKEN_EPSILON:
            self._tokens = max(0.0, self._tokens - 1.0)
            self._dispatch(stamped, on_applied, on_drop)
            return
        if (
            self.queue_capacity is not None
            and len(self._queue) >= self.queue_capacity
        ):
            self.dropped_backpressure += 1
            tracer = _obs.TRACER
            if tracer.enabled:
                tracer.instant(
                    "control.drop",
                    self.link.name,
                    args=dict(
                        _control_trace_args(stamped),
                        reason="backpressure",
                        depth=len(self._queue),
                    ),
                )
            if on_drop is not None:
                on_drop()
            return
        self._queue.append((stamped, on_applied, on_drop))
        self.deferred += 1
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        self._schedule_drain()

    # -- token bucket ----------------------------------------------------------

    def _refill(self) -> None:
        now = self.simulator.now
        if now > self._last_refill:
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._last_refill) * self.rate,
            )
        self._last_refill = now

    def _schedule_drain(self) -> None:
        if self._drain_scheduled:
            return
        self._drain_scheduled = True
        wait = max(0.0, (1.0 - self._tokens) / self.rate)
        self.in_flight.schedule_at(
            self.simulator.now + wait, self._drain, self._drain_label
        )

    def _drain(self) -> None:
        self._drain_scheduled = False
        self._refill()
        while self._queue and self._tokens >= 1.0 - _TOKEN_EPSILON:
            self._tokens = max(0.0, self._tokens - 1.0)
            command, on_applied, on_drop = self._queue.popleft()
            self._dispatch(command, on_applied, on_drop)
        if self._queue:
            self._schedule_drain()

    def _dispatch(
        self,
        command: Mapping[str, Any],
        on_applied: Optional[Callable[[], None]],
        on_drop: Optional[Callable[[], None]],
    ) -> None:
        """Put one command on the wire and track its acknowledgement.

        Wire loss is detected synchronously (the write RPC fails) and
        reported through ``on_drop``; a delivered command's ``on_applied``
        fires from :meth:`_on_frame` when it reaches the switch, keyed by
        its epoch so reordering cannot confuse acknowledgements.
        """
        if on_applied is not None:
            self._pending_acks[command["epoch"]] = on_applied
        stats = self.link.stats
        dropped_before = stats.dropped_loss + stats.dropped_queue
        self._send_now(command)
        if stats.dropped_loss + stats.dropped_queue > dropped_before:
            self._pending_acks.pop(command["epoch"], None)
            if on_drop is not None:
                on_drop()
        else:
            self.in_flight.add(1)

    # -- wire format -----------------------------------------------------------

    def _send_now(self, command: Mapping[str, Any]) -> None:
        """Serialise and transmit one command at the current simulated time."""
        payload = json.dumps(command, sort_keys=True).encode("utf-8")
        frame = _SWITCH_MAC + _CONTROLLER_MAC + _CONTROL_ETHERTYPE_BYTES + payload
        self.messages_sent += 1
        self.message_bytes += len(frame)
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.instant(
                "control.send",
                self.link.name,
                args=_control_trace_args(command),
            )
        self.link.send(frame, self.simulator.now)

    def _on_frame(self, frame_bytes: bytes, time: float) -> None:
        self.in_flight.add(-1)
        if frame_bytes[12:14] != _CONTROL_ETHERTYPE_BYTES:
            raise TopologyError(
                f"control channel {self.link.name!r} received a non-control "
                f"frame (ethertype {frame_bytes[12:14].hex()})"
            )
        command = json.loads(frame_bytes[14:].decode("utf-8"))
        tracer = _obs.TRACER
        epoch = command.get("epoch")
        identifier = command.get("identifier")
        # The write reached the switch: acknowledge it either way.  A
        # stale-ignored command still acks — its issuer re-validates
        # against the pool before acting on the acknowledgement.
        acknowledge = (
            self._pending_acks.pop(epoch, None) if epoch is not None else None
        )
        if epoch is not None and identifier is not None:
            last_applied = self._applied_epochs.get(identifier)
            if last_applied is not None and epoch <= last_applied:
                self.stale_ignored += 1
                if tracer.enabled:
                    tracer.instant(
                        "control.ignore",
                        self.link.name,
                        args=dict(
                            _control_trace_args(command),
                            reason="stale-epoch",
                            epoch=epoch,
                            applied=last_applied,
                        ),
                        ts=time,
                    )
                if acknowledge is not None:
                    acknowledge()
                return
            self._applied_epochs[identifier] = epoch
        self.messages_applied += 1
        if command.get("resync"):
            self.resync_applied += 1
            self.last_resync_applied_at = time
        if tracer.enabled:
            tracer.instant(
                "control.apply",
                self.link.name,
                args=_control_trace_args(command),
                ts=time,
            )
        apply_switch_command(self.switch, command)
        if acknowledge is not None:
            acknowledge()

    def counters(self) -> Dict[str, float]:
        """Channel counters for the metrics registry.

        ``dropped`` is the total number of commands lost anywhere on the
        control path — backpressure drops at the full install queue plus
        frames the link lost or tail-dropped; ``queue_depth`` is the
        high-water mark of the install queue.
        """
        return {
            "messages_sent": self.messages_sent,
            "messages_applied": self.messages_applied,
            "message_bytes": self.message_bytes,
            "deferred": self.deferred,
            "queue_depth": self.max_queue_depth,
            "dropped_backpressure": self.dropped_backpressure,
            "dropped": self.dropped_backpressure + self.link.stats.dropped,
            "stale_ignored": self.stale_ignored,
            "resync_applied": self.resync_applied,
        }
