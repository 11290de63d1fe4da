"""The ZipLine control plane: learn bases from digests, manage identifiers.

The control plane is the Python/BfRt component of the paper (Section 5).
Its responsibilities, reproduced here:

1. subscribe to the *learn* digests the encoding data plane emits when it
   meets an unknown basis;
2. pick an identifier for the basis — the least recently used free one, or
   recycle the LRU bound one when the pool is exhausted;
3. install the **reverse** (identifier → basis) mapping on the *decoding*
   switch first, so a compressed packet can never arrive before its mapping;
4. then install the **forward** (basis → identifier) mapping on the
   *encoding* switch, at which point subsequent packets with that basis are
   compressed;
5. recycle mappings whose table entries report an idle timeout (TTL).

Every step has an associated latency drawn from :class:`ControlPlaneTimings`;
the sum of the defaults reproduces the paper's measured
(1.77 ± 0.08) ms between the first type-2 and the first type-3 packet.

The manager talks to switches through a narrow duck-typed interface so it
does not depend on :mod:`repro.zipline`:

* encoder switch: ``install_basis_mapping(basis, identifier, ttl)``,
  ``remove_basis_mapping(basis)``, ``expired_bases(now)``;
* decoder switch: ``install_identifier_mapping(identifier, basis)``,
  ``remove_identifier_mapping(identifier)``.

Either may carry a ``name``, which names the trace track of the control
plane's steps (the encoder's, else the decoder's).

Table mutations are plain command dictionaries (``{"op":
"install_identifier", ...}``) and :func:`apply_switch_command` is the one
place that turns one into a method call.  Decoder-side commands travel
through a *transport*, which receives the command plus the ``on_applied`` /
``on_drop`` callbacks and is responsible for applying it:
:meth:`repro.topology.control.ControlChannel.transport` carries it across
an emulated link with real latency; with no ``decoder_transport`` given the
transport is the degenerate one — a direct write, acknowledged at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Set

from repro import obs as _obs
from repro.controlplane import events
from repro.controlplane.idpool import IdentifierPool
from repro.core.dictionary import decode_snapshot_key, encode_snapshot_key
from repro.exceptions import ControlPlaneError
from repro.sim.lookahead import InFlight
from repro.sim.simulator import Simulator
from repro.tofino.digest import DigestEngine, DigestMessage

__all__ = [
    "apply_switch_command",
    "ControlPlaneTimings",
    "ControlPlaneStats",
    "ZipLineControlPlane",
]


#: Digest type emitted by the encoding data plane for unknown bases.
LEARN_DIGEST = "zipline_learn_basis"


def apply_switch_command(switch: Any, command: Mapping[str, Any]) -> None:
    """Apply one table command to a switch — the only dispatch over ``op``
    (the control plane's direct writes, and ``ControlChannel`` on arrival)."""
    operation = command.get("op")
    if operation == "install_identifier":
        switch.install_identifier_mapping(command["identifier"], command["basis"])
    elif operation == "remove_identifier":
        switch.remove_identifier_mapping(command["identifier"])
    elif operation == "install_basis":
        switch.install_basis_mapping(
            command["basis"], command["identifier"], command.get("ttl")
        )
    elif operation == "remove_basis":
        switch.remove_basis_mapping(command["basis"])
    else:
        raise ControlPlaneError(f"unknown control command {operation!r}")


@dataclass(frozen=True)
class ControlPlaneTimings:
    """Latency model of the control-plane path (seconds).

    The defaults, together with the digest delivery latency configured in
    :class:`~repro.tofino.digest.DigestEngine` (0.9 ms), sum to ≈ 1.77 ms:

    ``digest 0.90 ms + processing 0.27 ms + decoder write 0.30 ms +
    encoder write 0.30 ms = 1.77 ms``

    matching the paper's measured learning delay.  ``jitter_fraction`` adds
    a small uniformly distributed perturbation to each component so repeated
    measurements produce a realistic confidence interval (the paper reports
    ± 0.08 ms over 10 runs).
    """

    processing_latency: float = 0.27e-3
    table_write_latency: float = 0.30e-3
    idle_poll_interval: float = 50e-3
    jitter_fraction: float = 0.03

    def jittered(self, value: float, rng: random.Random) -> float:
        """Apply ± ``jitter_fraction`` uniform jitter to a latency value."""
        if self.jitter_fraction <= 0:
            return value
        spread = value * self.jitter_fraction
        return max(0.0, value + rng.uniform(-spread, spread))

    def least(self, value: float) -> float:
        """The smallest latency :meth:`jittered` can draw for ``value``."""
        if self.jitter_fraction <= 0:
            return value
        return max(0.0, value - value * self.jitter_fraction)


@dataclass
class ControlPlaneStats:
    """Counters describing control-plane activity.

    ``resyncs`` / ``resync_installs`` / ``storm_evictions`` are the
    crash-recovery counters: how many decoder resynchronisations ran, how
    many install commands they re-issued, and how many bindings were
    force-evicted by injected eviction storms.  All three stay zero outside
    fault-injection runs.
    """

    digests_received: int = 0
    digests_ignored: int = 0
    mappings_learned: int = 0
    mappings_recycled: int = 0
    mappings_expired: int = 0
    resyncs: int = 0
    resync_installs: int = 0
    storm_evictions: int = 0
    installs_abandoned: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view used by the reporting helpers.

        The recovery counters appear only once nonzero, so fault-free
        reports keep the exact counter set (and bytes) they always had.
        """
        data = {
            "digests_received": self.digests_received,
            "digests_ignored": self.digests_ignored,
            "mappings_learned": self.mappings_learned,
            "mappings_recycled": self.mappings_recycled,
            "mappings_expired": self.mappings_expired,
        }
        if self.resyncs:
            data["resyncs"] = self.resyncs
        if self.resync_installs:
            data["resync_installs"] = self.resync_installs
        if self.storm_evictions:
            data["storm_evictions"] = self.storm_evictions
        if self.installs_abandoned:
            data["installs_abandoned"] = self.installs_abandoned
        return data


class ZipLineControlPlane:
    """Manage basis ↔ identifier mappings across an encoder/decoder pair.

    Parameters
    ----------
    simulator:
        Shared simulator; used to model processing and table-write latency.
        When ``None`` everything happens synchronously (functional mode).
    encoder_switch / decoder_switch:
        Objects implementing the narrow interfaces documented in the module
        docstring.  Either may be ``None`` (e.g. a decode-only deployment).
    identifier_bits:
        Width of the identifier space (the paper uses 15 → 32,768 IDs).
    entry_ttl:
        TTL assigned to encoder-side entries; expired entries are recycled
        by the idle poll.  ``None`` disables expiry.
    timings:
        Control-plane latency model.
    seed:
        Seed for the latency jitter.
    decoder_transport:
        Optional callable taking a command dictionary and the
        ``on_applied`` / ``on_drop`` keyword callbacks.  When set, decoder
        table mutations are handed to the transport (which models an
        in-network control path) instead of being written to
        ``decoder_switch`` directly.
    """

    def __init__(
        self,
        digest_engine: DigestEngine,
        encoder_switch: Optional[object] = None,
        decoder_switch: Optional[object] = None,
        simulator: Optional[Simulator] = None,
        identifier_bits: int = 15,
        entry_ttl: Optional[float] = None,
        timings: Optional[ControlPlaneTimings] = None,
        seed: Optional[int] = None,
        decoder_transport: Optional[Callable[..., None]] = None,
    ):
        if identifier_bits <= 0:
            raise ControlPlaneError("identifier_bits must be positive")
        self._encoder_switch = encoder_switch
        self._decoder_switch = decoder_switch
        if decoder_transport is None and decoder_switch is not None:
            decoder_transport = self._write_decoder
        self._decoder_transport = decoder_transport
        self._simulator = simulator
        self._pool = IdentifierPool(1 << identifier_bits)
        self._entry_ttl = entry_ttl
        self._timings = timings or ControlPlaneTimings()
        self._rng = random.Random(seed)
        self._pending: Set[Hashable] = set()
        self.stats = ControlPlaneStats()
        served = encoder_switch if encoder_switch is not None else decoder_switch
        name = getattr(served, "name", None)
        #: The trace track of this control plane's steps.
        self._trace = events.EventLog(
            "controlplane" if name is None else f"controlplane.{name}"
        )
        digest_engine.subscribe(LEARN_DIGEST, self._on_learn_digest)
        #: Every step and TTL poll of this control plane holds both
        #: switches' lookaheads until it has run: each can end in a write
        #: to either table.
        self.in_flight = None if simulator is None else InFlight(simulator)
        if self.in_flight is not None:
            # A write nothing has started yet begins with a learn digest:
            # it reaches this control plane after the digest latency and
            # writes a table one processing step later at the earliest.
            step = self._timings.least(self._timings.processing_latency)
            reaction = digest_engine.delivery_latency + step
            for switch in (encoder_switch, decoder_switch):
                lookahead = getattr(switch, "lookahead", None)
                if lookahead is not None:
                    self.in_flight.watch(lookahead, reaction)
                    if digest_engine.in_flight is not None:
                        # A delivered digest writes the decoder no sooner
                        # than one processing step later; the encoder's
                        # digest queue counts down at the delivery itself.
                        digest_engine.in_flight.watch(
                            lookahead, after=step if switch is decoder_switch else 0.0
                        )
        # The idle poll runs on a fixed grid from construction, and only
        # while some encoder entry can time out (``_arm_idle_poll``).
        self._idle_poll_armed = False
        if simulator is not None:
            self._next_idle_poll = simulator.now + self._timings.idle_poll_interval

    # -- accessors ---------------------------------------------------------

    @property
    def pool(self) -> IdentifierPool:
        """The identifier pool."""
        return self._pool

    def _now(self) -> float:
        return self._simulator.now if self._simulator is not None else 0.0

    # -- switch command routing ---------------------------------------------

    def _write_decoder(self, command, on_applied=None, on_drop=None) -> None:
        """The degenerate decoder transport: a direct, synchronous write.

        A transport runs ``on_applied`` once the decoder has applied the
        write (the acked-write model), or ``on_drop`` when it was rejected
        by a full install queue or lost on the wire; this one cannot drop.
        """
        apply_switch_command(self._decoder_switch, command)
        if on_applied is not None:
            on_applied()

    def _remove_from_switches(self, identifier: int, basis: Hashable) -> None:
        """Issue the removes for a binding the pool no longer holds."""
        if self._encoder_switch is not None:
            apply_switch_command(
                self._encoder_switch, {"op": "remove_basis", "basis": basis}
            )
        if self._decoder_transport is not None:
            self._decoder_transport({"op": "remove_identifier", "identifier": identifier})

    # -- digest handling -----------------------------------------------------

    def _on_learn_digest(self, message: DigestMessage) -> None:
        """Handle one learn digest from the encoding data plane."""
        basis = message.data.get("basis")
        if basis is None:
            raise ControlPlaneError("learn digest without a 'basis' field")
        now = self._now()
        self.stats.digests_received += 1
        tracer = _obs.TRACER
        if tracer.enabled:
            self._trace.append("controlplane.digest", now, basis=basis)

        if self._pool.identifier_for(basis) is not None:
            reason = "already mapped"
        elif basis in self._pending:
            reason = "install pending"
        else:
            self._pending.add(basis)
            processing = self._timings.jittered(
                self._timings.processing_latency, self._rng
            )
            self._after(processing, lambda: self._allocate_and_install(basis))
            return
        self.stats.digests_ignored += 1
        if tracer.enabled:
            self._trace.append("controlplane.ignore", now, basis=basis, reason=reason)

    def _allocate_and_install(self, basis: Hashable) -> None:
        """Pick an identifier (recycling if needed) and start the installs."""
        allocation = self._pool.allocate(basis)
        if allocation.recycled:
            self.stats.mappings_recycled += 1
            tracer = _obs.TRACER
            if tracer.enabled:
                self._trace.append(
                    "controlplane.evict",
                    self._now(),
                    identifier=allocation.identifier,
                    basis=allocation.evicted_basis,
                )
            self._remove_from_switches(allocation.identifier, allocation.evicted_basis)

        self._after_table_write(
            lambda: self._install_decoder_side(basis, allocation.identifier)
        )

    def _abandon_if_stale(self, basis: Hashable, identifier: int) -> bool:
        """True when ``basis``'s binding was recycled away mid-install.

        Installs take two table-write latencies; under heavy churn the LRU
        policy can evict a binding *before* its installs land.  The recycle
        issues removes immediately — which no-op against entries that do
        not exist yet — so finishing the in-flight install would resurrect
        a stale entry the pool no longer tracks (the encoder table then
        leaks entries until it overflows, and a stale identifier can even
        decode to the wrong basis).  Abandoning the install keeps the
        switches exact mirrors of the pool.
        """
        if self._pool.identifier_for(basis) == identifier:
            return False
        self._abandon(basis, identifier)
        return True

    def _abandon(self, basis: Hashable, identifier: int) -> None:
        """Give up on the in-flight install of ``basis`` under ``identifier``."""
        self._pending.discard(basis)
        self.stats.installs_abandoned += 1
        tracer = _obs.TRACER
        if tracer.enabled:
            self._trace.append(
                "controlplane.abandon", self._now(), identifier=identifier, basis=basis
            )

    def _install_decoder_side(self, basis: Hashable, identifier: int) -> None:
        """Install the reverse mapping, then schedule the forward mapping.

        The encoder-side install is chained off the decoder write being
        *applied* (acknowledged), not off this call: a rate-limited
        control channel that parks the command in its install queue must
        delay compression activation, and a command lost on the control
        wire must roll the allocation back — activating the encoder while
        the decoder cannot decode would break the decoder-first install
        discipline, and on a recycled identifier it would silently decode
        the reused identifier with the stale basis.
        """
        if self._abandon_if_stale(basis, identifier):
            return
        if self._decoder_transport is None:
            # No decoder to write: only the encoder side is installed.
            self._after_table_write(
                lambda: self._install_encoder_side(basis, identifier)
            )
            return

        def proceed() -> None:
            # The decoder acknowledged the write: its entry is active.
            tracer = _obs.TRACER
            if tracer.enabled:
                self._trace.append(
                    "controlplane.install",
                    self._now(),
                    side="decoder",
                    identifier=identifier,
                    basis=basis,
                )
            self._after_table_write(
                lambda: self._install_encoder_side(basis, identifier)
            )

        def dropped() -> None:
            # The install never reached the decoder: roll the allocation
            # back so a later digest for this basis can retry from scratch.
            if self._pool.identifier_for(basis) == identifier:
                self._pool.release(identifier)
            self._abandon(basis, identifier)

        self._decoder_transport(
            {"op": "install_identifier", "identifier": identifier, "basis": basis},
            on_applied=proceed,
            on_drop=dropped,
        )

    def _install_encoder_side(self, basis: Hashable, identifier: int) -> None:
        """Install the forward mapping; compression starts after this point."""
        if self._abandon_if_stale(basis, identifier):
            return
        if self._encoder_switch is not None:
            apply_switch_command(
                self._encoder_switch,
                {
                    "op": "install_basis",
                    "basis": basis,
                    "identifier": identifier,
                    "ttl": self._entry_ttl,
                },
            )
        self._pending.discard(basis)
        self.stats.mappings_learned += 1
        tracer = _obs.TRACER
        if tracer.enabled:
            self._trace.append(
                "controlplane.install",
                self._now(),
                side="encoder",
                identifier=identifier,
                basis=basis,
            )
        if self._entry_ttl is not None:
            self._arm_idle_poll()

    # -- idle timeout handling ---------------------------------------------------

    def _timed_entries_remain(self) -> bool:
        """True while some encoder entry carries a TTL, and so can time out."""
        table = getattr(self._encoder_switch, "mapping_table", None)
        return table is not None and any(
            entry.ttl is not None for entry in table.entries()
        )

    def _arm_idle_poll(self) -> None:
        """Schedule the next idle poll, if entries time out and none is due.

        Polls keep the phase of the grid they started on: the next one is
        the first grid instant after now, as if the poll had never paused.
        """
        if (
            self._idle_poll_armed
            or self._entry_ttl is None
            or self.in_flight is None
            or self._encoder_switch is None
        ):
            return
        interval = self._timings.idle_poll_interval
        now = self._simulator.now
        while self._next_idle_poll <= now:
            self._next_idle_poll += interval
        self._idle_poll_armed = True
        self.in_flight.schedule_at(
            self._next_idle_poll, self._idle_poll, "control-plane idle poll"
        )

    def _idle_poll(self) -> None:
        """Recycle mappings whose encoder-side entries report idle timeout,
        and poll again one interval later while any entry can still time
        out — so a run ends once its last entries have expired."""
        now = self._now()
        tracer = _obs.TRACER
        if self._encoder_switch is not None and hasattr(self._encoder_switch, "expired_bases"):
            for basis in self._encoder_switch.expired_bases(now):
                identifier = self._pool.identifier_for(basis)
                if identifier is None:
                    continue
                self._pool.release(identifier)
                self._remove_from_switches(identifier, basis)
                self.stats.mappings_expired += 1
                if tracer.enabled:
                    self._trace.append(
                        "controlplane.expire", now, identifier=identifier, basis=basis
                    )
        self._idle_poll_armed = False
        self._next_idle_poll = now + self._timings.idle_poll_interval
        if self._timed_entries_remain():
            self._arm_idle_poll()

    # -- plumbing ---------------------------------------------------------------------

    def _after(self, delay: float, callback) -> None:
        """Run ``callback`` after ``delay`` seconds (immediately without a simulator)."""
        if self.in_flight is None:
            callback()
        else:
            self.in_flight.schedule_at(
                self._simulator.now + delay, callback, "control-plane step"
            )

    def _after_table_write(self, callback) -> None:
        """Run ``callback`` one (jittered) table-write latency from now."""
        timings = self._timings
        self._after(timings.jittered(timings.table_write_latency, self._rng), callback)

    # -- crash recovery ---------------------------------------------------------------

    def resync_decoder(self) -> int:
        """Reinstall every known identifier → basis mapping on the decoder.

        This is the recovery path for a decoder that lost its table state
        (e.g. a mid-trace restart): the control plane is the authoritative
        copy of the bindings, so it replays one ``install_identifier``
        command per binding — through the configured transport, which means
        resync traffic competes for the same rate-limited, possibly lossy
        control channel as regular installs.  Commands are marked
        ``resync`` so the channel can account recovery traffic separately.
        Returns the number of install commands issued.
        """
        bindings = self._pool.bindings()
        for identifier, basis in bindings.items():
            self._decoder_transport(
                {
                    "op": "install_identifier",
                    "identifier": identifier,
                    "basis": basis,
                    "resync": True,
                }
            )
        self.stats.resyncs += 1
        self.stats.resync_installs += len(bindings)
        return len(bindings)

    def force_evict(self, count: int) -> int:
        """Forcibly evict up to ``count`` LRU bindings (an eviction storm).

        Models operator-driven or bug-driven table churn: the least
        recently used bindings are released and remove commands are sent to
        both switches, so the data plane immediately falls back to type-2
        records for those bases until they are re-learned.  Returns the
        number of bindings actually evicted.
        """
        if count < 0:
            raise ControlPlaneError(f"eviction count cannot be negative, got {count}")
        evicted = 0
        now = self._now()
        tracer = _obs.TRACER
        for _ in range(count):
            binding = self._pool.least_recently_used()
            if binding is None:
                break
            identifier, basis = binding
            self._pool.release(identifier)
            self._remove_from_switches(identifier, basis)
            self.stats.storm_evictions += 1
            if tracer.enabled:
                self._trace.append(
                    "controlplane.evict", now, identifier=identifier, basis=basis
                )
            evicted += 1
        return evicted

    # -- snapshot / restore -------------------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Canonical, JSON-serialisable snapshot of the mapping authority.

        The pool (the dictionary's own snapshot) and the bases whose
        installs are in flight.  Trace instants, latency state and counters
        describe the past, not what a restarted control plane needs.
        """
        return {
            "pool": self._pool.snapshot_state(),
            "pending": [
                encode_snapshot_key(basis)
                for basis in sorted(self._pending, key=repr)
            ],
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Replace the pool and pending-install set with a snapshot's (a
        malformed one raises a ``ReproError`` subclass and changes nothing)."""
        try:
            pool_state = state["pool"]
            pending = state.get("pending", [])
            if not isinstance(pending, list):
                raise TypeError("'pending' must be a list")
            pending = {decode_snapshot_key(basis) for basis in pending}
        except (KeyError, TypeError, ValueError) as error:
            raise ControlPlaneError(f"malformed snapshot: {error!r}") from None
        self._pool.restore_state(pool_state)
        self._pending = pending

    # -- manual management (static tables) ----------------------------------------------

    def preload_static_mappings(self, bases) -> int:
        """Install mappings for an iterable of bases with no latency.

        This is the paper's *static table* scenario: the mappings are added
        before the experiment starts.  Returns the number installed.
        """
        count = 0
        for basis in bases:
            if self._pool.identifier_for(basis) is not None:
                continue
            allocation = self._pool.allocate(basis)
            if self._decoder_switch is not None:
                self._decoder_switch.install_identifier_mapping(
                    allocation.identifier, basis
                )
            if self._encoder_switch is not None:
                self._encoder_switch.install_basis_mapping(
                    basis, allocation.identifier, self._entry_ttl
                )
            count += 1
        if count:
            self._arm_idle_poll()
        return count
