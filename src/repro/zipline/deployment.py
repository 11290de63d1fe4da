"""End-to-end ZipLine deployment: hosts, two switches, control plane.

The deployment reproduces the paper's testbed topology in simulated form::

    sender host ──> [ZipLine encoder switch] ──(tapped 100 GbE hop)──>
                    [ZipLine decoder switch] ──> receiver host

The hop between the two switches is the one whose traffic ZipLine reduces;
a :class:`~repro.zipline.stats.LinkTap` records every frame crossing it so
the Figure 3 byte accounting and the dynamic-learning timing can be read
off directly.  The control plane is attached to the encoder's digest engine
and writes mappings into both switches with the configured latencies.

:class:`ZipLineDeployment` owns no run loop: it is the ``paper-testbed``
preset (:func:`~repro.topology.spec.paper_testbed_topology`, a *direct*
tapped hop — no link emulation) handed to
:class:`~repro.topology.engine.TopologyEngine`, plus the chunk-list
convenience API the Figure 3 and learning-delay experiments use.

Three scenarios map onto the paper's Figure 3 bars:

* ``no_table`` — the control plane never installs mappings (digest handling
  disabled), every processed packet stays type 2;
* ``static`` — the mappings for every basis in the trace are installed
  before the replay starts;
* ``dynamic`` — mappings are learned from digests during the replay.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional, Sequence

from repro.exceptions import ReproError
from repro.zipline.headers import raw_chunk_payload
from repro.zipline.stats import CompressionSummary

__all__ = ["DeploymentScenario", "ZipLineDeployment"]


class DeploymentScenario(Enum):
    """Figure 3 scenario selector."""

    NO_TABLE = "no_table"
    STATIC = "static"
    DYNAMIC = "dynamic"

    @classmethod
    def from_name(cls, name: "str | DeploymentScenario") -> "DeploymentScenario":
        """Parse a scenario from its name or pass an instance through."""
        if isinstance(name, DeploymentScenario):
            return name
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(scenario.value for scenario in cls)
            raise ReproError(
                f"unknown scenario {name!r}; valid scenarios: {valid}"
            ) from None


class ZipLineDeployment:
    """Two ZipLine switches, a control plane and a pair of hosts.

    Parameters
    ----------
    scenario:
        ``no_table``, ``static`` or ``dynamic``.
    identifier_bits:
        Identifier width (15 in the paper).
    static_bases:
        Bases to preload when the scenario is ``static``.
    seed:
        Seed of the control plane's latency jitter.

    ``encoder``, ``decoder``, ``control_plane`` (``None`` under
    ``no_table``), ``link_tap`` and ``transform`` are the engine's live
    components.
    """

    def __init__(
        self,
        scenario: "str | DeploymentScenario" = DeploymentScenario.DYNAMIC,
        identifier_bits: int = 15,
        static_bases: Optional[Iterable[int]] = None,
        seed: int = 0,
    ):
        # repro.topology sits above this package (it wraps the switches),
        # so it can only be imported once repro.zipline is loaded.
        from repro.topology.engine import TopologyEngine
        from repro.topology.spec import paper_testbed_topology

        self.scenario = DeploymentScenario.from_name(scenario)
        if self.scenario is DeploymentScenario.STATIC and static_bases is None:
            raise ReproError("the static scenario requires static_bases")
        self.engine = TopologyEngine(
            paper_testbed_topology(
                scenario=self.scenario.value,
                identifier_bits=identifier_bits,
                seed=seed,
            ),
            static_bases=static_bases,
        )
        nodes = self.engine.graph.nodes
        self.encoder = nodes["encoder"].switch
        self.decoder = nodes["decoder"].switch
        self.control_plane = self.engine.control_planes.get("encoder")
        self.link_tap = self.engine.measured_tap
        self.transform = self.engine.transform
        self._flow = self.engine.flow_states[0]
        self._traffic = None

    # -- traffic ---------------------------------------------------------------------

    def replay_chunks(
        self,
        chunks: Sequence[bytes],
        packet_rate: float,
        start_time: float = 0.0,
    ) -> None:
        """Queue a constant-rate replay of ``chunks`` (packets per second).

        Chunk ``i`` is injected at ``start_time + i / packet_rate`` once
        :meth:`run` is called.
        """
        # repro.replay imports this module for DeploymentScenario.
        from repro.replay.sources import ChunkTraceSource, RecordedPacing
        from repro.workloads.traces import ChunkTrace

        trace = ChunkTrace(chunks)
        if trace.chunk_bytes != self.transform.chunk_bytes:
            raise ReproError(
                f"chunks of {trace.chunk_bytes} bytes do not match the configured "
                f"{self.transform.chunk_bytes}-byte chunks"
            )
        self._traffic = (
            ChunkTraceSource(trace, recorded_rate=packet_rate),
            RecordedPacing(start=start_time),
        )

    # -- execution ---------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run the queued replay until the event queue drains (or ``until``)."""
        if self._traffic is None:
            raise ReproError("nothing to replay; call replay_chunks() first")
        self.engine.run(until=until, sources={"flow0": self._traffic})

    def replay_and_run(
        self,
        chunks: Sequence[bytes],
        packet_rate: float = 1_000_000.0,
    ) -> CompressionSummary:
        """Replay a chunk list, run to completion, and summarise the results."""
        self.replay_chunks(chunks, packet_rate)
        self.run()
        return self.summary()

    # -- results -----------------------------------------------------------------------

    def summary(self, dataset: str = "") -> CompressionSummary:
        """Figure-3 style summary of everything sent so far."""
        summary = CompressionSummary.from_link_tap(
            self.link_tap,
            original_payload_bytes=self._flow.chunk_bytes_sent,
            dataset=dataset,
            scenario=self.scenario.value,
        )
        summary.learning_time = self.learning_time()
        return summary

    def learning_time(self) -> Optional[float]:
        """Gap between the first type-2 and the first type-3 frame on the hop.

        This is exactly the paper's dynamic-learning measurement; ``None``
        when one of the two packet types never appeared.
        """
        return self.engine.learning_time()

    def verify_lossless(self, original_chunks: Sequence[bytes]) -> bool:
        """True when the receiver got every chunk back, bit exact and in order."""
        received = [
            payload
            for payload in (
                raw_chunk_payload(frame) for _time, frame in self._flow.arrivals
            )
            if payload is not None
        ]
        return received == list(original_chunks)
