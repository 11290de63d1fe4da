"""The end-to-end *linear* replay harness: a spec builder for the engine.

:class:`ReplayHarness` keeps the single-flow API of the paper's
chain-shaped experiment::

    source ──> [encoder switch] ──tap──> link₀ ─ … ─ linkₙ ──> [decoder switch] ──> sink

It owns no run loop.  The constructor describes the chain as a
:func:`~repro.topology.spec.linear_topology` spec and hands it to
:class:`~repro.topology.engine.TopologyEngine`, which builds the
simulator, the switches, the control plane and the links; :meth:`run`
passes the caller's in-memory source and pacing to the engine and adapts
its report into the :class:`~repro.replay.metrics.ReplayReport` linear
callers read.

Three topologies are supported (:class:`ReplayTopology`):

* ``encoder-link-decoder`` — the paper's testbed; ``hops`` > 1 chains
  several emulated links into a multi-hop path;
* ``encoder-only`` — the sink receives the processed (type-2/3) packets,
  for wire-format and byte-accounting experiments without decoding (no
  decoder, so the report's ``integrity`` is ``None``);
* ``decoder-only`` — the source feeds the link directly; raw frames pass
  through the decoder untouched, processed frames are decoded (requires
  preinstalled mappings via ``static_bases``).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

from repro.exceptions import ReplayError, TopologyError
from repro.perfmodel.linkmodel import ImpairmentModel
from repro.replay.metrics import ReplayReport
from repro.replay.sources import FixedRatePacing, Pacing, TraceSource
from repro.zipline.deployment import DeploymentScenario

__all__ = ["ReplayTopology", "ReplayHarness"]


class ReplayTopology(Enum):
    """Which components sit between the traffic source and the sink."""

    ENCODER_LINK_DECODER = "encoder-link-decoder"
    ENCODER_ONLY = "encoder-only"
    DECODER_ONLY = "decoder-only"

    @classmethod
    def from_name(cls, name: "str | ReplayTopology") -> "ReplayTopology":
        """Parse a topology from its name or pass an instance through."""
        if isinstance(name, ReplayTopology):
            return name
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(topology.value for topology in cls)
            raise ReplayError(
                f"unknown topology {name!r}; valid topologies: {valid}"
            ) from None


class ReplayHarness:
    """Drive a trace through an emulated ZipLine chain and measure it.

    Parameters
    ----------
    topology:
        One of :class:`ReplayTopology` (or its string name).
    scenario:
        Dictionary scenario, as in
        :class:`~repro.zipline.deployment.ZipLineDeployment`.
    identifier_bits:
        Identifier width shared by both switches.
    static_bases:
        Bases to preload (required for the ``static`` scenario and for
        decoding processed traces in ``decoder-only`` topologies).
    hops:
        Number of emulated links in series (multi-hop path when > 1).
    bandwidth_bps / propagation_delay / queue_capacity:
        Per-link emulation parameters (every hop gets the same ones).
    impairments:
        Seeded loss/reorder model; each hop receives an independent
        deterministic fork, so runs are exactly reproducible.
    seed:
        Seed of the control plane's latency jitter.
    verify_integrity:
        When true (the default), every injected chunk and every delivered
        frame is retained for the end-to-end integrity check and latency
        percentiles — O(trace) memory.  Set false for counters-only runs
        of very large traces; injection then stays in bounded memory and
        the report's ``integrity`` is ``None``.

    After construction ``encoder`` / ``decoder`` (the switches, ``None``
    when the topology has none), ``control_plane``, ``links``, ``link_tap``
    and ``transform`` are the engine's live components; ``sink`` exposes the
    delivered frames as ``arrivals`` (``(time, frame)`` pairs, retained only
    when verifying) and the ``delivered`` count.
    """

    def __init__(
        self,
        topology: "str | ReplayTopology" = ReplayTopology.ENCODER_LINK_DECODER,
        scenario: "str | DeploymentScenario" = DeploymentScenario.DYNAMIC,
        identifier_bits: int = 15,
        static_bases: Optional[Iterable[int]] = None,
        hops: int = 1,
        bandwidth_bps: float = 100e9,
        propagation_delay: float = 0.5e-6,
        queue_capacity: Optional[int] = None,
        impairments: Optional[ImpairmentModel] = None,
        seed: int = 0,
        verify_integrity: bool = True,
    ):
        # repro.topology is built from this package's links, metrics and
        # sources, so it can only be imported once repro.replay is loaded.
        from repro.topology.engine import TopologyEngine
        from repro.topology.spec import linear_topology

        self.topology = ReplayTopology.from_name(topology)
        self.scenario = DeploymentScenario.from_name(scenario)
        if self.scenario is DeploymentScenario.STATIC and static_bases is None:
            raise ReplayError("the static scenario requires static_bases")
        # The spec carries loss, reorder and seed; the hold-back delay is
        # handed to the built links below.
        model = impairments or ImpairmentModel()
        try:
            spec = linear_topology(
                name=self.topology.value,
                shape=self.topology.value,
                scenario=self.scenario.value,
                hops=hops,
                bandwidth_gbps=bandwidth_bps / 1e9,
                propagation_us=propagation_delay * 1e6,
                queue_capacity=queue_capacity or 0,
                loss=model.loss_probability,
                reorder=model.reorder_probability,
                link_seed=model.seed,
                seed=seed,
                identifier_bits=identifier_bits,
            )
            self.engine = TopologyEngine(
                spec, verify_integrity=verify_integrity, static_bases=static_bases
            )
        except TopologyError as error:
            raise ReplayError(str(error)) from None
        nodes = self.engine.graph.nodes
        self.encoder = nodes["encoder"].switch if "encoder" in nodes else None
        self.decoder = nodes["decoder"].switch if "decoder" in nodes else None
        self.control_plane = next(iter(self.engine.control_planes.values()), None)
        self.links = self.engine.graph.links
        self.link_tap = self.engine.measured_tap
        self.transform = self.engine.transform
        # The one flow's state carries what callers read off the sink.
        self.sink = self.engine.flow_states[0]
        for link in self.links:
            if link.impairments is not None:
                link.impairments.reorder_delay = model.reorder_delay

    def run(
        self,
        source: TraceSource,
        pacing: Optional[Pacing] = None,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> ReplayReport:
        """Replay ``source`` through the topology and return the report.

        ``pacing`` defaults to a fixed 1 Mpkt/s (the rate the evaluation
        replays at).  ``until``/``max_events`` bound the simulation for
        open-ended sources.
        """
        report = self.engine.run(
            until=until,
            max_events=max_events,
            sources={"flow0": (source, pacing or FixedRatePacing(packet_rate=1e6))},
        )
        return report.as_replay_report(self.topology.value)
