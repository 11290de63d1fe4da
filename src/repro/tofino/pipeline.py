"""The match-action pipeline: parser → ingress → deparser.

A :class:`Pipeline` binds together the pieces defined elsewhere in this
package — a :class:`~repro.tofino.parser.Parser`, a user-supplied ingress
control block, a :class:`~repro.tofino.parser.Deparser`, a
:class:`~repro.tofino.constraints.ResourceTracker` — and runs packets
through them the way the Tofino hardware does, while keeping the accounting
needed by the evaluation:

* how many passes the pipeline ran and how many packets it dropped (one
  pass per arriving frame, no recirculation: §5's line-rate precondition);
* a fixed per-packet pipeline latency (the hardware gives a constant
  port-to-port latency for a compiled program; Figure 5 reads each
  program's latency off the simulator).

ZipLine's egress control is empty, so the model has none.  Control blocks
are plain Python callables ``control(phv)`` operating on a
:class:`PacketContext` by side effect, the same way P4 controls mutate the
header vector and intrinsic metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.exceptions import PipelineError
from repro.tofino.constraints import ResourceTracker
from repro.tofino.parser import Deparser, ParsedPacket, Parser

__all__ = ["PacketContext", "PipelineResult", "Pipeline", "DEFAULT_PIPELINE_LATENCY"]

#: Port-to-port latency of a compiled Tofino program, in seconds.  The public
#: figure for Tofino-class ASICs is well under a microsecond.  In the
#: reproduced Figure 5 (:mod:`repro.analysis.figures`) it is 0.6 µs of the
#: 6.61 µs one-way time, beside 1.01 µs of simulated wire and the 5 µs
#: calibrated host/NIC cost, the same for all three programs.
DEFAULT_PIPELINE_LATENCY = 0.6e-6

#: Egress "port" value meaning the packet is dropped.
DROP_PORT = -1


@dataclass
class PacketContext:
    """The per-packet state a control block manipulates (PHV + intrinsic metadata)."""

    packet: ParsedPacket
    ingress_port: int
    egress_port: int = DROP_PORT
    drop_flag: bool = False
    digests: List[Tuple[str, Dict[str, int]]] = field(default_factory=list)

    def drop(self) -> None:
        """Mark the packet to be dropped."""
        self.drop_flag = True

    def send_to_port(self, port: int) -> None:
        """Set the egress port."""
        if port < 0:
            raise PipelineError(f"egress port must be non-negative, got {port}")
        self.egress_port = port
        self.drop_flag = False

    def emit_digest(self, digest_type: str, data: Dict[str, int]) -> None:
        """Queue a digest to be sent to the control plane after the pipeline."""
        self.digests.append((digest_type, dict(data)))


class PipelineResult(NamedTuple):
    """Outcome of pushing one packet through the pipeline.

    Immutable; a named tuple because one is built per packet.
    """

    egress_port: Optional[int]
    frame: Optional[bytes]
    digests: Tuple[Tuple[str, Dict[str, int]], ...]
    latency: float

    @property
    def dropped(self) -> bool:
        """True when the packet was dropped."""
        return self.egress_port is None


class Pipeline:
    """A single Tofino pipeline bound to a P4-equivalent program.

    Parameters
    ----------
    name:
        Pipeline name for reports.
    parser / deparser:
        Packet parsing machinery.
    ingress:
        The ingress control block.
    pipeline_latency:
        Constant per-packet latency in seconds.
    """

    def __init__(
        self,
        name: str,
        parser: Parser,
        ingress: Callable[[PacketContext], None],
        deparser: Deparser,
        pipeline_latency: float = DEFAULT_PIPELINE_LATENCY,
    ):
        if pipeline_latency < 0:
            raise PipelineError("pipeline latency cannot be negative")
        self.name = name
        self._parser = parser
        self._ingress = ingress
        self._deparser = deparser
        self.resources = ResourceTracker()
        self._pipeline_latency = pipeline_latency
        self.packets_processed = 0
        self.packets_dropped = 0
        self.parse_errors = 0

    # -- properties -----------------------------------------------------------

    @property
    def pipeline_latency(self) -> float:
        """Constant per-packet latency in seconds."""
        return self._pipeline_latency

    @property
    def parser(self) -> Parser:
        """The parser bound to this pipeline."""
        return self._parser

    # -- processing ----------------------------------------------------------------

    def process(self, frame: bytes, ingress_port: int) -> PipelineResult:
        """Push one frame through parser → ingress → deparser."""
        if ingress_port < 0:
            raise PipelineError(f"ingress port must be non-negative, got {ingress_port}")
        self.packets_processed += 1
        try:
            parsed = self._parser.parse(frame)
        except Exception:
            # Parse errors drop the packet, they do not crash the switch.
            self.parse_errors += 1
            self.packets_dropped += 1
            return PipelineResult(
                egress_port=None, frame=None, digests=(), latency=self._pipeline_latency
            )

        context = PacketContext(packet=parsed, ingress_port=ingress_port)
        self._ingress(context)

        if context.drop_flag or context.egress_port == DROP_PORT:
            self.packets_dropped += 1
            return PipelineResult(
                egress_port=None,
                frame=None,
                digests=tuple(context.digests),
                latency=self._pipeline_latency,
            )

        output = self._deparser.emit(context.packet)
        return PipelineResult(
            egress_port=context.egress_port,
            frame=output,
            digests=tuple(context.digests),
            latency=self._pipeline_latency,
        )
