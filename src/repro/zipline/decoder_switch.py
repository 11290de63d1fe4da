"""The ZipLine *decoding* switch: the P4-equivalent decompression program.

Compiles the Figure 2 workflow onto the Tofino chassis:

1. the parser extracts the Ethernet header and then, depending on the
   EtherType, the type-3 (compressed) or type-2 (uncompressed) ZipLine
   header (➊);
2. for a compressed packet, the identifier → basis table (kept in sync by
   the control plane) recovers the basis (➋);
3. the basis is zero-padded and pushed through the same CRC extern as the
   encoder to recover the parity bits (➌, ➍);
4. the syndrome → XOR-mask table gives the deviation mask (➎), which is
   applied to the reassembled codeword (➏) to restore the original chunk
   (➐);
5. the packet leaves the switch as a raw chunk packet again.

Frames that are neither type 2 nor type 3 are forwarded untouched.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import obs as _obs
from repro.core.bits import mask
from repro.core.transform import GDTransform
from repro.sim.simulator import Simulator
from repro.tofino.digest import DigestEngine
from repro.tofino.tables import ActionSpec, MatchActionTable
from repro.zipline._program import (
    ETH_RAW,
    ETH_TYPE2,
    ETH_TYPE3,
    ETHERNET_BYTES,
    ZipLineSwitchBase,
)

__all__ = ["ZipLineDecoderSwitch"]

#: Counter labels, mirroring the packet classifications of Section 5.
COUNTER_LABELS = [
    "compressed_to_raw",
    "uncompressed_to_raw",
    "unknown_identifier",
    "passthrough_other",
]


class ZipLineDecoderSwitch(ZipLineSwitchBase):
    """A Tofino switch running the ZipLine decoding program.

    The constructor parameters mirror :class:`ZipLineEncoderSwitch`; the
    decode direction needs the same transform and identifier width so the
    header formats agree.
    """

    def __init__(
        self,
        name: str = "zipline-decoder",
        transform: Optional[GDTransform] = None,
        identifier_bits: int = 15,
        simulator: Optional[Simulator] = None,
        forwarding: Optional[Dict[int, int]] = None,
        default_egress_port: int = 1,
        digest_engine: Optional[DigestEngine] = None,
        port_count: Optional[int] = None,
    ):
        super().__init__(
            name,
            COUNTER_LABELS,
            transform,
            identifier_bits,
            simulator,
            forwarding,
            default_egress_port,
            digest_engine,
            port_count,
        )
        # The identifier → basis exact-match table written by the control plane.
        self._identifier_table = self._add_mapping_table(
            MatchActionTable(
                name="id_to_basis",
                key_bits=identifier_bits,
                size=1 << identifier_bits,
                actions=[ActionSpec("set_basis", ("basis",)), ActionSpec("miss")],
                default_action="miss",
            ),
            action_bits=self._transform.basis_bits,
        )
        code = self._transform.code
        headers = self._headers
        self._chunk_bytes = headers.chunk.total_bytes
        self._type2_end = ETHERNET_BYTES + headers.type2.total_bytes
        self._type3_end = ETHERNET_BYTES + headers.type3.total_bytes
        self._type2_pad = headers.type2_padding_bits
        self._type3_pad = headers.type3_padding_bits
        self._syndrome_mask = mask(code.m)
        self._basis_mask = mask(code.k)
        self._identifier_mask = mask(identifier_bits)
        self._parity_of_basis = code.parity_of_basis_fast
        # basis -> (basis << m) | parity.  Keyed by the basis *value*, so it
        # is a pure-function memo no table write, ``clear()`` or recycled
        # identifier can make stale; at most one entry per identifier the
        # table can hold, dropped wholesale when more distinct bases than
        # that come by.
        self._codewords: Dict[int, int] = {}
        cell = self.counters.index
        self._compressed_to_raw = cell("compressed_to_raw")
        self._uncompressed_to_raw = cell("uncompressed_to_raw")
        self._unknown_identifier = cell("unknown_identifier")
        self._passthrough_other = cell("passthrough_other")

    # -- the ingress control block ------------------------------------------------------

    def _count_unknown(self, identifier: int, now: float, frame_bytes: int) -> None:
        self._packet_cells[self._unknown_identifier] += 1
        self._byte_cells[self._unknown_identifier] += frame_bytes
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.instant(
                "decode.drop",
                self.switch.name,
                args={"outcome": "unknown", "identifier": identifier},
                ts=now,
            )

    def _compiled_ingress(
        self, frame: bytes, ethertype: bytes, length: int, now: float
    ) -> Optional[bytes]:
        m = self._syndrome_bits
        if ethertype == ETH_TYPE3:
            header_end = self._type3_end
            value = (
                int.from_bytes(frame[ETHERNET_BYTES:header_end], "big")
                >> self._type3_pad
            )
            identifier = (value >> m) & self._identifier_mask
            entry = self._identifier_table.lookup_ref(identifier, now=now)
            if entry is None or entry.action != "set_basis":
                self._count_unknown(identifier, now, length)
                return None
            basis = entry.params["basis"]
            prefix = value >> (m + self._identifier_bits)
            self._packet_cells[self._compressed_to_raw] += 1
            self._byte_cells[self._compressed_to_raw] += length
            if _obs.TRACER.enabled:
                self._span("decode", now, {"outcome": "hit", "identifier": identifier})
        elif ethertype == ETH_TYPE2:
            header_end = self._type2_end
            value = (
                int.from_bytes(frame[ETHERNET_BYTES:header_end], "big")
                >> self._type2_pad
            )
            basis = (value >> m) & self._basis_mask
            prefix = value >> (m + self._basis_bits)
            self._packet_cells[self._uncompressed_to_raw] += 1
            self._byte_cells[self._uncompressed_to_raw] += length
            if _obs.TRACER.enabled:
                self._span("decode", now, {"outcome": "uncompressed"})
        else:
            self._packet_cells[self._passthrough_other] += 1
            self._byte_cells[self._passthrough_other] += length
            return frame

        # Fused Figure 2 ➌–➐.  Steps ➌/➍: parity through the same CRC extern
        # as the encoder's (fused byte loop, once per distinct basis), one
        # pass per frame.
        codewords = self._codewords
        codeword = codewords.get(basis)
        if codeword is None:
            if len(codewords) >= self._identifier_table.size:
                codewords.clear()
            codeword = codewords[basis] = (basis << m) | self._parity_of_basis(basis)
        self.crc_invocations += 1
        # Steps ➎/➏: the const syndrome table's XOR mask flips the deviated
        # bit back.
        syndrome = value & self._syndrome_mask
        chunk_value = (prefix << self._code_bits) | (
            codeword ^ self._flip_masks[syndrome]
        )
        out = (
            frame[:12]
            + ETH_RAW
            + chunk_value.to_bytes(self._chunk_bytes, "big")
            + frame[header_end:]
        )
        return out

    # -- control-plane interface --------------------------------------------------------

    def install_identifier_mapping(self, identifier: int, basis: int) -> None:
        """Install (or replace) an identifier → basis entry."""
        self._check_field("identifier", identifier, self._identifier_bits)
        self._check_field("basis", basis, self._transform.basis_bits)
        self._upsert_mapping(
            self._identifier_table, identifier, "set_basis", {"basis": basis}
        )

    def remove_identifier_mapping(self, identifier: int) -> None:
        """Remove an identifier → basis entry (no-op when absent)."""
        self._remove_mapping(self._identifier_table, identifier)
