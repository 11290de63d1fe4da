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

from itertools import repeat
from typing import Dict, List, Optional

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
    SPLITS,
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
        # The most bytes the program adds to a frame: a type-3 header
        # leaves as the (longer) raw chunk.
        self._growth = max(
            0, headers.chunk.total_bytes - min(headers.type2.total_bytes, headers.type3.total_bytes)
        )
        self._type2_pad = headers.type2_padding_bits
        self._type3_pad = headers.type3_padding_bits
        self._syndrome_mask = mask(code.m)
        self._basis_mask = mask(code.k)
        self._identifier_mask = mask(identifier_bits)
        self._parity_of_basis = code.parity_of_basis_fast
        # basis -> (basis << m) | parity.  Keyed by the basis *value*, so it
        # is a pure-function memo no table write, ``clear()`` or recycled
        # identifier can make stale; dropped wholesale when more distinct
        # bases come by than the table holds identifiers, or than the
        # encoder keeps splits (``SPLITS``) when the table is smaller: a
        # working set that thrashes a small table still hits here.
        self._codewords: Dict[int, int] = {}
        self._codeword_limit = max(SPLITS, self._identifier_table.size)
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
            if len(codewords) >= self._codeword_limit:
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

    def _ingress_batch(
        self,
        frames: List[bytes],
        times: List[float],
        contexts: Optional[List[object]],
        splits: Optional[list] = None,
    ) -> List[Optional[bytes]]:
        outs: List[Optional[bytes]] = []
        append = outs.append
        min_frame_bytes = self._min_frame_bytes
        m = self._syndrome_bits
        identifier_bits = self._identifier_bits
        code_bits = self._code_bits
        basis_bits = self._basis_bits
        type2_end = self._type2_end
        type3_end = self._type3_end
        type2_pad = self._type2_pad
        type3_pad = self._type3_pad
        syndrome_mask = self._syndrome_mask
        basis_mask = self._basis_mask
        identifier_mask = self._identifier_mask
        chunk_bytes = self._chunk_bytes
        flip_masks = self._flip_masks
        codewords = self._codewords
        codeword_limit = self._codeword_limit
        table = self._identifier_table
        entries = table.entry_map()
        tracer = _obs.TRACER
        traced = tracer.enabled
        parse_errors = other = other_bytes = lookups = found = 0
        compressed = compressed_bytes = uncompressed = uncompressed_bytes = 0
        for frame, now, context in zip(frames, times, contexts or repeat(None)):
            ethertype = frame[12:14]
            length = len(frame)
            if length < min_frame_bytes.get(ethertype, ETHERNET_BYTES):
                parse_errors += 1
                append(None)
                continue
            if traced and contexts is not None:
                tracer.restore_context(context)
            if ethertype == ETH_TYPE3:
                header_end = type3_end
                value = int.from_bytes(frame[ETHERNET_BYTES:type3_end], "big") >> type3_pad
                identifier = (value >> m) & identifier_mask
                lookups += 1
                entry = entries.get(identifier)
                if entry is not None:
                    entry.last_hit = now
                    entry.hit_count += 1
                    found += 1
                if entry is None or entry.action != "set_basis":
                    self._count_unknown(identifier, now, length)
                    append(None)
                    continue
                basis = entry.params["basis"]
                prefix = value >> (m + identifier_bits)
                compressed += 1
                compressed_bytes += length
                if traced:
                    self._span("decode", now, {"outcome": "hit", "identifier": identifier})
            elif ethertype == ETH_TYPE2:
                header_end = type2_end
                value = int.from_bytes(frame[ETHERNET_BYTES:type2_end], "big") >> type2_pad
                basis = (value >> m) & basis_mask
                prefix = value >> (m + basis_bits)
                uncompressed += 1
                uncompressed_bytes += length
                if traced:
                    self._span("decode", now, {"outcome": "uncompressed"})
            else:
                other += 1
                other_bytes += length
                append(frame)
                continue
            codeword = codewords.get(basis)
            if codeword is None:
                if len(codewords) >= codeword_limit:
                    codewords.clear()
                codeword = codewords[basis] = (basis << m) | self._parity_of_basis(basis)
            chunk_value = (prefix << code_bits) | (codeword ^ flip_masks[value & syndrome_mask])
            append(
                frame[:12]
                + ETH_RAW
                + chunk_value.to_bytes(chunk_bytes, "big")
                + frame[header_end:]
            )
        table.lookups += lookups
        table.hits += found
        self.crc_invocations += compressed + uncompressed
        self._pipeline.parse_errors += parse_errors
        packets = self._packet_cells
        octets = self._byte_cells
        for cell, count, count_bytes in (
            (self._compressed_to_raw, compressed, compressed_bytes),
            (self._uncompressed_to_raw, uncompressed, uncompressed_bytes),
            (self._passthrough_other, other, other_bytes),
        ):
            packets[cell] += count
            octets[cell] += count_bytes
        return outs

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
