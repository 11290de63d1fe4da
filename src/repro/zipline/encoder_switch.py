"""The ZipLine *encoding* switch: the P4-equivalent compression program.

This module compiles the Figure 1 workflow onto the Tofino chassis
modelled in :mod:`repro.tofino`:

1. the parser extracts the Ethernet header and, for frames carrying the
   :data:`~repro.zipline.headers.ETHERTYPE_RAW_CHUNK` EtherType, the raw
   chunk header (➊);
2. the CRC extern configured with the Hamming generator polynomial computes
   the syndrome (➋);
3. a const-entry table maps the syndrome to the single-bit XOR mask (➌) and
   the mask is applied to obtain the codeword (➍), whose top ``k`` bits are
   the basis (➎);
4. the basis → identifier table is consulted (➏); on a hit the packet is
   rewritten as a type-3 header (➐,➑); on a miss it becomes a type-2 header
   and a learn digest is emitted towards the control plane;
5. already-processed frames (type 2/3) and frames with any other EtherType
   are forwarded unchanged.

The class exposes the narrow control-plane interface
(:meth:`install_basis_mapping`, :meth:`remove_basis_mapping`,
:meth:`expired_bases`) that :class:`repro.controlplane.ZipLineControlPlane`
drives, plus the per-packet-type counters the paper's statistics rely on.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs as _obs
from repro.controlplane.manager import LEARN_DIGEST
from repro.core.bits import mask
from repro.core.crc import lane_remainders, record_tables
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

__all__ = ["ZipLineEncoderSwitch"]

#: Fewest raw chunks :meth:`ZipLineEncoderSwitch.prime_syndromes` computes
#: in one pass.  For the order-8 syndrome of 32-byte chunks the byte loop
#: costs 737 ns per chunk at any count; one ``lane_remainders`` call with
#: the join costs 851 ns per chunk at 8 chunks, 181 at 64 and 95 at 512,
#: and 5.4 µs for a single chunk.  16 is the crossover.
PRIME_THRESHOLD = 16

#: Most chunks whose split the per-frame ingress keeps
#: (``ZipLineEncoderSwitch._splits``) before it drops them all.  1,024
#: hold every distinct chunk of the benchmark's DNS trace (704 of 16,000).
SPLITS = 1024

#: A raw chunk's ``(prefix, syndrome, basis)``: what the program computes
#: of it before the table lookup.
Split = Tuple[int, int, int]

#: Counter labels, mirroring the packet classifications of Section 5.
COUNTER_LABELS = [
    "raw_to_uncompressed",
    "raw_to_compressed",
    "passthrough_processed",
    "passthrough_other",
]


class _PrimedRemainders(dict):
    """Remainders of a train's chunk bytes, keyed by those bytes.

    Bytes that are not among them — a frame that joined the train's
    encoder from elsewhere — get the byte loop's answer, so a frame can
    never read another frame's remainder.
    """

    __slots__ = ("_remainder",)

    def __init__(
        self, remainder: Callable[[bytes], int], chunks: List[bytes], remainders: bytes
    ):
        super().__init__(zip(chunks, remainders))
        self._remainder = remainder

    def __missing__(self, chunk: bytes) -> int:
        return self._remainder(chunk)


class ZipLineEncoderSwitch(ZipLineSwitchBase):
    """A Tofino switch running the ZipLine encoding program.

    Parameters
    ----------
    name:
        Switch name.
    transform:
        GD transform describing chunk/basis/syndrome widths.
    identifier_bits:
        Identifier width ``t`` (dictionary capacity ``2**t``).
    simulator:
        Optional shared simulator for latency modelling.
    forwarding:
        Static ingress-port → egress-port map (the experiments wire port 0
        towards the sender and port 1 towards the receiver).
    default_egress_port:
        Egress port when the ingress port has no forwarding entry.
    entry_ttl:
        Default TTL attached to basis → identifier entries (idle timeout).
    """

    def __init__(
        self,
        name: str = "zipline-encoder",
        transform: Optional[GDTransform] = None,
        identifier_bits: int = 15,
        simulator: Optional[Simulator] = None,
        forwarding: Optional[Dict[int, int]] = None,
        default_egress_port: int = 1,
        entry_ttl: Optional[float] = None,
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
        self._entry_ttl = entry_ttl
        # The basis → identifier exact-match table managed by the control plane.
        self._basis_table = self._add_mapping_table(
            MatchActionTable(
                name="basis_to_id",
                key_bits=self._transform.basis_bits,
                size=1 << identifier_bits,
                actions=[
                    ActionSpec("set_identifier", ("identifier",)),
                    ActionSpec("learn"),
                ],
                default_action="learn",
                support_idle_timeout=True,
            ),
            action_bits=identifier_bits,
        )
        code = self._transform.code
        headers = self._headers
        self._body_mask = mask(code.n)
        self._remainder = self._byte_remainder = code.byte_remainder
        self._chunk_end = ETHERNET_BYTES + headers.chunk.total_bytes
        # chunk bytes -> (prefix, syndrome, basis).  Keyed by the bytes, so
        # it is a pure-function memo no table write can make stale; dropped
        # wholesale when more than ``SPLITS`` distinct chunks come by.
        self._splits: Dict[bytes, Split] = {}
        # A remainder lives in a byte lane of ``lane_remainders`` up to m = 8.
        self._chunk_tables = (
            record_tables(code.crc_parameter, code.m, headers.chunk.total_bytes)
            if code.m <= 8
            else None
        )
        self._type2_bytes = headers.type2.total_bytes
        self._type3_bytes = headers.type3.total_bytes
        # The most bytes the program adds to a frame: a raw chunk leaves as
        # a type-3 or a (longer) type-2 header.
        self._growth = max(0, self._type2_bytes - headers.chunk.total_bytes)
        self._type2_pad = headers.type2_padding_bits
        self._type3_pad = headers.type3_padding_bits
        cell = self.counters.index
        self._raw_to_uncompressed = cell("raw_to_uncompressed")
        self._raw_to_compressed = cell("raw_to_compressed")
        self._passthrough_processed = cell("passthrough_processed")
        self._passthrough_other = cell("passthrough_other")

    # -- the ingress control block -----------------------------------------------------

    def _compiled_ingress(
        self, frame: bytes, ethertype: bytes, length: int, now: float
    ) -> bytes:
        if ethertype != ETH_RAW:
            if ethertype == ETH_TYPE2 or ethertype == ETH_TYPE3:
                passthrough = self._passthrough_processed
            else:
                passthrough = self._passthrough_other
            self._packet_cells[passthrough] += 1
            self._byte_cells[passthrough] += length
            return frame
        chunk_end = self._chunk_end
        chunk_slice = frame[ETHERNET_BYTES:chunk_end]
        m = self._syndrome_bits
        split = self._splits.get(chunk_slice)
        if split is None:
            chunk_value = int.from_bytes(chunk_slice, "big")
            prefix = chunk_value >> self._code_bits
            # Step ➋: syndrome through the CRC extern, the shared CRC byte
            # loop.  The remainder of the chunk's own bytes is
            # syndrome(body) ^ (prefix * x**n mod g), and x**n ≡ 1 (mod g)
            # for a primitive g of order n.
            syndrome = self._remainder(chunk_slice) ^ (
                self._transform.code.prefix_syndrome(prefix) if prefix >> m else prefix
            )
            # Steps ➌/➍/➎: the const table's mask flips the deviated bit;
            # keep the message bits.
            basis = ((chunk_value & self._body_mask) ^ self._flip_masks[syndrome]) >> m
            splits = self._splits
            if len(splits) >= SPLITS:
                splits.clear()
            splits[chunk_slice] = (prefix, syndrome, basis)
        else:
            prefix, syndrome, basis = split
        self.crc_invocations += 1

        lookup = self._basis_table.lookup_ref(basis, now=now)
        if lookup is not None and lookup.action == "set_identifier":
            identifier = lookup.params["identifier"]
            value = (((prefix << self._identifier_bits) | identifier) << m) | syndrome
            out = (
                frame[:12]
                + ETH_TYPE3
                + (value << self._type3_pad).to_bytes(self._type3_bytes, "big")
                + frame[chunk_end:]
            )
            self._packet_cells[self._raw_to_compressed] += 1
            self._byte_cells[self._raw_to_compressed] += length
            if _obs.TRACER.enabled:
                self._span(
                    "encode",
                    now,
                    {"outcome": "hit", "identifier": identifier, "basis": basis},
                )
            return out
        value = (((prefix << self._basis_bits) | basis) << m) | syndrome
        out = (
            frame[:12]
            + ETH_TYPE2
            + (value << self._type2_pad).to_bytes(self._type2_bytes, "big")
            + frame[chunk_end:]
        )
        self._packet_cells[self._raw_to_uncompressed] += 1
        self._byte_cells[self._raw_to_uncompressed] += length
        if _obs.TRACER.enabled:
            self._span("encode", now, {"outcome": "miss", "basis": basis})
        self.switch.digest_engine.emit(LEARN_DIGEST, {"basis": basis}, now)
        return out

    def _ingress_batch(
        self,
        frames: List[bytes],
        times: List[float],
        contexts: Optional[List[object]],
        splits: Optional[List[Optional[Split]]] = None,
    ) -> List[Optional[bytes]]:
        outs: List[Optional[bytes]] = []
        append = outs.append
        min_frame_bytes = self._min_frame_bytes
        chunk_end = self._chunk_end
        m = self._syndrome_bits
        code_bits = self._code_bits
        identifier_bits = self._identifier_bits
        remainder = self._remainder
        prefix_syndrome = self._transform.code.prefix_syndrome
        body_mask = self._body_mask
        flip_masks = self._flip_masks
        table = self._basis_table
        entries = table.entry_map()
        type3_bytes = self._type3_bytes
        type3_pad = self._type3_pad
        tracer = _obs.TRACER
        traced = tracer.enabled
        parse_errors = processed = processed_bytes = other = other_bytes = 0
        hits = hit_bytes = 0
        for frame, now, context, split in zip(
            frames, times, contexts or repeat(None), chain(splits or (), repeat(None))
        ):
            ethertype = frame[12:14]
            length = len(frame)
            if length < min_frame_bytes.get(ethertype, ETHERNET_BYTES):
                parse_errors += 1
                append(None)
                continue
            if ethertype != ETH_RAW:
                if ethertype == ETH_TYPE2 or ethertype == ETH_TYPE3:
                    processed += 1
                    processed_bytes += length
                else:
                    other += 1
                    other_bytes += length
                append(frame)
                continue
            if split is None:
                chunk_slice = frame[ETHERNET_BYTES:chunk_end]
                chunk_value = int.from_bytes(chunk_slice, "big")
                prefix = chunk_value >> code_bits
                syndrome = remainder(chunk_slice) ^ (
                    prefix_syndrome(prefix) if prefix >> m else prefix
                )
                basis = ((chunk_value & body_mask) ^ flip_masks[syndrome]) >> m
            else:
                prefix, syndrome, basis = split
            entry = entries.get(basis)
            if entry is None or entry.action != "set_identifier":
                # A miss emits a learn digest, whose event must find the
                # frames after it not yet run: the list stops here.
                break
            entry.last_hit = now
            entry.hit_count += 1
            identifier = entry.params["identifier"]
            value = (((prefix << identifier_bits) | identifier) << m) | syndrome
            append(
                frame[:12]
                + ETH_TYPE3
                + (value << type3_pad).to_bytes(type3_bytes, "big")
                + frame[chunk_end:]
            )
            hits += 1
            hit_bytes += length
            if traced:
                if contexts is not None:
                    tracer.restore_context(context)
                self._span(
                    "encode",
                    now,
                    {"outcome": "hit", "identifier": identifier, "basis": basis},
                )
        table.lookups += hits
        table.hits += hits
        self.crc_invocations += hits
        self._pipeline.parse_errors += parse_errors
        packets = self._packet_cells
        octets = self._byte_cells
        for cell, count, count_bytes in (
            (self._raw_to_compressed, hits, hit_bytes),
            (self._passthrough_processed, processed, processed_bytes),
            (self._passthrough_other, other, other_bytes),
        ):
            packets[cell] += count
            octets[cell] += count_bytes
        return outs

    # -- trains -----------------------------------------------------------------------

    def leading_hits(self, frames: List[bytes]) -> List[Optional[Split]]:
        """The leading frames of a list the program would run without a
        table miss — so without a learn digest — as its tables stand: for
        each, its chunk's ``(prefix, syndrome, basis)``, or ``None`` for a
        frame that carries no chunk.  Changes nothing; hand the list to
        :meth:`ingress_batch` with those frames, which then splits none of
        their chunks again."""
        entries = self._basis_table.entry_map()
        chunk_end = self._chunk_end
        m = self._syndrome_bits
        code_bits = self._code_bits
        remainder = self._remainder
        prefix_syndrome = self._transform.code.prefix_syndrome
        body_mask = self._body_mask
        flip_masks = self._flip_masks
        splits: List[Optional[Split]] = []
        append = splits.append
        for frame in frames:
            if frame[12:14] != ETH_RAW or len(frame) < chunk_end:
                append(None)
                continue
            chunk_slice = frame[ETHERNET_BYTES:chunk_end]
            chunk_value = int.from_bytes(chunk_slice, "big")
            prefix = chunk_value >> code_bits
            syndrome = remainder(chunk_slice) ^ (
                prefix_syndrome(prefix) if prefix >> m else prefix
            )
            basis = ((chunk_value & body_mask) ^ flip_masks[syndrome]) >> m
            entry = entries.get(basis)
            if entry is None or entry.action != "set_identifier":
                break
            append((prefix, syndrome, basis))
        return splits

    def prime_syndromes(self, frames: Iterable[bytes]) -> None:
        """Compute the syndromes of the raw chunks among ``frames``, about to
        arrive, in one bulk pass, until :meth:`drop_primed_syndromes`.

        One :func:`~repro.core.crc.lane_remainders` call over the joined
        chunk headers — one table per byte position, the way a hardware CRC
        engine absorbs a whole word per clock — replaces the byte loop of
        each frame; the ingress then reads a frame's remainder by its chunk
        bytes.  Below :data:`PRIME_THRESHOLD` chunks, or without a byte
        lane for the remainder (m > 8), every frame keeps the byte loop.
        Other frames, and raw ones too short for a chunk header, never
        reach the syndrome and are left out.
        """
        tables = self._chunk_tables
        if tables is None:
            return
        end = self._chunk_end
        chunks = [
            frame[ETHERNET_BYTES:end]
            for frame in frames
            if frame[12:14] == ETH_RAW and len(frame) >= end
        ]
        if len(chunks) < PRIME_THRESHOLD:
            return
        self._remainder = _PrimedRemainders(
            self._byte_remainder, chunks, lane_remainders(tables, b"".join(chunks))
        ).__getitem__

    def drop_primed_syndromes(self) -> None:
        """Return every frame to the byte loop (after :meth:`prime_syndromes`)."""
        self._remainder = self._byte_remainder

    # -- control-plane interface ------------------------------------------------------

    def install_basis_mapping(
        self, basis: int, identifier: int, ttl: Optional[float] = None
    ) -> None:
        """Install (or refresh) a basis → identifier entry."""
        self._check_field("basis", basis, self._transform.basis_bits)
        self._check_field("identifier", identifier, self._identifier_bits)
        self._upsert_mapping(
            self._basis_table,
            basis,
            "set_identifier",
            {"identifier": identifier},
            ttl=ttl if ttl is not None else self._entry_ttl,
        )

    def remove_basis_mapping(self, basis: int) -> None:
        """Remove a basis → identifier entry (no-op when absent)."""
        self._remove_mapping(self._basis_table, basis)

    def expired_bases(self, now: float) -> List[int]:
        """Bases whose entries report an idle timeout."""
        return [entry.key for entry in self._basis_table.expired_entries(now)]

    def known_bases(self) -> List[int]:
        """Bases currently present in the basis → identifier table."""
        return [entry.key for entry in self._basis_table.entries()]

    # -- convenience -----------------------------------------------------------------

    @property
    def digest_engine(self) -> DigestEngine:
        """The digest engine of the underlying switch."""
        return self.switch.digest_engine
