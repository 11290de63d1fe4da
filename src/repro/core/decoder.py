"""GD decoder: reconstructs original chunks from type-2/type-3 records.

The decoder inverts :class:`~repro.core.encoder.GDEncoder`.  Its dictionary
maps identifiers back to (prefix, basis) pairs; in the pure-software codec
the decoder keeps its dictionary synchronised by learning from the type-2
records it receives (the same deterministic insertion order the encoder
used), while in the switch deployment the control plane installs the reverse
mapping explicitly before the forward mapping is enabled (Section 5 of the
paper), which the :mod:`repro.controlplane` package models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.core.dictionary import BasisDictionary
from repro.core.records import (
    CompressedRecord,
    GDRecord,
    RawRecord,
    UncompressedRecord,
)
from repro.core.transform import GDTransform
from repro.exceptions import CodingError, DictionaryError

__all__ = ["DecoderStats", "GDDecoder"]


@dataclass
class DecoderStats:
    """Counters describing what the decoder has processed."""

    records: int = 0
    raw_records: int = 0
    uncompressed_records: int = 0
    compressed_records: int = 0
    output_bits: int = 0
    unknown_identifiers: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view used by the reporting helpers."""
        return {
            "records": self.records,
            "raw_records": self.raw_records,
            "uncompressed_records": self.uncompressed_records,
            "compressed_records": self.compressed_records,
            "output_bits": self.output_bits,
            "unknown_identifiers": self.unknown_identifiers,
        }


class GDDecoder:
    """Decode GD records back into the original chunks.

    Parameters
    ----------
    transform:
        Must be configured identically to the encoder's transform.
    dictionary:
        The identifier → basis mapping.  May be shared with an encoder (the
        ideal zero-latency model) or kept separate and fed by learning /
        control-plane installs.
    learn_from_uncompressed:
        When ``True`` (default), every type-2 record inserts its basis into
        the dictionary, mirroring the deterministic insertion the encoder
        performs in dynamic mode so that both sides assign the same
        identifiers without any out-of-band channel.
    """

    def __init__(
        self,
        transform: GDTransform,
        dictionary: Optional[BasisDictionary] = None,
        learn_from_uncompressed: bool = True,
    ):
        self._transform = transform
        self._dictionary = dictionary
        self._learn = learn_from_uncompressed
        self.stats = DecoderStats()

    # -- accessors ---------------------------------------------------------

    @property
    def transform(self) -> GDTransform:
        """The GD transformation in use."""
        return self._transform

    @property
    def dictionary(self) -> Optional[BasisDictionary]:
        """The identifier → basis dictionary (``None`` when decoding type 2 only)."""
        return self._dictionary

    # -- decoding ------------------------------------------------------------

    def decode_batch(self, records: Iterable[GDRecord]) -> List[int]:
        """Decode record objects into the original chunk values."""
        data = self.decode_batch_to_bytes(records)
        chunk_bytes = self._transform.chunk_bytes
        return [
            int.from_bytes(data[offset : offset + chunk_bytes], "big")
            for offset in range(0, len(data), chunk_bytes)
        ]

    def decode_batch_to_bytes(self, records: Iterable[GDRecord]) -> bytes:
        """Decode record objects and concatenate the serialised chunks.

        Adapts the records to field columns — validating their widths
        against the transform once per batch — and decodes them through
        :meth:`decode_columns_to_bytes`.
        """
        return self.decode_columns_to_bytes(*self._record_columns(records))

    def decode_columns_to_bytes(
        self,
        tags: "bytes | bytearray",
        prefixes: Sequence[int],
        keys: Sequence[int],
        deviations: Sequence[int],
    ) -> bytes:
        """Decode record columns into the original bytes (the decode kernel).

        ``tags[i]`` is the record type of position ``i``; ``keys[i]``
        carries the identifier for type-3 positions and the basis for
        type-2 and raw (type-1) positions — a raw chunk rides the batch as
        its own split, which the dictionary ignores and the join, being a
        bijection, restores verbatim.  One
        :meth:`BasisDictionary.resolve_batch` call does all dictionary
        learning and identifier resolution, strictly in order — a type-3
        record may reference a basis a type-2 record introduced earlier in
        the same batch; the ``gd.decode`` instants are derived from what it
        returned and the chunks rebuilt in one
        :meth:`GDTransform.join_batch_to_bytes` call.  Callers guarantee
        the fields fit the transform's widths (the container parser masks
        them, :meth:`decode_batch_to_bytes` checks the records), so only
        dictionary-supplied bases are re-checked.
        """
        stats = self.stats
        transform = self._transform
        dictionary = self._dictionary
        count = len(tags)
        bases = list(keys)
        learned, unmapped = [], None
        if dictionary is not None:
            # Learning and recency tracking keep this dictionary's eviction
            # order aligned with the encoder's, so both sides evict the
            # same entries under pressure.
            learned, unmapped = dictionary.resolve_batch(
                tags, keys, self._learn, bases
            )
        elif 3 in tags:
            raise DictionaryError(
                "cannot decode a compressed record without a dictionary"
            )
        resolved = count if unmapped is None else unmapped
        misfit = self._first_misfit(tags, bases, resolved)
        tracer = _obs.TRACER
        if tracer.enabled:
            self._trace_batch(
                tracer, tags, keys, learned, resolved if misfit is None else misfit + 1
            )
        if misfit is not None:
            raise CodingError(
                f"basis {bases[misfit]!r} does not fit in "
                f"{transform.basis_bits} bits"
            )
        if unmapped is not None:
            identifier = keys[unmapped]
            stats.unknown_identifiers += 1
            if tracer.enabled:
                tracer.instant(
                    "gd.decode",
                    "gd-decoder",
                    args={"outcome": "unknown", "identifier": identifier},
                )
            raise DictionaryError(
                f"identifier {identifier} is not mapped to any basis"
            )
        raw = tags.count(1)
        uncompressed = tags.count(2)
        stats.records += count
        stats.raw_records += raw
        stats.uncompressed_records += uncompressed
        stats.compressed_records += count - raw - uncompressed
        stats.output_bits += count * transform.chunk_bits
        return transform.join_batch_to_bytes(prefixes, bases, deviations)

    # -- internals ------------------------------------------------------------

    def _first_misfit(
        self, tags: "bytes | bytearray", bases: List[int], resolved: int
    ) -> Optional[int]:
        """Position of the first dictionary-supplied basis that does not fit.

        External installs can feed the dictionary, so what it resolved (the
        type-3 positions below ``resolved``) is re-checked against the basis
        width — once per batch: when the whole column is plain ``int``
        within ``[0, 2**k)``, three C-speed passes, no position can be a
        misfit; only otherwise are they looked at one by one.
        """
        basis_width = self._transform.basis_bits
        if not bases or (
            set(map(type, bases)) == {int}
            and min(bases) >= 0
            and not max(bases) >> basis_width
        ):
            return None
        for position in range(resolved):
            if tags[position] == 3:
                basis = bases[position]
                if not isinstance(basis, int) or basis < 0 or basis >> basis_width:
                    return position
        return None

    @staticmethod
    def _trace_batch(
        tracer,
        tags: "bytes | bytearray",
        keys: Sequence[int],
        learned: List[Tuple[int, int, Optional[int]]],
        stop: int,
    ) -> None:
        """One ``gd.decode`` instant per record before position ``stop``."""
        learned_at = {position: rest for position, *rest in learned}
        for position in range(stop):
            tag = tags[position]
            if tag == 3:
                args = {"outcome": "hit", "identifier": keys[position]}
            elif tag == 2:
                args = {"outcome": "uncompressed"}
                if position in learned_at:
                    learned_identifier, evicted = learned_at[position]
                    args["learned_identifier"] = learned_identifier
                    if evicted is not None:
                        args["evicted_basis"] = evicted
            else:
                continue
            tracer.instant("gd.decode", "gd-decoder", args=args)

    def _record_columns(
        self, records: Iterable[GDRecord]
    ) -> Tuple[bytearray, List[int], List[int], List[int]]:
        """Record objects → ``(tags, prefixes, keys, deviations)`` columns."""
        chunk_bits = self._transform.chunk_bits
        split_fields = self._transform.split_fields
        tags = bytearray()
        prefixes: List[int] = []
        keys: List[int] = []
        deviations: List[int] = []
        widths = set()
        for record in records:
            if isinstance(record, CompressedRecord):
                tags.append(3)
                keys.append(record.identifier)
                widths.add((record.prefix_bits, None, record.deviation_bits))
            elif isinstance(record, UncompressedRecord):
                tags.append(2)
                keys.append(record.basis)
                widths.add(
                    (record.prefix_bits, record.basis_bits, record.deviation_bits)
                )
            elif isinstance(record, RawRecord):
                if record.chunk_bits != chunk_bits:
                    raise CodingError(
                        f"raw record width {record.chunk_bits} does not match "
                        f"chunk width {chunk_bits}"
                    )
                # Passes through as its own split: the join restores it.
                prefix, basis, deviation = split_fields(record.chunk)
                tags.append(1)
                prefixes.append(prefix)
                keys.append(basis)
                deviations.append(deviation)
                continue
            else:
                raise CodingError(
                    f"unsupported record type {type(record).__name__}"
                )
            prefixes.append(record.prefix)
            deviations.append(record.deviation)
        for record_widths in widths:
            self._check_widths(*record_widths)
        return tags, prefixes, keys, deviations

    def _check_widths(
        self,
        prefix_bits: int,
        basis_bits: Optional[int],
        deviation_bits: int,
    ) -> None:
        if prefix_bits != self._transform.prefix_bits:
            raise CodingError(
                f"record prefix width {prefix_bits} does not match transform "
                f"prefix width {self._transform.prefix_bits}"
            )
        if basis_bits is not None and basis_bits != self._transform.basis_bits:
            raise CodingError(
                f"record basis width {basis_bits} does not match transform "
                f"basis width {self._transform.basis_bits}"
            )
        if deviation_bits != self._transform.deviation_bits:
            raise CodingError(
                f"record deviation width {deviation_bits} does not match transform "
                f"deviation width {self._transform.deviation_bits}"
            )

    # -- snapshot / restore ----------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Canonical, JSON-serialisable snapshot of the decoder's state.

        The counterpart of :meth:`GDEncoder.snapshot_state`: the dictionary
        (with its recency order and allocator) plus the record accounting.
        Configuration (transform, learning flag) is not captured; restore
        requires an identically configured decoder.
        """
        state: Dict[str, object] = {"stats": self.stats.as_dict()}
        if self._dictionary is not None:
            state["dictionary"] = self._dictionary.snapshot_state()
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a snapshot taken by an identically configured decoder.

        This is the crash-recovery entry point: a decoder restarted
        mid-trace restores the identifier → basis mapping (and its recency
        order, so future evictions stay in lock-step with the encoder)
        instead of emitting ``unknown_identifier`` for every type-3 record
        until the control plane happens to reinstall each mapping.
        """
        if "dictionary" in state:
            if self._dictionary is None:
                raise DictionaryError(
                    "snapshot carries a dictionary but this decoder has none"
                )
            self._dictionary.restore_state(state["dictionary"])
        stats = state.get("stats", {})
        self.stats = DecoderStats(
            records=int(stats.get("records", 0)),
            raw_records=int(stats.get("raw_records", 0)),
            uncompressed_records=int(stats.get("uncompressed_records", 0)),
            compressed_records=int(stats.get("compressed_records", 0)),
            output_bits=int(stats.get("output_bits", 0)),
            unknown_identifiers=int(stats.get("unknown_identifiers", 0)),
        )
