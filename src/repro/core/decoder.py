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

from dataclasses import asdict, dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.core.dictionary import BasisDictionary, restore_row_keyed, row_keyed_snapshot
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
        return asdict(self)


class GDDecoder:
    """Decode GD records back into the original chunks.

    Parameters
    ----------
    transform:
        Must be configured identically to the encoder's transform.
    dictionary:
        The identifier → basis mapping, keyed by basis rows like the
        encoder's.  May be shared with an encoder (the ideal zero-latency
        model) or kept separate and fed by learning / external installs.
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
        keys: Sequence,
        deviations: Sequence[int],
    ) -> bytes:
        """Decode record columns into the original bytes (the decode kernel).

        ``tags[i]`` is the record type of position ``i``; ``keys[i]``
        carries the identifier for type-3 positions and the basis row for
        type-2 and raw (type-1) positions — a raw chunk rides the batch as
        its own split, which the dictionary ignores and the join, being a
        bijection, restores verbatim.  One
        :meth:`BasisDictionary.resolve_batch` call does all dictionary
        learning and identifier resolution, strictly in order — a type-3
        record may reference a basis a type-2 record introduced earlier in
        the same batch; the ``gd.decode`` instants are derived from what it
        returned and the chunks rebuilt from the joined rows in one
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
        misfit, rows = self._joined_rows(tags, bases, resolved)
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
        return transform.join_batch_to_bytes(prefixes, rows, deviations)

    # -- internals ------------------------------------------------------------

    def _joined_rows(
        self, tags: "bytes | bytearray", bases: List[bytes], resolved: int
    ) -> Tuple[Optional[int], bytes]:
        """``(misfit, rows)``: the position of the first dictionary-supplied
        basis that is not a ``k``-bit row (or ``None``), and the bases joined.

        External installs can feed the dictionary, so what it resolved (the
        type-3 positions below ``resolved``) is re-checked — once per batch:
        when the join succeeds, every row is ``ceil(k / 8)`` bytes and no
        first byte sets a bit above ``k`` (C-speed passes all), no position
        can be a misfit; only otherwise are they looked at one by one.
        """
        basis_bits = self._transform.basis_bits
        width = (basis_bits + 7) // 8
        top = basis_bits - 8 * (width - 1)  # bits a row's first byte may set
        try:
            rows = b"".join(bases)
        except TypeError:
            rows = None
        if rows is not None and set(map(len, bases)) <= {width}:
            if not rows[::width].translate(None, bytes(range(1 << top))):
                return None, rows
        for position in range(resolved):
            basis = bases[position]
            if tags[position] == 3 and not (
                type(basis) is bytes and len(basis) == width and not basis[0] >> top
            ):
                return position, rows
        return None, rows

    @staticmethod
    def _trace_batch(
        tracer,
        tags: "bytes | bytearray",
        keys: Sequence,
        learned: List[Tuple[int, int, Optional[bytes]]],
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
                        args["evicted_basis"] = int.from_bytes(evicted, "big")
            else:
                continue
            tracer.instant("gd.decode", "gd-decoder", args=args)

    def _record_columns(
        self, records: Iterable[GDRecord]
    ) -> Tuple[bytearray, List[int], list, List[int]]:
        """Record objects → ``(tags, prefixes, keys, deviations)`` columns,
        each type-2 and raw basis as its row."""
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
        width = (self._transform.basis_bits + 7) // 8
        keys = [
            key if tag == 3 else key.to_bytes(width, "big")
            for tag, key in zip(tags, keys)
        ]
        return tags, prefixes, keys, deviations

    def _check_widths(
        self,
        prefix_bits: int,
        basis_bits: Optional[int],
        deviation_bits: int,
    ) -> None:
        for name, width in zip(
            ("prefix", "basis", "deviation"), (prefix_bits, basis_bits, deviation_bits)
        ):
            expected = getattr(self._transform, f"{name}_bits")
            if width is not None and width != expected:
                raise CodingError(
                    f"record {name} width {width} does not match transform "
                    f"{name} width {expected}"
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
            state["dictionary"] = row_keyed_snapshot(self._dictionary)
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
            restore_row_keyed(
                self._dictionary, state["dictionary"], self._transform.basis_bits
            )
        stats = state.get("stats", {})
        self.stats = DecoderStats(
            **{f.name: int(stats.get(f.name, 0)) for f in fields(DecoderStats)}
        )
