"""GD encoder: turns a stream of fixed-size chunks into type-2/type-3 records.

The encoder combines a :class:`~repro.core.transform.GDTransform` (the
algebraic split) with a :class:`~repro.core.dictionary.BasisDictionary` (the
bounded basis ↔ identifier mapping).  Three operating modes mirror the
paper's three measured configurations:

* ``no table`` — the dictionary is never consulted or filled; every chunk
  becomes a type-2 record (the 1.03× bar in Figure 3);
* ``static table`` — the dictionary is preloaded and never modified; chunks
  whose basis is known become type-3 records;
* ``dynamic learning`` — unknown bases are inserted on first sight and
  compress from the next chunk on (the 1.77 ms control-plane latency is
  modelled by :mod:`repro.zipline` / :mod:`repro.controlplane`, in
  simulated time).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs as _obs
from repro.core.backends import BatchSplit, get_backend
from repro.core.dictionary import BasisDictionary, restore_row_keyed, row_keyed_snapshot
from repro.core.records import CompressedRecord, GDRecord, UncompressedRecord
from repro.core.transform import ChunkLike, GDTransform
from repro.core.wire import RecordLayout
from repro.exceptions import CodingError, DictionaryError

__all__ = ["EncodedBatch", "EncoderMode", "EncoderStats", "GDEncoder"]


class EncoderMode(Enum):
    """Dictionary-handling mode (matches the Figure 3 scenarios)."""

    NO_TABLE = "no_table"
    STATIC = "static"
    DYNAMIC = "dynamic"

    @classmethod
    def from_name(cls, name: "str | EncoderMode") -> "EncoderMode":
        """Parse a mode from its name (case-insensitive) or pass through."""
        if isinstance(name, EncoderMode):
            return name
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(mode.value for mode in cls)
            raise CodingError(
                f"unknown encoder mode {name!r}; valid modes: {valid}"
            ) from None


@dataclass
class EncoderStats:
    """Byte and packet accounting kept by the encoder.

    ``input_bits`` counts the original chunks; ``output_bits`` counts the
    unpadded record payloads; ``output_padded_bits`` includes the
    byte-alignment padding that the Tofino target imposes.  The ratios at the
    bottom of Figure 3 are ``output_padded_bits / input_bits``.
    """

    chunks: int = 0
    uncompressed_records: int = 0
    compressed_records: int = 0
    input_bits: int = 0
    output_bits: int = 0
    output_padded_bits: int = 0

    @property
    def compression_ratio(self) -> float:
        """Padded output size over input size (Figure 3's numeric labels)."""
        if self.input_bits == 0:
            return 0.0
        return self.output_padded_bits / self.input_bits

    @property
    def unpadded_ratio(self) -> float:
        """Output size over input size ignoring alignment padding."""
        if self.input_bits == 0:
            return 0.0
        return self.output_bits / self.input_bits

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the reporting helpers."""
        return {
            **asdict(self),
            "compression_ratio": self.compression_ratio,
            "unpadded_ratio": self.unpadded_ratio,
        }


class EncodedBatch:
    """Columnar result of the encoder's dictionary stage.

    Holds one type tag per chunk, the identifier column and the
    :class:`~repro.core.backends.BatchSplit` the fields came from, and
    behaves like the record tuple they describe: length, iteration,
    indexing and equality all go through :meth:`materialize`, which builds
    the record objects from plain-``int`` lists on first use.  The hot
    consumers never materialise — :meth:`pack_stream` hands the split's
    native columns back to the backend that produced them.
    """

    __slots__ = ("_layout", "_tags", "_identifiers", "_split", "_records")

    def __init__(
        self,
        layout: RecordLayout,
        tags: bytes,
        identifiers: List[int],
        split: BatchSplit,
    ):
        self._layout = layout
        self._tags = tags
        self._identifiers = identifiers
        self._split = split
        self._records: Optional[Tuple[GDRecord, ...]] = None

    def __len__(self) -> int:
        return len(self._tags)

    def __iter__(self) -> Iterator[GDRecord]:
        return iter(self.materialize())

    def __getitem__(self, index):
        return self.materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, EncodedBatch):
            other = other.materialize()
        if isinstance(other, (tuple, list)):
            return self.materialize() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.materialize())

    def __repr__(self) -> str:
        return f"EncodedBatch({len(self._tags)} records)"

    def materialize(self) -> Tuple[GDRecord, ...]:
        """The classic record tuple, built once and cached."""
        records = self._records
        if records is None:
            prefixes, bases, deviations = self._split.columns()
            layout = self._layout
            prefix_bits = layout.prefix_bits
            deviation_bits = layout.deviation_bits
            next_identifier = iter(self._identifiers).__next__
            out: List[GDRecord] = []
            append = out.append
            for position, tag in enumerate(self._tags):
                if tag == 3:
                    append(
                        CompressedRecord(
                            prefix=prefixes[position],
                            identifier=next_identifier(),
                            deviation=deviations[position],
                            prefix_bits=prefix_bits,
                            identifier_bits=layout.identifier_bits,
                            deviation_bits=deviation_bits,
                            alignment_padding_bits=0,
                        )
                    )
                else:
                    append(
                        UncompressedRecord(
                            prefix=prefixes[position],
                            basis=bases[position],
                            deviation=deviations[position],
                            prefix_bits=prefix_bits,
                            basis_bits=layout.basis_bits,
                            deviation_bits=deviation_bits,
                            alignment_padding_bits=layout.padding_bits,
                        )
                    )
            records = self._records = tuple(out)
        return records

    def pack_stream(self) -> bytes:
        """The container body: one tag byte plus the payload per record."""
        split = self._split
        backend = get_backend(split.backend)
        prefixes, bases, deviations = split.native()
        if not backend.supports_records(self._layout):
            backend = get_backend("pure")
            prefixes, _, deviations = split.columns()
        return backend.pack_records(
            self._layout, self._tags, self._identifiers, prefixes, bases, deviations
        )


class GDEncoder:
    """Encode chunks into GD records using a bounded basis dictionary.

    Parameters
    ----------
    transform:
        The GD transformation to apply to each chunk.
    dictionary:
        The basis dictionary, keyed by basis rows (:class:`BatchSplit`).
        Optional for :attr:`EncoderMode.NO_TABLE`.
    mode:
        One of ``no_table``, ``static`` or ``dynamic``.
    identifier_bits:
        Width of the identifier field in type-3 records.  Defaults to the
        dictionary's natural width (``ceil(log2(capacity))``), 15 bits for
        the paper's configuration.
    alignment_padding_bits:
        Extra padding added to the *uncompressed* (type-2) representation to
        model the Tofino container-alignment overhead (8 bits in the paper's
        deployment, producing the 1.03 ratio).  Type-3 records are already
        byte aligned for the paper's parameters and get no extra padding.
    """

    def __init__(
        self,
        transform: GDTransform,
        dictionary: Optional[BasisDictionary] = None,
        mode: "str | EncoderMode" = EncoderMode.DYNAMIC,
        identifier_bits: Optional[int] = None,
        alignment_padding_bits: int = 8,
    ):
        self._transform = transform
        self._mode = EncoderMode.from_name(mode)
        if self._mode is not EncoderMode.NO_TABLE and dictionary is None:
            raise DictionaryError(f"mode {self._mode.value} requires a dictionary")
        self._dictionary = dictionary
        if identifier_bits is None:
            identifier_bits = (
                dictionary.identifier_width() if dictionary is not None else 15
            )
        if dictionary is not None and (1 << identifier_bits) < dictionary.capacity:
            raise DictionaryError(
                f"identifier width {identifier_bits} cannot address a dictionary "
                f"of capacity {dictionary.capacity}"
            )
        self._identifier_bits = identifier_bits
        if alignment_padding_bits < 0:
            raise CodingError("alignment padding cannot be negative")
        # Per-type payload sizes are constants of the configuration; the
        # batch loop accumulates them instead of asking every record.
        self._layout = RecordLayout(
            transform.prefix_bits,
            transform.basis_bits,
            identifier_bits,
            transform.deviation_bits,
            alignment_padding_bits,
        )
        self.stats = EncoderStats()

    # -- accessors ---------------------------------------------------------

    @property
    def transform(self) -> GDTransform:
        """The GD transformation in use."""
        return self._transform

    @property
    def dictionary(self) -> Optional[BasisDictionary]:
        """The basis dictionary (``None`` in no-table mode)."""
        return self._dictionary

    @property
    def mode(self) -> EncoderMode:
        """Configured dictionary-handling mode."""
        return self._mode

    @property
    def identifier_bits(self) -> int:
        """Width of the identifier field in compressed records."""
        return self._identifier_bits

    @property
    def alignment_padding_bits(self) -> int:
        """Padding added to type-2 payloads for container alignment."""
        return self._layout.padding_bits

    @property
    def layout(self) -> RecordLayout:
        """Wire layout of the records this encoder emits."""
        return self._layout

    # -- encoding ---------------------------------------------------------------

    def encode_batch(self, chunks: Iterable[ChunkLike]) -> List[GDRecord]:
        """Encode an iterable of chunks (ints or byte strings).

        Each chunk is validated on its own, then the chunks, serialised
        back to back, go through :meth:`encode_buffer_batch`.
        """
        transform = self._transform
        size = transform.chunk_bytes
        data = b"".join(transform._chunk_to_int(c).to_bytes(size, "big") for c in chunks)
        return list(self.encode_buffer_batch(data))

    def encode_chunks(
        self, chunks: "bytes | bytearray | memoryview | Iterable[ChunkLike]"
    ) -> List[GDRecord]:
        """Record-list entry point for either framing of *many chunks*.

        A contiguous bytes-like buffer goes through
        :meth:`encode_buffer_batch`; any other iterable through
        :meth:`encode_batch`.
        """
        if isinstance(chunks, (bytes, bytearray, memoryview)):
            return list(self.encode_buffer_batch(chunks))
        return self.encode_batch(chunks)

    def encode_buffer_batch(
        self, data: "bytes | bytearray | memoryview"
    ) -> EncodedBatch:
        """Encode a buffer of whole chunks into a columnar batch.

        The production path: the backend's batch split feeds the one
        dictionary stage, and no per-chunk record object is built unless the
        caller iterates the returned :class:`EncodedBatch`.
        """
        return self._encode_columns(self._transform.split_batch_columns(data))

    # -- internals -----------------------------------------------------------------

    def _encode_columns(self, split: BatchSplit) -> EncodedBatch:
        """The dictionary stage: every encode entry point ends up here.

        Only the basis column is read; the other two ride along in ``split``.
        One :meth:`BasisDictionary.probe_batch` call decides hit or miss per
        basis and learns in dynamic mode; the tags, the identifier column
        and one ``gd.encode`` trace instant per chunk (when tracing is on)
        are derived from what it returned, and the batch is accounted in
        :attr:`stats` once at the end.
        """
        stats = self.stats
        layout = self._layout
        bases = split.bases()
        count = len(bases)
        first_index = stats.chunks
        if self._mode is EncoderMode.NO_TABLE or self._dictionary is None:
            identifiers: List[int] = []
            misses = [(position, None, None) for position in range(count)]
        else:
            identifiers, misses = self._dictionary.probe_batch(
                bases, self._mode is EncoderMode.DYNAMIC
            )
        tags = bytearray(b"\x03") * count
        for miss in misses:
            tags[miss[0]] = 2
        tracer = _obs.TRACER
        if tracer.enabled:
            self._trace_batch(tracer, first_index, tags, identifiers, misses)
        compressed = len(identifiers)
        uncompressed = count - compressed
        stats.chunks = first_index + count
        stats.input_bits += count * self._transform.chunk_bits
        stats.output_bits += compressed * layout.t3_bits + uncompressed * layout.t2_bits
        stats.output_padded_bits += (
            compressed * layout.t3_padded + uncompressed * layout.t2_padded
        )
        stats.compressed_records += compressed
        stats.uncompressed_records += uncompressed
        return EncodedBatch(layout, bytes(tags), identifiers, split)

    @staticmethod
    def _trace_batch(
        tracer,
        first_index: int,
        tags: bytearray,
        identifiers: List[int],
        misses: List[Tuple[int, Optional[int], Optional[int]]],
    ) -> None:
        """One ``gd.encode`` instant per chunk of an encoded batch."""
        missed = {position: rest for position, *rest in misses}
        next_identifier = iter(identifiers).__next__
        for position, tag in enumerate(tags):
            chunk_index = first_index + position
            if tag == 3:
                args = {
                    "outcome": "hit",
                    "identifier": next_identifier(),
                    "chunk_index": chunk_index,
                }
            else:
                learned_identifier, evicted = missed[position]
                if learned_identifier is None:
                    args = {"outcome": "miss", "chunk_index": chunk_index}
                else:
                    args = {
                        "outcome": "miss",
                        "learned_identifier": learned_identifier,
                        "chunk_index": chunk_index,
                    }
                    if evicted is not None:
                        args["evicted_basis"] = int.from_bytes(evicted, "big")
            tracer.instant("gd.encode", "gd-encoder", args=args)

    # -- snapshot / restore ----------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Canonical, JSON-serialisable snapshot of the encoder's state.

        Captures everything a resumed encoder needs to continue exactly
        where this one stopped: the dictionary (mapping, recency order,
        identifier allocator) and the byte/packet accounting.  The
        configuration itself (transform, mode, widths) is *not* part of the
        snapshot — restore requires an identically configured encoder.
        """
        state = {"mode": self._mode.value, "stats": asdict(self.stats)}
        if self._dictionary is not None:
            state["dictionary"] = row_keyed_snapshot(self._dictionary)
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a snapshot taken by an identically configured encoder."""
        if state.get("mode") != self._mode.value:
            raise CodingError(
                f"snapshot mode {state.get('mode')!r} does not match encoder "
                f"mode {self._mode.value!r}"
            )
        if "dictionary" in state:
            if self._dictionary is None:
                raise DictionaryError(
                    "snapshot carries a dictionary but this encoder has none"
                )
            restore_row_keyed(
                self._dictionary, state["dictionary"], self._transform.basis_bits
            )
        stats = state.get("stats", {})
        self.stats = EncoderStats(
            **{f.name: int(stats.get(f.name, 0)) for f in fields(EncoderStats)}
        )
