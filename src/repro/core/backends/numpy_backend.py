"""The ``numpy`` codec backend: whole-buffer syndrome/parity computation.

The pure fast path already fused the per-chunk work into table lookups;
this backend removes the per-chunk *loop*.  It is the software shape of
widening a hardware CRC engine's datapath (LiteEth's ``LiteEthMACCRCEngine``
unrolls the LFSR across a data word and emits one XOR network per output
bit): here the LFSR is unrolled across the whole trace and the XOR
networks become ndarray gathers through precomputed byte-lane fold tables.

The batch split runs entirely on ``(count, chunk_bytes)`` views of the
input buffer:

1. **Syndromes** — the per-byte-position tables from
   :func:`repro.core.crc.record_tables` are paired into 65536-entry
   ``uint16``-indexed tables (two byte lanes per gather), and the body
   syndrome of every chunk is the XOR-fold of the gathered lanes.  The
   prefix bits are masked off *before* the fold, so no per-prefix syndrome
   correction is needed — the masked rows are reused for basis extraction.
2. **Deviations** — the body syndrome *is* the deviation; the
   syndrome→position table is applied as one gather and the deviated bits
   are flipped back with a single fancy-indexed XOR scatter.
3. **Bases** — the corrected codeword rows are shifted right by ``m``
   with two vectorized byte-shifts (or a column drop for ``m == 8``) and
   sliced to the ``ceil(k / 8)`` basis bytes; one ``tolist`` of their
   fixed-width void view cuts them into the ``bytes`` rows the dictionary
   keys on.
4. **Prefixes** — read from the (at most three) leading bytes with
   ``uint32`` arithmetic.

The decode direction reverses the pipeline: the resolved basis rows,
joined, shifted left by ``m`` as a byte matrix, bulk parity recovery
through the same fold tables, parity OR-in, deviation scatter,
vectorized prefix embedding, one ``tobytes``.

Eligibility mirrors the pure lane path: orders up to 8 (the syndrome must
fit one byte lane) and prefixes of at most ~3 leading bytes.  Anything
else — and any batch shorter than
:data:`~repro.core.backends.MIN_BATCH_CHUNKS` — transparently stays on
the pure path.  Outputs are bit-identical to the reference; the property
suite asserts it across the full configuration matrix.

numpy stays an **optional** dependency (the ``fast`` extra): the import
is probed lazily and the backend reports itself unavailable, with the
import error preserved, when numpy is missing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.backends import BatchSplit, CodecBackend, batch_backend
from repro.core.crc import record_tables, reflect_bits
from repro.core.wire import RecordLayout, pack_type2, parse_records, scan_records
from repro.exceptions import ChunkSizeError, CodingError

__all__ = ["NumpyBackend"]

#: Lazy probe result: ``(module_or_None, detail)``.  Tests monkeypatch this
#: to simulate a numpy-less interpreter without uninstalling anything.
_PROBE: Optional[Tuple[Optional[object], str]] = None


def _numpy() -> Tuple[Optional[object], str]:
    """Import numpy once, remembering either the module or the failure."""
    global _PROBE
    if _PROBE is None:
        try:
            import numpy  # noqa: PLC0415 - optional dependency, probed lazily

            _PROBE = (numpy, f"numpy {numpy.__version__}")
        except Exception as exc:  # pragma: no cover - depends on environment
            _PROBE = (
                None,
                f"numpy is not installed ({exc}); install the 'fast' extra "
                "to enable this backend",
            )
    return _PROBE


def _gather_tables(np, tables, width: int):
    """Gather tables folding rows of ``len(tables)`` bytes to remainders.

    ``tables`` are the per-position :func:`~repro.core.crc.record_tables`
    of a ``width``-bit CRC, re-packed as ndarrays at the dtype the width
    needs.  Returns ``(paired, arrays)``: when the row length is even and
    the CRC fits 16 bits, adjacent byte lanes are paired into 65536-entry
    tables indexed by a big-endian ``uint16`` view (two lanes per gather);
    otherwise one 256-entry table per byte lane.
    """
    dtype = np.min_scalar_type((1 << width) - 1)
    arrays = [np.fromiter(table, dtype=dtype, count=256) for table in tables]
    if len(arrays) % 2 or width > 16:
        return (False, arrays)
    return (
        True,
        [
            np.bitwise_xor(high[:, None], low[None, :]).reshape(-1)
            for high, low in zip(arrays[0::2], arrays[1::2])
        ],
    )


def _fold_rows(rows, fold):
    """XOR-fold contiguous ``(count, length)`` uint8 rows to remainders."""
    paired, tables = fold
    columns = rows.view(">u2") if paired else rows
    accumulator = tables[0][columns[:, 0]]
    for index in range(1, len(tables)):
        accumulator = accumulator ^ tables[index][columns[:, index]]
    return accumulator


class _SplitState:
    """Per-transform-configuration constants for the vectorized split."""

    __slots__ = (
        "chunk_bits",
        "chunk_bytes",
        "pad",
        "prefix_bits",
        "m",
        "n",
        "basis_bytes",
        "keep_mask",
        "fold",
        "positions",
        "bit_masks",
        "head_bytes",
        "head_shift",
    )

    def __init__(self, np, transform):
        code = transform.code
        m = code.m
        n = code.n
        length = transform.chunk_bytes
        self.chunk_bits = transform.chunk_bits
        self.chunk_bytes = length
        self.pad = length * 8 - transform.chunk_bits
        self.prefix_bits = transform.prefix_bits
        self.m = m
        self.n = n
        self.basis_bytes = (code.k + 7) // 8
        # Byte mask isolating the n-bit body: the fold then yields the body
        # syndrome directly (no per-prefix correction), and the masked rows
        # double as the codeword rows the basis is extracted from.
        keep = np.zeros(length, dtype=np.uint8)
        for column in range(length):
            low_bit = 8 * (length - 1 - column)
            if low_bit + 8 <= n:
                keep[column] = 0xFF
            elif low_bit < n:
                keep[column] = (1 << (n - low_bit)) - 1
        self.keep_mask = keep
        self.fold = _gather_tables(
            np, record_tables(code.crc_parameter, m, length), m
        )
        positions = np.full(1 << m, -1, dtype=np.int16)
        for syndrome, position in enumerate(code.syndrome_table.positions):
            if position is not None:
                positions[syndrome] = position
        self.positions = positions
        self.bit_masks = np.array([1 << bit for bit in range(8)], dtype=np.uint8)
        head_span = self.pad + self.prefix_bits
        self.head_bytes = (head_span + 7) // 8
        self.head_shift = 8 * self.head_bytes - head_span

    def split(self, np, transform, data):
        """The vectorized split: buffer → (prefixes, deviations, basis rows)."""
        length = self.chunk_bytes
        total = len(data)
        if total % length:
            raise ChunkSizeError(
                f"data length {total} is not a multiple of the chunk size "
                f"{length}"
            )
        count = total // length
        raw = np.frombuffer(data, dtype=np.uint8).reshape(count, length)
        if self.pad and count and (raw[:, 0] >> (8 - self.pad)).any():
            raise ChunkSizeError(
                f"chunk value does not fit in {self.chunk_bits} bits"
            )
        rows = raw & self.keep_mask
        deviations = _fold_rows(rows, self.fold)
        if self.prefix_bits:
            head = raw[:, 0].astype(np.uint32)
            for column in range(1, self.head_bytes):
                head = (head << np.uint32(8)) | raw[:, column]
            prefixes = head >> np.uint32(self.head_shift)
        else:
            prefixes = None
        # Flip each deviated bit back onto its codeword (syndrome 0 has no
        # deviation); row indices are distinct, so a fancy-indexed XOR works.
        pointed = self.positions[deviations]
        indices = np.flatnonzero(pointed >= 0)
        if indices.size:
            bits = pointed[indices]
            rows[indices, (length - 1) - (bits >> 3)] ^= self.bit_masks[bits & 7]
        basis_bytes = self.basis_bytes
        if self.m == 8:
            basis_rows = rows[:, length - 1 - basis_bytes : length - 1]
        else:
            shifted = rows >> self.m
            if length > 1:
                shifted[:, 1:] |= rows[:, :-1] << (8 - self.m)
            basis_rows = shifted[:, length - basis_bytes :]
        return prefixes, deviations, np.ascontiguousarray(basis_rows)


class _ParityState:
    """Per-code constants for bulk parity recovery (decode direction)."""

    __slots__ = ("m", "parity_bytes", "fold")

    def __init__(self, np, code):
        self.m = code.m
        self.parity_bytes = (code.n + 7) // 8
        self.fold = _gather_tables(
            np, record_tables(code.crc_parameter, code.m, self.parity_bytes), code.m
        )

    def shifted(self, np, bases: bytes, count: int):
        """``basis * x**m`` of ``count`` basis rows, given back to back, as
        ``(count, parity_bytes)`` rows: a byte-column offset and one
        vectorized bit shift with carry, the split's basis cut reversed."""
        rows = np.frombuffer(bases, dtype=np.uint8).reshape(count, -1)
        width = self.parity_bytes
        whole, bits = divmod(self.m, 8)
        wide = np.zeros((count, width), dtype=np.uint8)
        wide[:, width - whole - rows.shape[1] : width - whole] = rows
        if bits:
            carry = wide[:, 1:] >> (8 - bits)
            wide <<= bits
            wide[:, :-1] |= carry
        return wide


class _CrcBatchState:
    """Per-(parameters, record width) constants for the whole-batch CRC fold.

    The per-position tables come from the engine's own batch state, folded
    through the same gather tables as the transform split.
    """

    __slots__ = (
        "record_bytes",
        "extra",
        "width",
        "init_term",
        "reflect_in",
        "reflect_out",
        "xor_out",
        "fold",
        "reflect_table",
    )

    def __init__(self, np, engine, record_bits: int):
        params = engine.parameters
        record_bytes, tables, init_term, _head_limit = engine._batch_state(
            record_bits
        )
        self.record_bytes = record_bytes
        self.extra = record_bytes * 8 - record_bits
        self.width = params.width
        self.init_term = init_term
        self.reflect_in = params.reflect_in
        self.reflect_out = params.reflect_out
        self.xor_out = params.xor_out
        self.fold = _gather_tables(np, tables, self.width)
        byte_reflect = [reflect_bits(value, 8) for value in range(256)]
        self.reflect_table = (
            np.array(byte_reflect, dtype=np.uint8) if params.reflect_in else None,
            np.array(byte_reflect, dtype=np.uint64) if params.reflect_out else None,
        )

    def compute(self, np, data, record_bits: int) -> List[int]:
        rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, self.record_bytes)
        if self.extra:
            bad = rows[:, 0] >> (8 - self.extra)
            if bad.any():
                index = int(np.flatnonzero(bad)[0])
                raise CodingError(
                    f"record {index} does not fit in {record_bits} bits"
                )
        if self.reflect_in:
            rows = self.reflect_table[0][rows]
        accumulator = _fold_rows(rows, self.fold)
        if self.init_term:
            accumulator = accumulator ^ accumulator.dtype.type(self.init_term)
        if self.reflect_out:
            # Full 64-bit bit reversal as eight reflected byte gathers in
            # reverse order, then shift down to the CRC width.
            value = accumulator.astype(np.uint64)
            reversed_bits = np.zeros_like(value)
            reflect = self.reflect_table[1]
            for shift in range(0, 64, 8):
                reversed_bits = (reversed_bits << np.uint64(8)) | reflect[
                    ((value >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.intp)
                ]
            accumulator = reversed_bits >> np.uint64(64 - self.width)
        if self.xor_out:
            accumulator = accumulator ^ accumulator.dtype.type(self.xor_out)
        return accumulator.tolist()


class NumpyBackend(CodecBackend):
    """Vectorized backend running the batch hot paths as ndarray gathers."""

    name = "numpy"
    priority = 20
    accelerated = True

    def __init__(self):
        self._split_states: Dict[Tuple[int, int, int], _SplitState] = {}
        self._parity_states: Dict[Tuple[int, int], _ParityState] = {}
        self._crc_states: Dict[Tuple[object, int], _CrcBatchState] = {}

    # -- availability -----------------------------------------------------

    def available(self) -> bool:
        return _numpy()[0] is not None

    def availability_detail(self) -> str:
        return _numpy()[1]

    # -- eligibility ------------------------------------------------------

    def supports_transform(self, transform) -> bool:
        # Same shape as the pure lane path: the syndrome must fit one byte
        # lane; the prefix must fit the (three-byte) vectorized head read.
        if not self.available() or transform.code.m > 8:
            return False
        pad = transform.chunk_bytes * 8 - transform.chunk_bits
        return pad + transform.prefix_bits <= 24

    def supports_parity(self, code) -> bool:
        return self.available() and code.m <= 8

    def supports_join(self, transform) -> bool:
        return (
            self.available()
            and transform.code.m <= 8
            and transform.chunk_bits % 8 == 0
            and transform.prefix_bits <= 24
        )

    def supports_records(self, layout: RecordLayout) -> bool:
        # A type-3 payload must fit the uint64 the rows are folded into; the
        # rest is ``supports_join`` read off the layout (``t2_bits`` is the
        # chunk width), because parsed array columns go to this join only.
        if layout.t3_padded > 64 or layout.deviation_bits > 8:
            return False
        return self.available() and layout.t2_bits % 8 == 0 and layout.prefix_bits <= 24

    def supports_crc_batch(self, parameters) -> bool:
        # uint64 gathers cap the register; every Rocksoft knob (reflect,
        # init, xor_out, augment) is handled inside the fold state.
        return self.available() and parameters.width <= 64

    # -- state ------------------------------------------------------------

    def _split_state(self, np, transform) -> _SplitState:
        code = transform.code
        key = (code.full_polynomial, code.m, transform.chunk_bits)
        state = self._split_states.get(key)
        if state is None:
            state = self._split_states[key] = _SplitState(np, transform)
        return state

    def _parity_state(self, np, code) -> _ParityState:
        key = (code.full_polynomial, code.m)
        state = self._parity_states.get(key)
        if state is None:
            state = self._parity_states[key] = _ParityState(np, code)
        return state

    # -- operations -------------------------------------------------------

    def split_batch_columns(self, transform, data) -> BatchSplit:
        np = _numpy()[0]
        state = self._split_state(np, transform)
        prefixes, deviations, basis_rows = state.split(np, transform, data)
        count = len(deviations)
        if prefixes is None:
            prefixes = np.zeros(count, dtype=np.uint32)

        # The arrays stay arrays (``pack_records`` below reads them); only
        # the basis column becomes a list of rows, for the dictionary.
        def columns():
            bases = basis_rows.view(f"V{state.basis_bytes}")[:, 0].tolist()
            return prefixes, bases, deviations

        return BatchSplit(count, self.name, columns)

    def crc_batch(self, engine, data, record_bits: int) -> List[int]:
        np = _numpy()[0]
        key = (engine.parameters, record_bits)
        state = self._crc_states.get(key)
        if state is None:
            state = self._crc_states[key] = _CrcBatchState(np, engine, record_bits)
        return state.compute(np, data, record_bits)

    def parities_of_bases(self, code, bases: Sequence[int]) -> Sequence[int]:
        if not bases:
            return b""
        np = _numpy()[0]
        state = self._parity_state(np, code)
        width = (code.k + 7) // 8
        rows = b"".join(basis.to_bytes(width, "big") for basis in bases)
        return _fold_rows(state.shifted(np, rows, len(bases)), state.fold).tobytes()

    def join_batch_to_bytes(
        self,
        transform,
        prefixes: Sequence[int],
        bases: bytes,
        deviations: Sequence[int],
    ) -> bytes:
        count = len(deviations)
        if count == 0:
            return b""
        np = _numpy()[0]
        state = self._split_state(np, transform)
        parity_state = self._parity_state(np, transform.code)
        length = state.chunk_bytes
        parity_bytes = parity_state.parity_bytes
        n = state.n
        rows = parity_state.shifted(np, bases, count)
        # Parity bits are the remainder of basis * x**m — the same fold as
        # the forward syndrome, applied to the zero-padded basis rows.
        parities = _fold_rows(rows, parity_state.fold)
        if parity_bytes == length:
            chunks = rows  # a fresh matrix of its own
        else:
            chunks = np.zeros((count, length), dtype=np.uint8)
            chunks[:, length - parity_bytes :] = rows
        chunks[:, length - 1] |= parities
        pointed = state.positions[np.asarray(deviations, dtype=np.int64)]
        indices = np.flatnonzero(pointed >= 0)
        if indices.size:
            bits = pointed[indices]
            chunks[indices, (length - 1) - (bits >> 3)] ^= state.bit_masks[bits & 7]
        if state.prefix_bits:
            shifted = np.asarray(prefixes, dtype=np.uint32) << np.uint32(n & 7)
            anchor = length - 1 - (n >> 3)
            for step in range((state.prefix_bits + (n & 7) + 7) // 8):
                chunks[:, anchor - step] |= (
                    shifted >> np.uint32(8 * step)
                ).astype(np.uint8)
        return chunks.tobytes()

    def pack_records(self, layout, tags, identifiers, prefixes, bases, deviations):
        """All type-3 rows as one ``(count, 1 + size)`` byte matrix, the
        (rare) type-2 records spliced between the runs."""
        np = _numpy()[0]
        deviation_bits = layout.deviation_bits
        size = layout.t3_padded // 8
        row = 1 + size
        twos = []
        if len(identifiers) < len(tags):
            tags_np = np.frombuffer(tags, dtype=np.uint8)
            twos = np.flatnonzero(tags_np == 2)
            threes = np.flatnonzero(tags_np == 3)
            prefixes2, deviations2 = prefixes[twos].tolist(), deviations[twos].tolist()
            prefixes, deviations = prefixes[threes], deviations[threes]
            twos = twos.tolist()
        values = np.asarray(identifiers, dtype=np.uint64) << np.uint64(deviation_bits)
        values |= deviations
        if layout.prefix_bits:
            values |= prefixes.astype(np.uint64) << np.uint64(
                deviation_bits + layout.identifier_bits
            )
        matrix = np.empty((len(values), row), dtype=np.uint8)
        matrix[:, 0] = 3
        big_endian = values.astype(">u8").view(np.uint8).reshape(-1, 8)
        matrix[:, 1:] = big_endian[:, 8 - size :]
        block = matrix.tobytes()
        parts = []
        consumed = 0
        for rank, position in enumerate(twos):
            preceding = position - rank  # type-3 rows before this type-2
            parts.append(block[consumed * row : preceding * row])
            consumed = preceding
            parts.append(
                pack_type2(layout, prefixes2[rank], bases[position], deviations2[rank])
            )
        parts.append(block[consumed * row :])
        return b"".join(parts)

    def parse_records(self, layout, data, offset, limit=None, streamed=False):
        """:func:`~repro.core.wire.scan_records`, then all fields but the
        type-2 bases in one gather.  The prefix and deviation columns are the
        arrays :meth:`join_batch_to_bytes` reads — unless the batch is one
        ``batch_backend`` keeps from that join: then the loop's lists."""
        rows, bases, next_offset = scan_records(layout, data, offset, limit, streamed)
        np = _numpy()[0]
        size = layout.t3_padded // 8
        matrix = np.frombuffer(rows, dtype=np.uint8).reshape(-1, 1 + size)
        if batch_backend(self, len(matrix), self.supports_records, layout) is not self:
            return parse_records(layout, data, offset, limit, streamed)
        padded = np.zeros((len(matrix), 8), dtype=np.uint8)
        padded[:, 8 - size :] = matrix[:, 1:]
        values = padded.view(">u8")[:, 0].astype(np.uint64)
        fields = []
        for bits in (layout.deviation_bits, layout.identifier_bits, layout.prefix_bits):
            fields.append(values & np.uint64((1 << bits) - 1))
            values >>= np.uint64(bits)
        deviations, keys, prefixes = fields
        keys = keys.tolist()
        for position, basis in zip(np.flatnonzero(matrix[:, 0] == 2).tolist(), bases):
            keys[position] = basis
        tags = bytearray(matrix[:, 0].tobytes())
        return tags, prefixes, keys, deviations, next_offset
