"""Basis dictionary: the bounded basis ↔ identifier mapping at the heart of GD.

ZipLine replaces a (prefix, basis) pair that has been seen before with a
short identifier of ``t`` bits, so at most ``2**t`` bases can be cached
(32,768 for the paper's ``t = 15``).  When the identifier pool is exhausted
the least recently used entry is recycled (Section 5 of the paper).

The same data structure is used in three places:

* inside :class:`~repro.core.codec.GDCodec` for the pure-software codec;
* by the control plane: :class:`repro.controlplane.idpool.IdentifierPool`
  is this class under the control plane's names, the authoritative copy of
  the mapping it pushes into the switches' match-action tables;
* by the registry's ``dedup`` codec
  (:class:`~repro.core.engine.DedupStreamCompressor`: classic
  deduplication, with the raw chunk as key).

Eviction policies other than LRU (FIFO, random) are provided for the
ablation study called out in DESIGN.md.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.bits import int_to_bytes
from repro.exceptions import CodingError, DictionaryError

__all__ = [
    "EvictionPolicy",
    "DictionaryStats",
    "BasisDictionary",
    "encode_snapshot_key",
    "decode_snapshot_key",
]

#: Sentinel marking an empty hot-entry cache (``None`` is a legal key).
_NO_HOT = object()

#: What :meth:`BasisDictionary.snapshot_state` writes; anything else (the
#: ``free`` / ``bound`` of the identifier pool's retired format, say) is
#: rejected by name rather than ignored.  Only the ``random`` policy adds
#: ``rng``, the position of its generator.
_SNAPSHOT_KEYS = frozenset(
    ("capacity", "policy", "entries", "freed_ids", "next_unused_id", "stats")
)
_RANDOM_SNAPSHOT_KEYS = _SNAPSHOT_KEYS | {"rng"}


def encode_snapshot_key(key: Hashable) -> object:
    """Encode a dictionary key into a canonical JSON-serialisable form.

    Plain integers, the ``dedup`` codec's bytes keys and the control
    plane's ``(prefix, basis)`` tuples all round-trip; tuples and bytes are
    wrapped in single-key marker objects because JSON has no native
    encoding for them.  (The GD pipeline's basis rows are bytes, but its
    snapshots write each as its ``int``: :func:`row_keyed_snapshot`.)
    """
    if key is None or isinstance(key, (bool, int, float, str)):
        return key
    if isinstance(key, bytes):
        return {"__bytes__": key.hex()}
    if isinstance(key, tuple):
        return {"__tuple__": [encode_snapshot_key(item) for item in key]}
    raise DictionaryError(
        f"cannot snapshot dictionary key of type {type(key).__name__!r}"
    )


def decode_snapshot_key(value: object) -> Hashable:
    """Invert :func:`encode_snapshot_key` (lists decode back to tuples)."""
    if isinstance(value, dict):
        if "__bytes__" in value:
            return bytes.fromhex(value["__bytes__"])
        if "__tuple__" in value:
            return tuple(decode_snapshot_key(item) for item in value["__tuple__"])
        raise DictionaryError(f"unrecognised snapshot key encoding {value!r}")
    if isinstance(value, list):
        return tuple(decode_snapshot_key(item) for item in value)
    return value


def row_keyed_snapshot(dictionary: "BasisDictionary") -> Dict[str, object]:
    """The snapshot of a dictionary keyed by basis rows, each written as its int."""
    state = dictionary.snapshot_state()
    state["entries"] = [[int.from_bytes(row, "big"), i] for row, i in dictionary.items()]
    return state


def restore_row_keyed(dictionary: "BasisDictionary", state, bits: int) -> None:
    """Invert :func:`row_keyed_snapshot`, refusing a basis wider than ``bits``."""
    try:
        entries = [[int_to_bytes(basis, bits), i] for basis, i in state["entries"]]
    except (KeyError, TypeError, ValueError, CodingError) as error:
        raise DictionaryError(f"malformed dictionary snapshot: {error!r}") from None
    dictionary.restore_state({**state, "entries": entries})


class EvictionPolicy(Enum):
    """Replacement policy applied when the identifier pool is exhausted."""

    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"

    @classmethod
    def from_name(cls, name: "str | EvictionPolicy") -> "EvictionPolicy":
        """Parse a policy from its name (case-insensitive) or pass through."""
        if isinstance(name, EvictionPolicy):
            return name
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(policy.value for policy in cls)
            raise DictionaryError(
                f"unknown eviction policy {name!r}; valid policies: {valid}"
            ) from None


@dataclass
class DictionaryStats:
    """Counters describing dictionary behaviour during a run."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_insertions: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that found an existing mapping."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the reporting helpers."""
        return {**asdict(self), "hit_ratio": self.hit_ratio}


class BasisDictionary:
    """Bounded, bidirectional mapping between bases and short identifiers.

    Identifiers are integers in ``[0, capacity)``, handed out by the paper's
    control-plane rule (Section 5; :meth:`_allocate_identifier` is its one
    statement): an unused identifier while there is one, otherwise the
    entry the eviction policy picks is recycled.

    Keys can be any hashable value; ZipLine uses ``(prefix, basis)`` tuples.

    The ``random`` eviction policy draws from a private
    :class:`random.Random` instance seeded with ``seed`` — never from the
    module-global RNG — so ablation runs are reproducible end to end when
    callers inject a seed (see ``GDCodec(eviction_seed=...)`` and
    ``DedupStreamCompressor(eviction_seed=...)``) and two dictionaries given
    the same seed and call sequence evict identically.
    """

    def __init__(
        self,
        capacity: int,
        policy: "str | EvictionPolicy" = EvictionPolicy.LRU,
        seed: Optional[int] = None,
    ):
        if capacity <= 0:
            raise DictionaryError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._policy = EvictionPolicy.from_name(policy)
        self._random = random.Random(seed)
        # key -> identifier, maintained in recency order (oldest first) for
        # LRU, insertion order for FIFO.
        self._key_to_id: "OrderedDict[Hashable, int]" = OrderedDict()
        self._id_to_key: Dict[int, Hashable] = {}
        # Identifier allocation is lazy: never-used identifiers are handed
        # out in increasing order from a counter, and explicitly removed
        # ones queue up in release order.  Memory therefore scales
        # with the entries actually mapped, not with the capacity — a
        # dictionary sized from an untrusted container header must not
        # allocate ``capacity`` list slots up front.
        self._freed_ids: "OrderedDict[int, None]" = OrderedDict()
        self._next_unused_id = 0
        # Hot-entry cache: the key whose recency metadata is already
        # up to date (the most recently looked-up/inserted/touched key).
        # Bursty traces hit the same basis many times in a row; the cache
        # turns those repeat hits into one equality check — no OrderedDict
        # probe, no move_to_end.  Invalidated whenever the entry could be
        # displaced (eviction, removal, external install, clear).
        self._hot_key: Hashable = _NO_HOT
        self._hot_id: int = -1
        self.stats = DictionaryStats()

    # -- introspection -----------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneously mapped bases."""
        return self._capacity

    @property
    def policy(self) -> EvictionPolicy:
        """Configured eviction policy."""
        return self._policy

    def __len__(self) -> int:
        return len(self._key_to_id)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._key_to_id

    def is_full(self) -> bool:
        """True when every identifier is currently assigned."""
        return len(self._key_to_id) >= self._capacity

    def keys(self) -> Iterator[Hashable]:
        """Iterate over currently mapped keys (no recency side effects)."""
        return iter(list(self._key_to_id.keys()))

    def items(self) -> Iterator[Tuple[Hashable, int]]:
        """Iterate over (key, identifier) pairs (no recency side effects)."""
        return iter(list(self._key_to_id.items()))

    def identifier_width(self) -> int:
        """Number of bits needed to represent any identifier."""
        return max((self._capacity - 1).bit_length(), 1)

    # -- lookups -------------------------------------------------------------

    def lookup(self, key: Hashable, touch: bool = True) -> Optional[int]:
        """Identifier for ``key`` or ``None``; optionally refresh recency.

        Repeat lookups of the hottest entry short-circuit through the
        hot-entry cache: the common dedup hit of a bursty trace costs one
        equality check instead of a dict probe plus a recency update.
        """
        stats = self.stats
        stats.lookups += 1
        if key == self._hot_key:
            # The hot key's recency is up to date by construction, so both
            # the touching and the non-touching variants are satisfied.
            stats.hits += 1
            return self._hot_id
        identifier = self._key_to_id.get(key)
        if identifier is None:
            stats.misses += 1
            return None
        stats.hits += 1
        if self._policy is EvictionPolicy.LRU:
            if touch:
                self._key_to_id.move_to_end(key)
                self._hot_key = key
                self._hot_id = identifier
        else:
            # FIFO/random lookups have no recency side effect, so the hot
            # cache is unconditionally safe to arm.
            self._hot_key = key
            self._hot_id = identifier
        return identifier

    def peek(self, key: Hashable) -> Optional[int]:
        """Identifier for ``key`` without updating recency or counters."""
        return self._key_to_id.get(key)

    def touch(self, key: Hashable) -> bool:
        """Refresh the recency of ``key`` without counting a lookup.

        Returns ``True`` when the key exists.  Used by the decoder side to
        keep its recency order in lock-step with the encoder so that both
        dictionaries make identical eviction decisions.
        """
        if key == self._hot_key:
            return True
        identifier = self._key_to_id.get(key)
        if identifier is None:
            return False
        if self._policy is EvictionPolicy.LRU:
            self._key_to_id.move_to_end(key)
            self._hot_key = key
            self._hot_id = identifier
        return True

    def reverse_lookup(self, identifier: int) -> Optional[Hashable]:
        """Key currently mapped to ``identifier``, or ``None``."""
        self._check_identifier(identifier)
        return self._id_to_key.get(identifier)

    def _check_identifier(self, identifier: int) -> None:
        if not 0 <= identifier < self._capacity:
            raise DictionaryError(
                f"identifier {identifier} out of range [0, {self._capacity})"
            )

    # -- batch verbs -----------------------------------------------------------
    #
    # Both verbs keep the hot entry in locals while they loop.  ``insert``
    # reads and replaces it (``_evict`` may invalidate it), so it is written
    # back before and re-read after every call, and written back on every
    # way out — return, early return, exception.

    def probe_batch(
        self, keys: Iterable[Hashable], learn: bool
    ) -> Tuple[List[int], List[Tuple[int, Optional[int], Optional[Hashable]]]]:
        """Look every key up in order, inserting on a miss when ``learn``.

        The encode direction's whole dictionary stage in one call: state
        and counters end up exactly as after ``lookup(key)``, then
        ``insert(key)`` on a learning miss, for every key in turn.  Returns
        ``(identifiers, misses)``: the hit identifiers in key order, and one
        ``(position, learned_identifier, evicted_key)`` per miss
        (``learned_identifier`` is ``None`` when nothing was learned).
        """
        get = self._key_to_id.get
        move_to_end = self._key_to_id.move_to_end
        lru = self._policy is EvictionPolicy.LRU
        hot_key, hot_id = self._hot_key, self._hot_id
        identifiers: List[int] = []
        hit = identifiers.append
        misses = []
        try:
            for key in keys:
                if key == hot_key:
                    hit(hot_id)
                    continue
                identifier = get(key)
                if identifier is not None:
                    if lru:
                        move_to_end(key)
                    hot_key, hot_id = key, identifier
                    hit(identifier)
                    continue
                learned = (None, None)
                if learn:
                    self._hot_key, self._hot_id = hot_key, hot_id
                    learned = self.insert(key)
                    hot_key, hot_id = self._hot_key, self._hot_id
                misses.append((len(identifiers) + len(misses), *learned))
        finally:
            self._hot_key, self._hot_id = hot_key, hot_id
            stats = self.stats
            stats.lookups += len(identifiers) + len(misses)
            stats.hits += len(identifiers)
            stats.misses += len(misses)
        return identifiers, misses

    def resolve_batch(
        self, tags: bytes, keys: Sequence[Hashable], learn: bool, out: List[Hashable]
    ) -> Tuple[List[Tuple[int, int, Optional[Hashable]]], Optional[int]]:
        """Resolve a batch of decoder records in order.

        The decode direction's whole dictionary stage in one call.
        ``tags[i]`` is the record type of position ``i``: for a type-3
        record ``keys[i]`` is an identifier, resolved into ``out[i]`` and,
        when ``learn``, touched (this dictionary's recency order stays in
        lock-step with the encoder's); for a type-2 record ``keys[i]`` is a
        key, inserted when ``learn``; any other tag is skipped.  State ends
        up exactly as after ``reverse_lookup`` + ``touch`` / ``insert`` on
        every record in turn.

        Returns ``(learned, unmapped)``: one ``(position,
        learned_identifier, evicted_key)`` per inserted key, and the
        position of the first identifier that maps to nothing — where the
        batch stopped, the records before it applied — or ``None``.  An
        identifier outside ``[0, capacity)`` raises
        :class:`~repro.exceptions.DictionaryError` at the same point.
        """
        resolve = self._id_to_key.get
        move_to_end = self._key_to_id.move_to_end
        touching = learn and self._policy is EvictionPolicy.LRU
        hot_key, hot_id = self._hot_key, self._hot_id
        learned = []
        try:
            for position, tag in enumerate(tags):
                if tag == 3:
                    identifier = keys[position]
                    key = resolve(identifier)
                    if key is None:
                        # Only identifiers in range are ever mapped, so the
                        # range check can wait for the failure path.
                        self._check_identifier(identifier)
                        return learned, position
                    if touching and key != hot_key:
                        # touch(): both maps hold every entry, so the key is
                        # there to move and sits under this identifier.
                        move_to_end(key)
                        hot_key, hot_id = key, identifier
                    out[position] = key
                elif tag == 2 and learn:
                    self._hot_key, self._hot_id = hot_key, hot_id
                    learned.append((position, *self.insert(keys[position])))
                    hot_key, hot_id = self._hot_key, self._hot_id
        finally:
            self._hot_key, self._hot_id = hot_key, hot_id
        return learned, None

    # -- insertion / eviction --------------------------------------------------

    def insert(self, key: Hashable) -> Tuple[int, Optional[Hashable]]:
        """Map ``key`` to an identifier, evicting if necessary.

        Returns ``(identifier, evicted_key)`` where ``evicted_key`` is
        ``None`` unless an existing mapping had to be recycled.  Inserting a
        key that is already mapped refreshes its recency and returns the
        existing identifier.
        """
        existing = self._key_to_id.get(key)
        if existing is not None:
            self.stats.rejected_insertions += 1
            if self._policy is EvictionPolicy.LRU:
                self._key_to_id.move_to_end(key)
                self._hot_key = key
                self._hot_id = existing
            return existing, None

        evicted_key: Optional[Hashable] = None
        identifier = self._allocate_identifier()
        if identifier is None:
            evicted_key, identifier = self._evict()
        self._key_to_id[key] = identifier
        self._id_to_key[identifier] = key
        self._hot_key = key
        self._hot_id = identifier
        self.stats.insertions += 1
        return identifier, evicted_key

    def _allocate_identifier(self) -> Optional[int]:
        """Next free identifier, or ``None`` when the pool is exhausted.

        The paper's rule: "when there are unused identifiers, the control
        plane selects the least recently used one".  Never-used identifiers
        come first, in increasing order from the counter; then released
        ones, oldest release first.  The counter skips identifiers that
        were installed externally (:meth:`insert_with_identifier`), mapped
        or since released — those have been used.
        """
        while self._next_unused_id < self._capacity:
            identifier = self._next_unused_id
            self._next_unused_id += 1
            if identifier not in self._id_to_key and identifier not in self._freed_ids:
                return identifier
        if self._freed_ids:
            return self._freed_ids.popitem(last=False)[0]
        return None

    def insert_with_identifier(self, key: Hashable, identifier: int) -> None:
        """Install an externally chosen mapping (used by the decoder side).

        The decompressing switch receives (identifier, basis) pairs chosen by
        the control plane; it must accept them verbatim, displacing whatever
        the identifier previously pointed at.
        """
        self._check_identifier(identifier)
        if key in self._key_to_id and self._key_to_id[key] != identifier:
            raise DictionaryError(
                f"key {key!r} is already mapped to identifier "
                f"{self._key_to_id[key]}, cannot remap to {identifier}"
            )
        previous_key = self._id_to_key.get(identifier)
        if previous_key is not None and previous_key != key:
            del self._key_to_id[previous_key]
            if previous_key == self._hot_key:
                self._hot_key = _NO_HOT
            self.stats.evictions += 1
        self._freed_ids.pop(identifier, None)
        is_new_key = key not in self._key_to_id
        self._key_to_id[key] = identifier
        self._id_to_key[identifier] = key
        if is_new_key:
            # The freshly appended key is now the most recent entry, so the
            # previous hot key is no longer MRU — arm the cache on the new
            # key instead (an existing key keeps its position, so the cache
            # stays valid as-is).
            self._hot_key = key
            self._hot_id = identifier
        self.stats.insertions += 1

    def _evict(self) -> Tuple[Hashable, int]:
        """Remove one entry according to the configured policy."""
        if not self._key_to_id:
            raise DictionaryError("cannot evict from an empty dictionary")
        if self._policy in (EvictionPolicy.LRU, EvictionPolicy.FIFO):
            key, identifier = next(iter(self._key_to_id.items()))
        else:
            key = self._random.choice(list(self._key_to_id.keys()))
            identifier = self._key_to_id[key]
        del self._key_to_id[key]
        del self._id_to_key[identifier]
        if key == self._hot_key:
            self._hot_key = _NO_HOT
        self.stats.evictions += 1
        return key, identifier

    def remove(self, key: Hashable) -> Optional[int]:
        """Remove ``key`` explicitly; returns its identifier or ``None``."""
        identifier = self._key_to_id.pop(key, None)
        if identifier is None:
            return None
        del self._id_to_key[identifier]
        if key == self._hot_key:
            self._hot_key = _NO_HOT
        self._freed_ids[identifier] = None
        return identifier

    def clear(self) -> None:
        """Forget every mapping and return all identifiers to the pool."""
        self._key_to_id.clear()
        self._id_to_key.clear()
        self._freed_ids.clear()
        self._next_unused_id = 0
        self._hot_key = _NO_HOT

    # -- bulk helpers -----------------------------------------------------------

    def preload(self, keys: Iterator[Hashable]) -> int:
        """Insert keys up front (the paper's *static table* scenario).

        Returns the number of distinct keys actually mapped.  Raises
        :class:`DictionaryError` if the distinct keys exceed the capacity —
        a static table cannot silently drop mappings.
        """
        distinct = list(dict.fromkeys(keys))
        if len(distinct) > self._capacity:
            raise DictionaryError(
                f"static preload of {len(distinct)} bases exceeds the dictionary "
                f"capacity of {self._capacity}"
            )
        for key in distinct:
            self.insert(key)
        return len(distinct)

    def snapshot(self) -> Dict[Hashable, int]:
        """A plain-dict copy of the current mapping (for tests/telemetry)."""
        return dict(self._key_to_id)

    # -- snapshot / restore ------------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Canonical, JSON-serialisable snapshot of the complete state.

        Entries are emitted in recency order (oldest first), so restoring
        reproduces not just the mapping but every future eviction decision.
        The identifier allocator (freed list, never-used counter), the
        counters and, under the ``random`` policy, its generator's position
        (``rng``) are included; the hot-entry cache is derived state and is
        rebuilt cold on restore, which has no observable effect beyond the
        first lookup taking the slow path.
        """
        state = {
            "capacity": self._capacity,
            "policy": self._policy.value,
            "entries": [
                [encode_snapshot_key(key), identifier]
                for key, identifier in self._key_to_id.items()
            ],
            "freed_ids": list(self._freed_ids),
            "next_unused_id": self._next_unused_id,
            "stats": asdict(self.stats),
        }
        if self._policy is EvictionPolicy.RANDOM:
            version, internal, gauss_next = self._random.getstate()
            state["rng"] = [version, list(internal), gauss_next]
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Replace this dictionary's state with a snapshot's.

        The snapshot must come from a dictionary with the same capacity and
        eviction policy — restoring across configurations would silently
        change eviction behaviour, so it is rejected instead.  A snapshot is
        outside input: whatever is wrong with it is a
        :class:`~repro.exceptions.DictionaryError` and leaves this
        dictionary as it was.
        """
        if not isinstance(state, dict):
            raise DictionaryError(f"a snapshot is a mapping, got {type(state).__name__}")
        random_policy = self._policy is EvictionPolicy.RANDOM
        known = _RANDOM_SNAPSHOT_KEYS if random_policy else _SNAPSHOT_KEYS
        unknown = sorted(map(str, state.keys() - known))
        if unknown:
            raise DictionaryError(f"snapshot has unknown keys {unknown}")
        if state.get("capacity") != self._capacity:
            raise DictionaryError(
                f"snapshot capacity {state.get('capacity')} does not match "
                f"dictionary capacity {self._capacity}"
            )
        if state.get("policy") != self._policy.value:
            raise DictionaryError(
                f"snapshot policy {state.get('policy')!r} does not match "
                f"dictionary policy {self._policy.value!r}"
            )
        try:
            entries = [
                (decode_snapshot_key(encoded_key), identifier)
                for encoded_key, identifier in state["entries"]
            ]
            key_to_id = OrderedDict(entries)
            identifiers = [identifier for _key, identifier in entries]
            identifiers += state["freed_ids"]
            next_unused_id = state["next_unused_id"]
            stats = DictionaryStats(**state.get("stats", {}))
            numbers = [*identifiers, next_unused_id, *asdict(stats).values()]
            if not all(type(number) is int and number >= 0 for number in numbers):
                raise ValueError("identifiers and counters must be integers >= 0")
            generator = _restored_generator(state["rng"]) if random_policy else None
        except (KeyError, TypeError, ValueError) as error:
            raise DictionaryError(f"malformed dictionary snapshot: {error!r}") from None
        # Every other method keeps the two maps a bijection
        # (:meth:`resolve_batch` moves a resolved key without probing for
        # it) and an identifier either mapped or free, never both.
        if len(key_to_id) != len(entries) or len(set(identifiers)) != len(identifiers):
            raise DictionaryError(
                "snapshot repeats a key, or maps or frees an identifier twice"
            )
        if max([next_unused_id - 1, *identifiers]) >= self._capacity:
            raise DictionaryError(
                f"snapshot names an identifier outside [0, {self._capacity})"
            )
        self._key_to_id = key_to_id
        self._id_to_key = {identifier: key for key, identifier in entries}
        self._freed_ids = OrderedDict.fromkeys(state["freed_ids"])
        self._next_unused_id = next_unused_id
        self._hot_key = _NO_HOT
        self._hot_id = -1
        self.stats = stats
        if generator is not None:
            self._random = generator


def _restored_generator(state: object) -> random.Random:
    """The ``random`` policy's generator at a snapshot's ``rng`` position.

    ``state`` is :meth:`random.Random.getstate` as a JSON list; whatever
    :meth:`random.Random.setstate` would refuse, or store and fail on
    later (a non-integer word, a string ``gauss_next``), raises here.
    """
    version, internal, gauss_next = state
    if not all(type(word) is int and 0 <= word < 1 << 32 for word in internal):
        raise ValueError("rng words must be integers in [0, 2**32)")
    if gauss_next is not None and type(gauss_next) is not float:
        raise ValueError("rng gauss_next must be null or a float")
    generator = random.Random()
    generator.setstate((version, tuple(internal), gauss_next))
    return generator
