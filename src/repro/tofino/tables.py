"""Match-action tables with idle timeouts, the workhorse of the data plane.

ZipLine stores its basis ↔ identifier mappings in regular match-action
tables managed by the control plane, and relies on the TNA **per-entry TTL
/ idle timeout**: the control plane sets a time-to-live on each basis-ID
entry; entries that are not hit for that long are reported, which is how
the LRU recycling decides what to evict.

ZipLine's other table, the syndrome → XOR-mask table, holds const entries
generated offline (the paper uses a C++/Boost.CRC generator).  The compiled
program reads those entries as the Hamming code's
:attr:`~repro.core.hamming.HammingCode.error_masks`, so no
:class:`MatchActionTable` holds a const entry; the program accounts the
syndrome table only as its resource row.

Every table ZipLine builds is exact-match, so that is the only match kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.exceptions import TableError

__all__ = [
    "ActionSpec",
    "TableEntry",
    "MatchActionTable",
]


@dataclass(frozen=True)
class ActionSpec:
    """An action a table can invoke: a name plus the expected parameter names."""

    name: str
    parameter_names: Tuple[str, ...] = ()

    def validate_params(self, params: Dict[str, Any]) -> None:
        """Check that the provided parameters match the declared names."""
        expected = set(self.parameter_names)
        provided = set(params)
        if expected != provided:
            raise TableError(
                f"action {self.name!r} expects parameters {sorted(expected)}, "
                f"got {sorted(provided)}"
            )


@dataclass
class TableEntry:
    """One table entry: key, action, parameters, and liveness metadata."""

    key: Hashable
    action: str
    params: Dict[str, Any] = field(default_factory=dict)
    ttl: Optional[float] = None
    installed_at: float = 0.0
    last_hit: Optional[float] = None
    hit_count: int = 0

    def idle_since(self, now: float) -> float:
        """Seconds since the entry was last hit (or installed, if never hit)."""
        reference = self.last_hit if self.last_hit is not None else self.installed_at
        return max(0.0, now - reference)

    def is_expired(self, now: float) -> bool:
        """True when the entry's TTL has elapsed without a hit."""
        if self.ttl is None:
            return False
        return self.idle_since(now) >= self.ttl


class MatchActionTable:
    """A P4 exact-match table with control-plane add/modify/delete.

    Parameters
    ----------
    name:
        Table name (appears in error messages and resource reports).
    key_bits:
        Width of the match key in bits, for resource estimation.  The table
        does not check keys against it: the ZipLine programs validate every
        key they install with ``ZipLineSwitchBase._check_field``.
    size:
        Maximum number of entries.
    actions:
        The actions entries may reference.
    default_action:
        The action the program applies on a miss.
    support_idle_timeout:
        Whether entries may carry TTLs (TNA requires declaring this).
    """

    def __init__(
        self,
        name: str,
        key_bits: int,
        size: int,
        actions: List[ActionSpec],
        default_action: str = "NoAction",
        support_idle_timeout: bool = False,
    ):
        if size <= 0:
            raise TableError(f"table {name!r}: size must be positive, got {size}")
        if key_bits <= 0:
            raise TableError(f"table {name!r}: key width must be positive")
        self.name = name
        self.key_bits = key_bits
        self.size = size
        self.support_idle_timeout = support_idle_timeout
        self._actions: Dict[str, ActionSpec] = {spec.name: spec for spec in actions}
        if "NoAction" not in self._actions:
            self._actions["NoAction"] = ActionSpec("NoAction")
        if default_action not in self._actions:
            raise TableError(
                f"table {name!r}: default action {default_action!r} is not declared"
            )
        #: Action applied on a miss.
        self.default_action = default_action
        self._entries: Dict[Hashable, TableEntry] = {}
        self.lookups = 0
        self.hits = 0

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def is_full(self) -> bool:
        """True when no more entries can be added."""
        return len(self) >= self.size

    def entries(self) -> Iterator[TableEntry]:
        """Iterate over entries (copy-safe)."""
        return iter(list(self._entries.values()))

    def entry_map(self) -> Dict[Hashable, TableEntry]:
        """The key → entry map itself, for a data path that looks up a
        list of keys with no write in between: it counts those lookups in
        :attr:`lookups` and :attr:`hits` and sets a hit entry's
        ``last_hit`` and ``hit_count`` as :meth:`lookup_ref` does."""
        return self._entries

    def get_entry(self, key: Hashable) -> Optional[TableEntry]:
        """The entry for ``key``, or ``None``."""
        return self._entries.get(key)

    # -- control-plane API -----------------------------------------------------

    def add_entry(
        self,
        key: Hashable,
        action: str,
        params: Optional[Dict[str, Any]] = None,
        ttl: Optional[float] = None,
        now: float = 0.0,
    ) -> TableEntry:
        """Install an entry; raises if the table is full or the key exists."""
        spec = self._require_action(action)
        params = params or {}
        spec.validate_params(params)
        if ttl is not None and not self.support_idle_timeout:
            raise TableError(
                f"table {self.name!r} was not declared with idle-timeout support"
            )
        if self.is_full():
            raise TableError(f"table {self.name!r} is full ({self.size} entries)")
        if key in self._entries:
            raise TableError(f"table {self.name!r}: key {key!r} already present")
        entry = self._entries[key] = TableEntry(
            key=key,
            action=action,
            params=params,
            ttl=ttl,
            installed_at=now,
        )
        return entry

    def modify_entry(
        self, key: Hashable, action: str, params: Optional[Dict[str, Any]] = None
    ) -> TableEntry:
        """Replace the action/params of an existing entry."""
        entry = self._require_entry(key)
        spec = self._require_action(action)
        params = params or {}
        spec.validate_params(params)
        entry.action = action
        entry.params = params
        return entry

    def delete_entry(self, key: Hashable) -> None:
        """Remove an entry."""
        self._require_entry(key)
        del self._entries[key]

    def expired_entries(self, now: float) -> List[TableEntry]:
        """Entries whose TTL elapsed without a hit (idle-timeout report)."""
        return [entry for entry in self.entries() if entry.is_expired(now)]

    def clear(self) -> None:
        """Remove every entry."""
        self._entries = {}

    # -- data-plane API ------------------------------------------------------------

    def lookup_ref(self, key: Hashable, now: float = 0.0) -> Optional[TableEntry]:
        """Look up ``key``: the live entry on a hit, ``None`` on a miss.

        Counts the lookup and, on a hit, updates the entry's hit metadata
        (``last_hit = now``, ``hit_count``).  Callers on the per-packet path
        read ``entry.params[...]`` directly and must not mutate it.
        """
        self.lookups += 1
        # Read the dictionary per call: ``clear`` rebinds it.
        entry = self._entries.get(key)
        if entry is None:
            return None
        self.hits += 1
        entry.last_hit = now
        entry.hit_count += 1
        return entry

    # -- internals --------------------------------------------------------------------

    def _require_action(self, action: str) -> ActionSpec:
        try:
            return self._actions[action]
        except KeyError:
            raise TableError(
                f"table {self.name!r}: action {action!r} is not declared"
            ) from None

    def _require_entry(self, key: Hashable) -> TableEntry:
        try:
            return self._entries[key]
        except KeyError:
            raise TableError(f"table {self.name!r}: no entry with key {key!r}") from None
