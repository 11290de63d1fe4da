"""Match-action tables with idle timeouts, the workhorse of the data plane.

ZipLine stores its basis ↔ identifier mappings in regular match-action
tables managed by the control plane, and relies on two TNA features the
model reproduces:

* **const entries** — the syndrome → XOR-mask table is generated offline and
  compiled into the program (the paper uses a C++/Boost.CRC generator; the
  reproduction computes the same entries from the Hamming code);
* **per-entry TTL / idle timeout** — the control plane sets a time-to-live
  on each basis-ID entry; entries that are not hit for that long are
  reported, which is how the LRU recycling decides what to evict.

Every table ZipLine builds is exact-match, so that is the only match kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.exceptions import TableError

__all__ = [
    "ActionSpec",
    "TableEntry",
    "MatchResult",
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
    is_const: bool = False
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


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a table lookup."""

    hit: bool
    action: str
    params: Dict[str, Any]
    entry: Optional[TableEntry] = None


class MatchActionTable:
    """A P4 exact-match table with control-plane add/modify/delete.

    Parameters
    ----------
    name:
        Table name (appears in error messages and resource reports).
    key_bits:
        Width of the match key in bits (used only for resource estimation
        and key validation when keys are integers).
    size:
        Maximum number of entries.
    actions:
        The actions entries may reference.
    default_action:
        Action returned on a miss.
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
        self._default_action = default_action
        self._default_params: Dict[str, Any] = {}
        self._entries: Dict[Hashable, TableEntry] = {}
        self.lookups = 0
        self.hits = 0

    # -- introspection ------------------------------------------------------

    @property
    def default_action(self) -> str:
        """Action applied on a miss."""
        return self._default_action

    def __len__(self) -> int:
        return len(self._entries)

    def is_full(self) -> bool:
        """True when no more entries can be added."""
        return len(self) >= self.size

    def entries(self) -> Iterator[TableEntry]:
        """Iterate over entries (copy-safe)."""
        return iter(list(self._entries.values()))

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
        is_const: bool = False,
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
            is_const=is_const,
            installed_at=now,
        )
        return entry

    def add_const_entries(
        self, rows: Iterator[Tuple[Hashable, str, Dict[str, Any]]], now: float = 0.0
    ) -> int:
        """Install compile-time constant entries; returns the count."""
        count = 0
        for key, action, params in rows:
            self.add_entry(key, action, params, now=now, is_const=True)
            count += 1
        return count

    def modify_entry(
        self, key: Hashable, action: str, params: Optional[Dict[str, Any]] = None
    ) -> TableEntry:
        """Replace the action/params of an existing (non-const) entry."""
        entry = self._require_entry(key)
        if entry.is_const:
            raise TableError(f"table {self.name!r}: cannot modify const entry {key!r}")
        spec = self._require_action(action)
        params = params or {}
        spec.validate_params(params)
        entry.action = action
        entry.params = params
        return entry

    def delete_entry(self, key: Hashable) -> None:
        """Remove an entry; const entries cannot be removed."""
        entry = self._require_entry(key)
        if entry.is_const:
            raise TableError(f"table {self.name!r}: cannot delete const entry {key!r}")
        del self._entries[key]

    def expired_entries(self, now: float) -> List[TableEntry]:
        """Entries whose TTL elapsed without a hit (idle-timeout report)."""
        return [entry for entry in self.entries() if entry.is_expired(now)]

    def clear(self) -> None:
        """Remove every entry but the const ones."""
        self._entries = {
            key: entry for key, entry in self._entries.items() if entry.is_const
        }

    # -- data-plane API ------------------------------------------------------------

    def lookup(self, key: Hashable, now: float = 0.0) -> MatchResult:
        """Look up ``key``; updates hit metadata on a hit."""
        self.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            return MatchResult(
                hit=False, action=self._default_action, params=dict(self._default_params)
            )
        self.hits += 1
        entry.last_hit = now
        entry.hit_count += 1
        return MatchResult(hit=True, action=entry.action, params=dict(entry.params), entry=entry)

    def lookup_ref(self, key: Hashable, now: float = 0.0) -> Optional[TableEntry]:
        """Hit-path lookup returning the live entry without copying params.

        Same counter and hit-metadata side effects as :meth:`lookup`, but a
        miss returns ``None`` and a hit returns the :class:`TableEntry`
        itself — callers on the per-packet fast path read
        ``entry.params[...]`` directly and must not mutate it.
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
