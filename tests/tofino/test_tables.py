"""Tests for match-action tables."""

import pytest

from repro.exceptions import TableError
from repro.tofino.tables import ActionSpec, MatchActionTable


def make_table(size=8, idle_timeout=False):
    return MatchActionTable(
        name="basis_to_id",
        key_bits=16,
        size=size,
        actions=[ActionSpec("set_identifier", ("identifier",)), ActionSpec("learn")],
        default_action="learn",
        support_idle_timeout=idle_timeout,
    )


class TestControlPlaneApi:
    def test_add_and_lookup(self):
        table = make_table()
        table.add_entry(0xAB, "set_identifier", {"identifier": 7})
        entry = table.lookup_ref(0xAB)
        assert entry is table.get_entry(0xAB)
        assert entry.action == "set_identifier"
        assert entry.params == {"identifier": 7}
        assert len(table) == 1

    def test_a_miss_returns_none(self):
        table = make_table()
        assert table.lookup_ref(0x01) is None
        assert table.default_action == "learn"
        assert (table.lookups, table.hits) == (1, 0)

    def test_duplicate_key_rejected(self):
        table = make_table()
        table.add_entry(1, "learn")
        with pytest.raises(TableError):
            table.add_entry(1, "learn")

    def test_unknown_action_rejected(self):
        table = make_table()
        with pytest.raises(TableError):
            table.add_entry(1, "drop")
        with pytest.raises(TableError):
            MatchActionTable("t", 8, 4, [ActionSpec("a")], default_action="missing")

    def test_wrong_action_params_rejected(self):
        table = make_table()
        with pytest.raises(TableError):
            table.add_entry(1, "set_identifier", {"wrong": 1})
        with pytest.raises(TableError):
            table.add_entry(1, "set_identifier", {})

    def test_capacity_enforced(self):
        table = make_table(size=2)
        table.add_entry(1, "learn")
        table.add_entry(2, "learn")
        assert table.is_full()
        with pytest.raises(TableError):
            table.add_entry(3, "learn")

    def test_modify_and_delete(self):
        table = make_table()
        table.add_entry(1, "set_identifier", {"identifier": 1})
        table.modify_entry(1, "set_identifier", {"identifier": 2})
        assert table.lookup_ref(1).params["identifier"] == 2
        table.delete_entry(1)
        assert table.lookup_ref(1) is None
        with pytest.raises(TableError):
            table.delete_entry(1)

    def test_the_hit_path_sees_what_clear_left(self):
        """``clear`` rebinds the entry dictionary; ``lookup_ref`` reads it
        per call, so a cleared entry misses and a later one hits."""
        table = make_table()
        table.add_entry(6, "set_identifier", {"identifier": 1})
        assert table.lookup_ref(6) is not None
        table.clear()
        assert len(table) == 0
        assert table.lookup_ref(6) is None
        table.add_entry(5, "set_identifier", {"identifier": 9})
        assert table.lookup_ref(5).params == {"identifier": 9}
        assert (table.lookups, table.hits) == (3, 2)

    def test_invalid_construction(self):
        with pytest.raises(TableError):
            MatchActionTable("t", 8, 0, [ActionSpec("a")], default_action="a")
        with pytest.raises(TableError):
            MatchActionTable("t", 0, 4, [ActionSpec("a")], default_action="a")


class TestIdleTimeout:
    def test_ttl_requires_declaration(self):
        table = make_table(idle_timeout=False)
        with pytest.raises(TableError):
            table.add_entry(1, "learn", ttl=1.0)

    def test_expiry_reported_after_idle_period(self):
        table = make_table(idle_timeout=True)
        table.add_entry(1, "learn", ttl=1.0, now=0.0)
        assert table.expired_entries(now=0.5) == []
        expired = table.expired_entries(now=1.5)
        assert [entry.key for entry in expired] == [1]

    def test_hit_refreshes_idle_timer(self):
        table = make_table(idle_timeout=True)
        table.add_entry(1, "learn", ttl=1.0, now=0.0)
        table.lookup_ref(1, now=0.9)
        assert table.expired_entries(now=1.5) == []
        assert table.expired_entries(now=2.0) != []

    def test_entries_without_ttl_never_expire(self):
        table = make_table(idle_timeout=True)
        table.add_entry(1, "learn", now=0.0)
        assert table.expired_entries(now=1e9) == []

    def test_hit_statistics(self):
        table = make_table()
        table.add_entry(1, "learn")
        table.lookup_ref(1)
        table.lookup_ref(1, now=0.5)
        table.lookup_ref(2)
        assert table.lookups == 3
        assert table.hits == 2
        assert table.get_entry(1).hit_count == 2
        assert table.get_entry(1).last_hit == 0.5
