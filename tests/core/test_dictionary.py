"""Tests for the bounded basis dictionary."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dictionary import BasisDictionary, EvictionPolicy
from repro.exceptions import DictionaryError

from gd_oracle import probe_loop, resolve_loop


class TestBasicMapping:
    def test_insert_assigns_sequential_identifiers(self):
        dictionary = BasisDictionary(8)
        assert dictionary.insert("a") == (0, None)
        assert dictionary.insert("b") == (1, None)
        assert dictionary.insert("c") == (2, None)
        assert len(dictionary) == 3

    def test_lookup_and_reverse_lookup(self):
        dictionary = BasisDictionary(8)
        dictionary.insert("a")
        assert dictionary.lookup("a") == 0
        assert dictionary.reverse_lookup(0) == "a"
        assert dictionary.lookup("missing") is None
        assert dictionary.reverse_lookup(5) is None

    def test_reverse_lookup_bounds(self):
        dictionary = BasisDictionary(8)
        with pytest.raises(DictionaryError):
            dictionary.reverse_lookup(8)

    def test_contains_and_peek(self):
        dictionary = BasisDictionary(4)
        dictionary.insert("x")
        assert "x" in dictionary
        assert "y" not in dictionary
        assert dictionary.peek("x") == 0
        # peek must not count as a lookup
        assert dictionary.stats.lookups == 0

    def test_duplicate_insert_returns_existing_identifier(self):
        dictionary = BasisDictionary(4)
        first, _ = dictionary.insert("x")
        second, evicted = dictionary.insert("x")
        assert first == second
        assert evicted is None
        assert dictionary.stats.rejected_insertions == 1

    def test_identifier_width(self):
        assert BasisDictionary(2).identifier_width() == 1
        assert BasisDictionary(32768).identifier_width() == 15
        assert BasisDictionary(1).identifier_width() == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(DictionaryError):
            BasisDictionary(0)

    def test_remove_returns_identifier_to_pool(self):
        dictionary = BasisDictionary(2)
        dictionary.insert("a")
        dictionary.insert("b")
        assert dictionary.is_full()
        assert dictionary.remove("a") == 0
        assert not dictionary.is_full()
        identifier, evicted = dictionary.insert("c")
        assert identifier == 0
        assert evicted is None

    def test_remove_missing_key(self):
        dictionary = BasisDictionary(2)
        assert dictionary.remove("nope") is None

    def test_clear(self):
        dictionary = BasisDictionary(4)
        dictionary.insert("a")
        dictionary.clear()
        assert len(dictionary) == 0
        assert dictionary.insert("b") == (0, None)


class TestEvictionPolicies:
    def test_lru_evicts_least_recently_used(self):
        dictionary = BasisDictionary(2, policy="lru")
        dictionary.insert("a")
        dictionary.insert("b")
        dictionary.lookup("a")  # refresh "a", so "b" becomes the LRU entry
        identifier, evicted = dictionary.insert("c")
        assert evicted == "b"
        assert dictionary.reverse_lookup(identifier) == "c"
        assert "a" in dictionary

    def test_fifo_ignores_lookups(self):
        dictionary = BasisDictionary(2, policy="fifo")
        dictionary.insert("a")
        dictionary.insert("b")
        dictionary.lookup("a")
        _, evicted = dictionary.insert("c")
        assert evicted == "a"

    def test_random_eviction_is_deterministic_with_seed(self):
        first = BasisDictionary(2, policy="random", seed=1)
        second = BasisDictionary(2, policy="random", seed=1)
        for dictionary in (first, second):
            dictionary.insert("a")
            dictionary.insert("b")
        assert first.insert("c")[1] == second.insert("c")[1]

    def test_unknown_policy_rejected(self):
        with pytest.raises(DictionaryError):
            BasisDictionary(4, policy="mru")

    def test_policy_from_instance(self):
        assert EvictionPolicy.from_name(EvictionPolicy.FIFO) is EvictionPolicy.FIFO

    def test_eviction_counts(self):
        dictionary = BasisDictionary(2)
        dictionary.insert("a")
        dictionary.insert("b")
        dictionary.insert("c")
        assert dictionary.stats.evictions == 1

    def test_touch_refreshes_recency_without_counting(self):
        dictionary = BasisDictionary(2)
        dictionary.insert("a")
        dictionary.insert("b")
        assert dictionary.touch("a")
        assert not dictionary.touch("missing")
        assert dictionary.stats.lookups == 0
        _, evicted = dictionary.insert("c")
        assert evicted == "b"


class TestExternalIdentifiers:
    def test_insert_with_identifier(self):
        dictionary = BasisDictionary(8)
        dictionary.insert_with_identifier("a", 5)
        assert dictionary.lookup("a") == 5
        assert dictionary.reverse_lookup(5) == "a"

    def test_insert_with_identifier_displaces_previous_key(self):
        dictionary = BasisDictionary(8)
        dictionary.insert_with_identifier("a", 5)
        dictionary.insert_with_identifier("b", 5)
        assert dictionary.reverse_lookup(5) == "b"
        assert dictionary.lookup("a") is None

    def test_insert_with_identifier_conflicting_key(self):
        dictionary = BasisDictionary(8)
        dictionary.insert_with_identifier("a", 5)
        with pytest.raises(DictionaryError):
            dictionary.insert_with_identifier("a", 6)

    def test_insert_with_identifier_out_of_range(self):
        dictionary = BasisDictionary(8)
        with pytest.raises(DictionaryError):
            dictionary.insert_with_identifier("a", 8)


class TestPreloadAndStats:
    def test_preload_deduplicates_keys(self):
        dictionary = BasisDictionary(8)
        count = dictionary.preload(iter(["a", "b", "a", "c"]))
        assert count == 3
        assert len(dictionary) == 3

    def test_preload_over_capacity_rejected(self):
        dictionary = BasisDictionary(2)
        with pytest.raises(DictionaryError):
            dictionary.preload(iter(["a", "b", "c"]))

    def test_hit_ratio(self):
        dictionary = BasisDictionary(8)
        dictionary.insert("a")
        dictionary.lookup("a")
        dictionary.lookup("b")
        assert dictionary.stats.hits == 1
        assert dictionary.stats.misses == 1
        assert dictionary.stats.hit_ratio == pytest.approx(0.5)

    def test_hit_ratio_empty(self):
        assert BasisDictionary(2).stats.hit_ratio == 0.0

    def test_stats_as_dict(self):
        dictionary = BasisDictionary(8)
        dictionary.insert("a")
        stats = dictionary.stats.as_dict()
        assert stats["insertions"] == 1
        assert "hit_ratio" in stats

    def test_snapshot_and_items(self):
        dictionary = BasisDictionary(8)
        dictionary.insert("a")
        dictionary.insert("b")
        assert dictionary.snapshot() == {"a": 0, "b": 1}
        assert dict(dictionary.items()) == {"a": 0, "b": 1}
        assert set(dictionary.keys()) == {"a", "b"}

    def test_paper_capacity(self):
        # 15-bit identifiers allow 32,768 cached bases (Section 7).
        dictionary = BasisDictionary(1 << 15)
        assert dictionary.capacity == 32768
        assert dictionary.identifier_width() == 15


# -- the batch verbs against the per-key loops they replaced ------------------

KEYS = st.integers(0, 11)


def _operations(capacity):
    identifiers = st.integers(0, capacity - 1)
    record = st.one_of(
        st.tuples(st.just(3), identifiers),
        st.tuples(st.just(2), KEYS),
        st.tuples(st.just(1), KEYS),
    )
    return st.lists(
        st.one_of(
            st.tuples(st.just("probe"), st.lists(KEYS, max_size=12), st.booleans()),
            st.tuples(st.just("resolve"), st.lists(record, max_size=12), st.booleans()),
            st.tuples(st.just("remove"), KEYS),
            st.tuples(st.just("install"), KEYS, identifiers),
            st.tuples(st.just("clear")),
        ),
        max_size=12,
    )


@st.composite
def _scenarios(draw):
    capacity = draw(st.integers(1, 8))
    policy = draw(st.sampled_from(["lru", "fifo", "random"]))
    return capacity, policy, draw(st.integers(0, 3)), draw(_operations(capacity))


class _HotWatch(BasisDictionary):
    """Records the hot entry each ``insert`` call finds: the verbs keep it
    in locals and owe ``insert`` (whose ``_evict`` invalidates it) the
    current value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.found = []

    def insert(self, key):
        self.found.append((self._hot_key, self._hot_id))
        return super().insert(key)


def _observable(dictionary):
    """Everything a later call could tell two dictionaries apart by."""
    victim = None
    if len(dictionary):
        # The copy carries the random policy's RNG state with it.
        victim = copy.deepcopy(dictionary)._evict()
    return (
        dictionary.stats.as_dict(),
        dictionary.snapshot_state(),
        victim,
        (dictionary._hot_key, dictionary._hot_id),
        dictionary.found,
    )


def _outcome(function, *args):
    try:
        return function(*args)
    except DictionaryError as error:
        return str(error)


class TestBatchVerbsModel:
    @settings(max_examples=300, deadline=None)
    @given(_scenarios())
    def test_verbs_equal_the_per_key_loops(self, scenario):
        capacity, policy, seed, operations = scenario
        batched = _HotWatch(capacity, policy, seed=seed)
        looped = _HotWatch(capacity, policy, seed=seed)
        for name, *args in operations:
            if name == "probe":
                keys, learn = args
                assert batched.probe_batch(keys, learn) == probe_loop(
                    looped, keys, learn
                )
            elif name == "resolve":
                records, learn = args
                tags = bytes(tag for tag, _ in records)
                keys = [key for _, key in records]
                batched_out, looped_out = list(keys), list(keys)
                assert batched.resolve_batch(
                    tags, keys, learn, batched_out
                ) == resolve_loop(looped, tags, keys, learn, looped_out)
                assert batched_out == looped_out
            elif name == "remove":
                assert batched.remove(*args) == looped.remove(*args)
            elif name == "install":
                assert _outcome(batched.insert_with_identifier, *args) == _outcome(
                    looped.insert_with_identifier, *args
                )
            else:
                batched.clear()
                looped.clear()
            assert _observable(batched) == _observable(looped)

    def test_a_repeated_static_miss_counts_every_time(self):
        dictionary = BasisDictionary(4)
        dictionary.insert("known")
        identifiers, misses = dictionary.probe_batch(["absent"] * 10 + ["known"], False)
        assert identifiers == [0]
        assert misses == [(position, None, None) for position in range(10)]
        assert (
            dictionary.stats.lookups,
            dictionary.stats.hits,
            dictionary.stats.misses,
        ) == (11, 1, 10)
        assert "absent" not in dictionary

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_unmapped_identifier_stops_the_batch_where_the_loop_stopped(self, policy):
        batched = _HotWatch(4, policy, seed=1)
        looped = _HotWatch(4, policy, seed=1)
        tags = bytes([2, 2, 3, 2, 3, 2, 3])
        keys = ["a", "b", 0, "c", 3, "d", 1]
        batched_out, looped_out = list(keys), list(keys)
        result = batched.resolve_batch(tags, keys, True, batched_out)
        assert result == resolve_loop(looped, tags, keys, True, looped_out)
        assert result == ([(0, 0, None), (1, 1, None), (3, 2, None)], 4)
        # The records before the unmapped one applied, nothing after it did.
        assert batched_out == looped_out == ["a", "b", "a", "c", 3, "d", 1]
        assert "c" in batched and "d" not in batched
        # Learning "c" came right after touching "a": ``insert`` must have
        # found that touch in the hot entry (under LRU, where it moves it).
        assert batched.found[2] == (("a", 0) if policy == "lru" else ("b", 1))
        assert _observable(batched) == _observable(looped)

    @pytest.mark.parametrize("identifier", [-1, 4])
    def test_out_of_range_identifier_raises_where_the_loop_raised(self, identifier):
        batched = _HotWatch(4)
        looped = _HotWatch(4)
        tags = bytes([2, 3, 3, 2])
        keys = ["a", 0, identifier, "b"]
        messages = []
        for dictionary, resolve in (
            (batched, BasisDictionary.resolve_batch),
            (looped, resolve_loop),
        ):
            with pytest.raises(DictionaryError) as raised:
                resolve(dictionary, tags, keys, True, list(keys))
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert f"identifier {identifier} out of range" in messages[0]
        assert _observable(batched) == _observable(looped)
        # The hot entry survived the exception: a repeat hit still short-cuts.
        assert batched.probe_batch(["a"], False) == ([0], [])

    def test_hot_entry_is_written_back_around_an_eviction(self):
        """``insert`` evicts the hot key itself: a stale local copy would
        answer the next probe of it with a recycled identifier."""
        dictionary = BasisDictionary(1)
        assert dictionary.probe_batch(["a", "a", "b", "a", "a"], True) == (
            [0, 0],
            [(0, 0, None), (2, 0, "a"), (3, 0, "b")],
        )
        assert dictionary.snapshot() == {"a": 0}


class TestRestoreState:
    def test_rejects_entries_that_are_not_one_to_one(self):
        state = BasisDictionary(4).snapshot_state()
        for entries in ([["a", 1], ["a", 2]], [["a", 1], ["b", 1]]):
            dictionary = BasisDictionary(4)
            dictionary.insert("kept")
            with pytest.raises(DictionaryError, match="repeat"):
                dictionary.restore_state(dict(state, entries=entries))
            assert dictionary.snapshot() == {"kept": 0}


class TestFreeIdentifierRule:
    """Section 5, pinned where it is written: never-used identifiers
    ascending, then released ones oldest release first."""

    def test_never_used_before_released_and_released_oldest_first(self):
        dictionary = BasisDictionary(6)
        for key in "abcd":
            dictionary.insert(key)
        for key in "cab":  # releases identifiers 2, 0, 1 in that order
            dictionary.remove(key)
        issued = [dictionary.insert(key) for key in "vwxyz"]
        assert issued == [(4, None), (5, None), (2, None), (0, None), (1, None)]
        # Only now is anything recycled: the least recently used entry.
        assert dictionary.insert("last") == (3, "d")

    def test_externally_installed_identifiers_are_skipped(self):
        dictionary = BasisDictionary(4)
        dictionary.insert_with_identifier("x", 1)
        assert [dictionary.insert(key)[0] for key in "abc"] == [0, 2, 3]

    def test_a_released_external_identifier_counts_as_used(self):
        dictionary = BasisDictionary(4)
        dictionary.insert_with_identifier("x", 2)
        dictionary.remove("x")
        # 2 was used: it waits behind the never-used 0, 1, 3 — and is
        # handed out once, not by the counter and again from the queue.
        assert [dictionary.insert(key) for key in "abcde"] == [
            (0, None), (1, None), (3, None), (2, None), (0, "a"),
        ]

    def test_installing_onto_a_released_identifier_takes_it_off_the_queue(self):
        dictionary = BasisDictionary(3)
        for key in "abc":
            dictionary.insert(key)
        dictionary.remove("a")
        dictionary.insert_with_identifier("x", 0)
        assert dictionary.snapshot_state()["freed_ids"] == []
        assert dictionary.insert("d") == (1, "b")

    def test_a_snapshot_carries_the_release_order(self):
        dictionary = BasisDictionary(4)
        for key in "abcd":
            dictionary.insert(key)
        for key in "db":
            dictionary.remove(key)
        state = dictionary.snapshot_state()
        assert (state["freed_ids"], state["next_unused_id"]) == ([3, 1], 4)
        restored = BasisDictionary(4)
        restored.restore_state(state)
        assert [restored.insert(key)[0] for key in "xy"] == [3, 1]
