"""Tests for the identifier pool."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.idpool import IdentifierPool
from repro.core.dictionary import BasisDictionary
from repro.exceptions import ControlPlaneError


class TestAllocation:
    def test_allocates_lowest_free_identifier_first(self):
        pool = IdentifierPool(4)
        assert pool.allocate("a").identifier == 0
        assert pool.allocate("b").identifier == 1
        assert pool.capacity - len(pool) == 2
        assert len(pool) == 2

    def test_reallocating_same_basis_returns_existing(self):
        pool = IdentifierPool(4)
        first = pool.allocate("a")
        second = pool.allocate("a")
        assert first.identifier == second.identifier
        assert not second.recycled
        assert len(pool) == 1

    def test_lru_recycling_when_exhausted(self):
        pool = IdentifierPool(2)
        pool.allocate("a")
        pool.allocate("b")
        pool.touch_basis("a")  # "b" becomes the least recently used
        allocation = pool.allocate("c")
        assert allocation.recycled
        assert allocation.evicted_basis == "b"
        assert pool.identifier_for("b") is None
        assert pool.identifier_for("a") is not None
        assert pool.stats.evictions == 1

    def test_touch_by_identifier(self):
        pool = IdentifierPool(2)
        a = pool.allocate("a").identifier
        pool.allocate("b")
        pool.touch(a)
        assert pool.allocate("c").evicted_basis == "b"

    def test_release_returns_identifier_to_pool(self):
        pool = IdentifierPool(2)
        identifier = pool.allocate("a").identifier
        assert pool.release(identifier) == "a"
        assert pool.capacity - len(pool) == 2
        assert pool.release(identifier) is None

    def test_least_recently_used_peek(self):
        pool = IdentifierPool(4)
        assert pool.least_recently_used() is None
        pool.allocate("a")
        pool.allocate("b")
        assert pool.least_recently_used()[1] == "a"

    def test_lookups(self):
        pool = IdentifierPool(4)
        identifier = pool.allocate("a").identifier
        assert pool.basis_for(identifier) == "a"
        assert pool.identifier_for("a") == identifier
        assert pool.basis_for(3) is None
        assert pool.bindings() == {identifier: "a"}

    def test_bounds(self):
        pool = IdentifierPool(4)
        with pytest.raises(ControlPlaneError):
            pool.basis_for(4)
        with pytest.raises(ControlPlaneError):
            pool.touch(-1)
        with pytest.raises(ControlPlaneError):
            IdentifierPool(0)

    def test_clear(self):
        pool = IdentifierPool(4)
        pool.allocate("a")
        pool.clear()
        assert len(pool) == 0
        assert pool.capacity - len(pool) == 4

    def test_paper_capacity(self):
        pool = IdentifierPool(1 << 15)
        assert pool.capacity == 32768

    def test_allocation_counter(self):
        pool = IdentifierPool(4)
        pool.allocate("a")
        pool.allocate("a")
        pool.allocate("b")
        assert pool.stats.insertions == 2


class TestOneMap:
    def test_the_pool_is_the_core_dictionary(self):
        # No private copy: the pool's counters are the dictionary's stats
        # and its snapshot is the dictionary's snapshot.
        pool = IdentifierPool(2)
        for basis in "abc":
            pool.allocate(basis)
        assert isinstance(pool, BasisDictionary)
        assert (pool.stats.insertions, pool.stats.evictions) == (3, 1)
        assert (pool.stats.insertions, pool.stats.evictions) == (3, 1)
        assert pool.snapshot_state()["entries"] == [["b", 1], ["c", 0]]

    def test_released_identifiers_come_after_the_never_used_ones(self):
        pool = IdentifierPool(4)
        for basis in "ab":
            pool.allocate(basis)
        pool.release(0)
        assert [pool.allocate(basis).identifier for basis in "cde"] == [2, 3, 0]

    def test_construction_does_not_allocate_the_identifier_space(self):
        tracemalloc.start()
        try:
            pool = IdentifierPool(1 << 40)
            assert pool.allocate("a").identifier == 0
            assert pool.capacity - len(pool) == (1 << 40) - 1
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


# -- the pool against a list-based model of the paper's rule ------------------


class ModelPool:
    """Section 5 over two plain lists.

    ``free``: never-used identifiers ascending, then released ones, oldest
    release first.  ``bound``: ``[identifier, basis]``, least recently
    active first.
    """

    def __init__(self, capacity):
        self.free = list(range(capacity))
        self.bound = []

    def _find(self, position, value):
        return next((pair for pair in self.bound if pair[position] == value), None)

    def allocate(self, basis):
        pair = self._find(1, basis)
        if pair is not None:
            self.touch(pair[0])
            return pair[0], None
        identifier, evicted = (self.free.pop(0), None) if self.free else self.bound.pop(0)
        self.bound.append([identifier, basis])
        return identifier, evicted

    def touch(self, identifier):
        pair = self._find(0, identifier)
        if pair is not None:
            self.bound.remove(pair)
            self.bound.append(pair)

    def release(self, identifier):
        pair = self._find(0, identifier)
        if pair is None:
            return None
        self.bound.remove(pair)
        self.free.append(identifier)
        return pair[1]


BASES = st.integers(0, 11)


@st.composite
def pool_scenarios(draw):
    capacity = draw(st.integers(1, 8))
    identifiers = st.integers(0, capacity - 1)
    steps = st.one_of(
        st.tuples(st.just("allocate"), BASES),
        st.tuples(st.just("release"), identifiers),
        st.tuples(st.just("touch"), identifiers),
        st.tuples(st.just("touch_basis"), BASES),
        st.tuples(st.just("force_evict")),
        st.tuples(st.just("snapshot")),
    )
    return capacity, draw(st.lists(steps, max_size=40))


class TestAgainstTheModel:
    @settings(max_examples=300, deadline=None)
    @given(pool_scenarios())
    def test_every_step_matches_the_list_model(self, scenario):
        capacity, steps = scenario
        pool, model = IdentifierPool(capacity), ModelPool(capacity)
        for name, *args in steps:
            if name == "allocate":
                allocation = pool.allocate(*args)
                identifier, evicted = model.allocate(*args)
                assert (allocation.identifier, allocation.evicted_basis) == (
                    identifier,
                    evicted,
                )
                assert allocation.recycled == (evicted is not None)
            elif name == "release":
                assert pool.release(*args) == model.release(*args)
            elif name == "touch":
                pool.touch(*args)
                model.touch(*args)
            elif name == "touch_basis":
                pool.touch_basis(*args)
                pair = model._find(1, *args)
                if pair is not None:
                    model.touch(pair[0])
            elif name == "force_evict":
                # What ZipLineControlPlane.force_evict does to the pool.
                victim = pool.least_recently_used()
                if victim is not None:
                    assert pool.release(victim[0]) == model.release(victim[0])
            else:
                state = json.loads(json.dumps(pool.snapshot_state()))
                pool = IdentifierPool(capacity)
                pool.restore_state(state)
            assert list(pool.bindings().items()) == [tuple(pair) for pair in model.bound]
            assert pool.least_recently_used() == (
                tuple(model.bound[0]) if model.bound else None
            )
            assert pool.capacity - len(pool) == len(model.free)
            for identifier, basis in model.bound:
                assert pool.identifier_for(basis) == identifier
                assert pool.basis_for(identifier) == basis
