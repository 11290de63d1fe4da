"""Tests for counters."""

import pytest

from repro.exceptions import ReproError
from repro.tofino.counters import Counter, CounterType, NamedCounterSet


class TestCounter:
    def test_packets_and_bytes(self):
        counter = Counter(size=4)
        counter.count(0, packet_bytes=100)
        counter.count(0, packet_bytes=50)
        counter.count(1, packet_bytes=10)
        assert counter.read(0).packets == 2
        assert counter.read(0).bytes == 150
        assert counter.read(1).packets == 1
        assert counter.read(3).packets == 0

    def test_packets_only(self):
        counter = Counter(size=2, counter_type=CounterType.PACKETS)
        counter.count(0, packet_bytes=100)
        assert counter.read(0).packets == 1
        assert counter.read(0).bytes == 0

    def test_bytes_only(self):
        counter = Counter(size=2, counter_type=CounterType.BYTES)
        counter.count(0, packet_bytes=100)
        assert counter.read(0).packets == 0
        assert counter.read(0).bytes == 100

    def test_bounds_and_validation(self):
        counter = Counter(size=2)
        with pytest.raises(ReproError):
            counter.count(2)
        with pytest.raises(ReproError):
            counter.count(0, packet_bytes=-1)
        with pytest.raises(ReproError):
            Counter(size=0)

    def test_read_and_clear(self):
        counter = Counter(size=3)
        counter.count(2, packet_bytes=9)
        assert counter.read(2).bytes == 9
        counter.clear()
        assert counter.read(2).bytes == 0


class TestNamedCounterSet:
    def test_count_by_label(self):
        counters = NamedCounterSet(["raw_to_uncompressed", "raw_to_compressed"])
        counters.count("raw_to_compressed", packet_bytes=3)
        counters.count("raw_to_compressed", packet_bytes=3)
        assert counters.read("raw_to_compressed").packets == 2
        assert counters.read("raw_to_uncompressed").packets == 0

    def test_as_dict_and_clear(self):
        counters = NamedCounterSet(["a", "b"])
        counters.count("a", packet_bytes=1)
        snapshot = counters.as_dict()
        assert snapshot["a"].packets == 1
        counters.clear()
        assert counters.read("a").packets == 0

    def test_counts_again_after_clear_and_rejects_a_negative_size(self):
        """``count`` writes the counter's own cells, which ``clear`` zeroes
        in place; a bad size is refused before either cell moves."""
        counters = NamedCounterSet(["a", "b"])
        counters.count("b", packet_bytes=7)
        counters.clear()
        counters.count("b", packet_bytes=5)
        with pytest.raises(ReproError):
            counters.count("b", packet_bytes=-1)
        assert counters.read("b") == counters.as_dict()["b"]
        assert (counters.read("b").packets, counters.read("b").bytes) == (1, 5)
        assert counters.read("a").packets == 0

    def test_unknown_label(self):
        counters = NamedCounterSet(["a"])
        with pytest.raises(ReproError):
            counters.count("b")
        with pytest.raises(ReproError):
            counters.read("b")

    def test_duplicate_or_empty_labels_rejected(self):
        with pytest.raises(ReproError):
            NamedCounterSet(["a", "a"])
        with pytest.raises(ReproError):
            NamedCounterSet([])

    def test_labels_accessor(self):
        assert NamedCounterSet(["x", "y"]).labels == ["x", "y"]
