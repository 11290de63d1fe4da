"""Tests for counters."""

import pytest

from repro.exceptions import ReproError
from repro.tofino.counters import NamedCounterSet


class TestNamedCounterSet:
    def test_count_by_label(self):
        counters = NamedCounterSet(["raw_to_uncompressed", "raw_to_compressed"])
        counters.count("raw_to_compressed", packet_bytes=3)
        counters.count("raw_to_compressed", packet_bytes=3)
        assert counters.read("raw_to_compressed").packets == 2
        assert counters.read("raw_to_compressed").bytes == 6
        assert counters.read("raw_to_uncompressed").packets == 0

    def test_as_dict(self):
        counters = NamedCounterSet(["a", "b"])
        counters.count("a", packet_bytes=1)
        snapshot = counters.as_dict()
        assert list(snapshot) == ["a", "b"]
        assert (snapshot["a"].packets, snapshot["a"].bytes) == (1, 1)
        assert (snapshot["b"].packets, snapshot["b"].bytes) == (0, 0)

    def test_a_negative_size_is_refused_before_either_cell_moves(self):
        counters = NamedCounterSet(["a", "b"])
        counters.count("b", packet_bytes=5)
        with pytest.raises(ReproError):
            counters.count("b", packet_bytes=-1)
        assert counters.read("b") == counters.as_dict()["b"]
        assert (counters.read("b").packets, counters.read("b").bytes) == (1, 5)
        assert counters.read("a").packets == 0

    def test_count_writes_the_cells_a_compiled_program_binds(self):
        counters = NamedCounterSet(["a", "b"])
        packets, octets = counters.packet_cells, counters.byte_cells
        counters.count("b", packet_bytes=7)
        index = counters.index("b")
        packets[index] += 1
        octets[index] += 3
        assert (counters.read("b").packets, counters.read("b").bytes) == (2, 10)
        assert (packets, octets) == ([0, 2], [0, 10])

    @pytest.mark.parametrize("method", ["count", "read", "index"])
    def test_unknown_label(self, method):
        counters = NamedCounterSet(["a"])
        with pytest.raises(ReproError, match="unknown counter label 'b'"):
            getattr(counters, method)("b")
        assert (counters.packet_cells, counters.byte_cells) == ([0], [0])

    def test_duplicate_or_empty_labels_rejected(self):
        with pytest.raises(ReproError):
            NamedCounterSet(["a", "a"])
        with pytest.raises(ReproError):
            NamedCounterSet([])
