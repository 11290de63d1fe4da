"""Tests for counters."""

import pytest

from repro.exceptions import ReproError
from repro.tofino.counters import NamedCounterSet


class TestNamedCounterSet:
    def test_count_by_label(self):
        counters = NamedCounterSet(["raw_to_uncompressed", "raw_to_compressed"])
        cell = counters.index("raw_to_compressed")
        for _ in range(2):
            counters.packet_cells[cell] += 1
            counters.byte_cells[cell] += 3
        assert counters.read("raw_to_compressed").packets == 2
        assert counters.read("raw_to_compressed").bytes == 6
        assert counters.read("raw_to_uncompressed").packets == 0

    def test_as_dict(self):
        counters = NamedCounterSet(["a", "b"])
        counters.packet_cells[counters.index("a")] += 1
        counters.byte_cells[counters.index("a")] += 1
        snapshot = counters.as_dict()
        assert list(snapshot) == ["a", "b"]
        assert (snapshot["a"].packets, snapshot["a"].bytes) == (1, 1)
        assert (snapshot["b"].packets, snapshot["b"].bytes) == (0, 0)

    @pytest.mark.parametrize("method", ["read", "index"])
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
