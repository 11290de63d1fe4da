"""Byte pins of the seeded traffic generators.

Generated on the code *before* the per-chunk constants of
``DictionaryThrashWorkload.iter_chunks`` and ``DnsQueryWorkload`` were
hoisted (cumulative weights, memoised QNAME encoding, ``bisect_left``):
the same RNG draws must yield the same bytes, so every topology report
golden built on these generators stays where it is.
"""

import hashlib

import pytest

from repro.workloads import DictionaryThrashWorkload, DnsQueryWorkload

PINNED_CHUNKS = 4000

GENERATORS = {
    "dns": lambda seed: DnsQueryWorkload(
        num_queries=PINNED_CHUNKS, distinct_names=400, seed=seed
    ),
    "dns-20k-names": lambda seed: DnsQueryWorkload(
        num_queries=PINNED_CHUNKS, distinct_names=20000, seed=seed
    ),
    "thrash": lambda seed: DictionaryThrashWorkload(
        num_chunks=PINNED_CHUNKS, distinct_bases=40, seed=seed
    ),
    "thrash-phases": lambda seed: DictionaryThrashWorkload(
        num_chunks=PINNED_CHUNKS,
        distinct_bases=10,
        phase_chunks=1000,
        phase_shift=2,
        seed=seed,
    ),
}

PINS = {
    ("dns", 2020): "9a555a5359aee1e9c8f0b7aed59d5927",
    ("dns-20k-names", 2020): "9826b345b94cbb9756ce498eabab251b",
    ("thrash", 2020): "8275373ef93ad15e7736ea8ea91c78bd",
    ("thrash-phases", 2020): "faa6b7c9de1d80a4e7f5b275d8be92fa",
    ("dns", 4242): "8c339623fad686e14ede40d408442d70",
    ("dns-20k-names", 4242): "39d59ae99e156d9d982025aa5abbe0b7",
    ("thrash", 4242): "92d926bee4678c8e5efffe1681e91dbd",
    ("thrash-phases", 4242): "d43afd32bd60c6efd91ef07ad623cd9b",
}


@pytest.mark.parametrize("name,seed", sorted(PINS))
def test_first_chunks_are_pinned(name, seed):
    digest = hashlib.md5()
    for chunk in GENERATORS[name](seed).iter_chunks():
        digest.update(chunk)
    assert digest.hexdigest() == PINS[(name, seed)]


class _FixedDraw:
    """Stands in for the RNG: ``random()`` returns one chosen value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_pick_name_at_the_table_edges():
    workload = DnsQueryWorkload(num_queries=10, distinct_names=5, seed=1)
    cumulative = workload._zipf_cumulative()
    names = workload.names()

    def picked(value):
        return names.index(workload._pick_name(_FixedDraw(value)))

    # A draw equal to a cumulative entry belongs to that entry's name.
    assert [picked(value) for value in cumulative] == [0, 1, 2, 3, 4]
    assert picked(cumulative[1] + 1e-12) == 2
    # Below the first entry and above the last one clamp to the ends.
    assert picked(0.0) == picked(-0.5) == picked(cumulative[0] / 2) == 0
    assert picked((cumulative[3] + 1.0) / 2) == picked(1.0) == picked(1.5) == 4
