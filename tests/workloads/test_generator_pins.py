"""Byte pins of the seeded traffic generators.

The pins fix the bytes each generator emits from its RNG draws:
``iter_chunks()`` of every case, ``bases()`` (the static scenario's
preload order) of every generator, and for DNS also the ``packets()``
frames.  The synthetic cases include the two options the ablation
bench sets (``locality=0.95``, ``deviation_probability=0.9``).  A
change to how a generator turns its draws into bytes (hoisted tables,
packed name prefixes, inlined ``random.choices``) must hold every pin,
so every topology report golden built on these generators stays where
it is.  The DNS chunks are also checked against the queries they are
cut from, so ``iter_chunks`` and ``iter_queries`` cannot drift apart.
"""

import hashlib

import pytest

from repro.workloads import (
    DictionaryThrashWorkload,
    DnsQueryWorkload,
    SyntheticSensorWorkload,
)

PINNED_CHUNKS = 4000

GENERATORS = {
    "synthetic": lambda seed: SyntheticSensorWorkload(
        num_chunks=PINNED_CHUNKS, distinct_bases=40, seed=seed
    ),
    "synthetic-local": lambda seed: SyntheticSensorWorkload(
        num_chunks=PINNED_CHUNKS, distinct_bases=40, locality=0.95, seed=seed
    ),
    "synthetic-deviating": lambda seed: SyntheticSensorWorkload(
        num_chunks=PINNED_CHUNKS,
        distinct_bases=40,
        deviation_probability=0.9,
        seed=seed,
    ),
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
    ("synthetic", 2020): "a5ba0da1b038f5804d662971d9404dc7",
    ("synthetic-local", 2020): "2a63c8d2ff6940f411464cd58a53e9da",
    ("synthetic-deviating", 2020): "558fc1d3e30a0c2c9aa4365eb5843a82",
    ("synthetic", 4242): "5e951ac51ee9009332e8cece0de0fa89",
    ("synthetic-local", 4242): "84994e1cd27dce739861b4b52349c158",
    ("synthetic-deviating", 4242): "3ae9ff6030077c49a0b75f43678fb479",
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


DNS_CASES = sorted(name for name in GENERATORS if name.startswith("dns"))

#: ``repr`` of ``bases()``: the static scenario's preload order.
BASES_PINS = {
    ("dns", 2020): "1eaf655bd8528d880df790b16248b23d",
    ("dns-20k-names", 2020): "1d1f20ca8dd0f346752524bff0e62f1e",
    ("dns", 4242): "e0ee712ce1efc7990dfb843007f7f846",
    ("dns-20k-names", 4242): "eb4d60f55bcc3aff47c0b33f53d00f5b",
}

#: The full Ethernet/IPv4/UDP/DNS frames of ``packets()``.
PACKETS_PINS = {
    ("dns", 2020): "584d3adc95a7fbb06e9acaac4124d54e",
    ("dns-20k-names", 2020): "b321a2e0581b8326da4003d8a114a836",
    ("dns", 4242): "f642130ed20af50618d67b97e693f910",
    ("dns-20k-names", 4242): "0f84dd6306b4133e3e219521df53529b",
}


@pytest.mark.parametrize("name,seed", sorted(BASES_PINS))
def test_dns_bases_are_pinned(name, seed):
    bases = GENERATORS[name](seed).bases()
    assert hashlib.md5(repr(bases).encode()).hexdigest() == BASES_PINS[(name, seed)]


#: ``repr`` of ``bases()`` of the codeword generators: the preload order.
CODEWORD_BASES_PINS = {
    ("synthetic", 2020): "bb6bafd53f34d6b134dfca1a69fde274",
    ("thrash", 2020): "bd81478b696a3f17fb70ea60d1013ac0",
    ("thrash-phases", 2020): "597330a3a0fff928d1d58e2ba9288edc",
    ("synthetic", 4242): "3f62f6b60a30ca2570740e37854b4906",
    ("thrash", 4242): "48b55969a378b1df9c451822b617ae44",
    ("thrash-phases", 4242): "30de6e7981a9f390c7023ce439dd024f",
}


@pytest.mark.parametrize("name,seed", sorted(CODEWORD_BASES_PINS))
def test_codeword_bases_are_pinned(name, seed):
    bases = GENERATORS[name](seed).bases()
    assert (
        hashlib.md5(repr(bases).encode()).hexdigest()
        == CODEWORD_BASES_PINS[(name, seed)]
    )


@pytest.mark.parametrize("name,seed", sorted(PACKETS_PINS))
def test_dns_packets_are_pinned(name, seed):
    digest = hashlib.md5()
    for frame in GENERATORS[name](seed).packets():
        digest.update(frame)
    assert digest.hexdigest() == PACKETS_PINS[(name, seed)]


@pytest.mark.parametrize("seed", [2020, 4242])
@pytest.mark.parametrize("name", DNS_CASES)
def test_dns_chunks_are_the_queries_without_their_id(name, seed):
    workload = GENERATORS[name](seed)
    assert list(workload.iter_chunks()) == [
        query.chunk() for query in workload.iter_queries()
    ]


class _FixedDraw:
    """Stands in for the RNG: ``random()`` returns one chosen value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value

    def getrandbits(self, bits):
        return 0


def test_pick_name_at_the_table_edges():
    workload = DnsQueryWorkload(num_queries=10, distinct_names=5, seed=1)
    cumulative = workload._zipf_cumulative()

    def picked(value):
        (_, _, name_index), = workload._draws(_FixedDraw(value), 1)
        return name_index

    # A draw equal to a cumulative entry belongs to that entry's name.
    assert [picked(value) for value in cumulative] == [0, 1, 2, 3, 4]
    assert picked(cumulative[1] + 1e-12) == 2
    # Below the first entry and above the last one clamp to the ends.
    assert picked(0.0) == picked(-0.5) == picked(cumulative[0] / 2) == 0
    assert picked((cumulative[3] + 1.0) / 2) == picked(1.0) == picked(1.5) == 4
