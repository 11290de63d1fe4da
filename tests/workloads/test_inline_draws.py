"""The generators draw ``Random.choice`` and ``Random.randrange(n)`` inline.

Each inlined draw is CPython's rejection loop (``Random._randbelow``): the
first ``getrandbits(n.bit_length())`` below ``n``.  These tests hold every
inlined generator to the same generator written with ``random.Random``'s
own methods, on the running interpreter, over many seeds and sizes; a
Python whose ``Random`` draws differently fails here, not in a golden pin.
"""

import random
import string
from itertools import accumulate

import pytest

from repro.workloads.dns import DnsQueryWorkload
from repro.workloads.synthetic import SyntheticSensorWorkload
from repro.workloads.thrash import ZIPF_EXPONENT, DictionaryThrashWorkload

SEEDS = range(12)


def _below(getrandbits, n):
    bits = n.bit_length()
    drawn = getrandbits(bits)
    while drawn >= n:
        drawn = getrandbits(bits)
    return drawn


@pytest.mark.parametrize("seed", SEEDS)
def test_the_rejection_loop_is_randrange_and_choice(seed):
    inline, reference = random.Random(seed), random.Random(seed)
    for n in [*range(1, 300), 1 << 16, (1 << 16) + 1, 10**9]:
        assert _below(inline.getrandbits, n) == reference.randrange(n)
        sequence = range(n)
        assert sequence[_below(inline.getrandbits, n)] == reference.choice(sequence)
    assert inline.getstate() == reference.getstate()


def _reference_names(workload):
    """``DnsQueryWorkload.names`` drawn with ``Random.choice``."""
    choice = random.Random(workload.seed).choice
    pool, seen = [], set()
    while len(pool) < workload.distinct_names:
        service = choice(workload._SERVICES)
        department = choice(workload._DEPARTMENTS)
        suffix = f".{department}.uni.in"
        digits = 16 - len(suffix) - len(service)
        name = service + "".join([choice(string.digits) for _ in range(digits)]) + suffix
        if name not in seen:
            seen.add(name)
            pool.append(name)
    return pool


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("names", [1, 2, 17, 300, 1500])
def test_the_dns_name_pool_draws_as_random_choice(seed, names):
    workload = DnsQueryWorkload(num_queries=1, distinct_names=names, seed=seed)
    assert workload.names() == _reference_names(workload)


def _reference_synthetic(workload, count):
    """``SyntheticSensorWorkload.iter_chunks`` drawn with ``choice`` / ``randrange``."""
    rng = random.Random(workload.seed + 1)
    words = workload._words()
    n = workload.transform.code.n
    current = rng.choice(words)
    for _ in range(count):
        if rng.random() >= workload.locality:
            current = rng.choice(words)
        value = current
        if rng.random() < workload.deviation_probability:
            value ^= 1 << rng.randrange(n)
        yield value.to_bytes(workload.chunk_bytes, "big")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "bases, order, locality", [(1, 8, 0.92), (3, 4, 0.5), (16, 8, 0.0), (64, 6, 0.92), (100, 8, 0.3)]
)
def test_synthetic_chunks_draw_as_random_choice_and_randrange(seed, bases, order, locality):
    workload = SyntheticSensorWorkload(
        num_chunks=400, distinct_bases=bases, order=order, locality=locality, seed=seed
    )
    assert list(workload.iter_chunks()) == list(_reference_synthetic(workload, 400))


def _reference_thrash(workload, count):
    """``DictionaryThrashWorkload.iter_chunks`` drawn with ``choices`` / ``randrange``."""
    rng = random.Random(workload.seed + 1)
    words = workload._words()
    population = len(words)
    cum_weights = list(
        accumulate(1.0 / (rank + 1.0) ** ZIPF_EXPONENT for rank in range(population))
    )
    n = workload.transform.code.n
    rotation = 0
    for index in range(count):
        if workload.phase_chunks and index and index % workload.phase_chunks == 0:
            rotation = (rotation + workload.phase_shift) % population
        rank = rng.choices(range(population), cum_weights=cum_weights)[0]
        value = words[(rank + rotation) % population]
        if rng.random() < workload.deviation_probability:
            value ^= 1 << rng.randrange(n)
        yield value.to_bytes(workload.chunk_bytes, "big")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "bases, order, phase", [(1, 8, 0), (5, 3, 50), (40, 8, 100), (64, 5, 0), (200, 8, 37)]
)
def test_thrash_chunks_draw_as_random_choices_and_randrange(seed, bases, order, phase):
    workload = DictionaryThrashWorkload(
        num_chunks=400, distinct_bases=bases, order=order,
        phase_chunks=phase, phase_shift=max(1, bases // 4), seed=seed,
    )
    assert list(workload.iter_chunks()) == list(_reference_thrash(workload, 400))
