"""Adversarial dictionary-thrash workload (control-plane churn driver).

The synthetic sensor workload is *friendly* to GD: a small, stable set of
operating points means the dictionary converges quickly and the control
plane goes quiet.  This workload is built to do the opposite — keep the
control plane installing and evicting for the whole trace:

* **heavy-tailed basis popularity** — a Zipf-like distribution over a
  basis population much larger than the identifier space, so the LRU
  tail churns continuously while a hot head stays compressible;
* **flash-crowd phase shifts** — every ``phase_chunks`` chunks the
  popularity ranking rotates by ``phase_shift`` positions, modelling a
  workload whose working set migrates (yesterday's cold bases become
  today's hot ones), which forces a burst of installs at each boundary.

Under a rate-limited or lossy control channel this is the workload that
exposes backpressure (``control.deferred`` / ``control.dropped``) and
recovery behaviour; under a perfect control plane it still measures how
much ratio the paper's LRU recycling gives up to churn.

The generator shares :class:`~repro.workloads.synthetic.SyntheticSensorWorkload`'s
base, :class:`~repro.workloads.codewords.CodewordWorkload` (``bases()`` /
``iter_chunks()`` / ``chunks()`` / ``trace()``), so every consumer — the
topology engine, the experiment matrix, the benchmarks — can treat the
two interchangeably.  Popularity follows rank ``r``'s weight
``1 / (r + 1) ** ZIPF_EXPONENT``.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Iterator, Optional, Tuple

from repro.exceptions import WorkloadError
from repro.workloads.codewords import CodewordWorkload

__all__ = ["DictionaryThrashWorkload"]

#: Skew of the basis popularity: ``1.1`` gives a realistic heavy tail.
ZIPF_EXPONENT = 1.1


class DictionaryThrashWorkload(CodewordWorkload):
    """Generate chunks whose basis popularity is heavy-tailed and drifting.

    Parameters
    ----------
    num_chunks:
        Total chunks to generate.
    distinct_bases:
        Size of the basis population.  Choose it larger than the encoder's
        identifier space (``2**identifier_bits``) to force LRU recycling,
        or just large relative to the hot set to force steady churn.
    order:
        Hamming order ``m`` (8 in the paper → 256-bit chunks).
    phase_chunks:
        Length of one popularity phase.  ``0`` disables phase shifts.
    phase_shift:
        How many rank positions the popularity order rotates at each phase
        boundary (the flash-crowd: a slice of the tail becomes the head).
    deviation_probability:
        Probability that a chunk deviates from its codeword by one bit.
    seed:
        RNG seed; generation is fully deterministic given the seed.
    """

    trace_name = "thrash"

    def __init__(
        self,
        num_chunks: int = 100_000,
        distinct_bases: int = 1_000,
        order: int = 8,
        phase_chunks: int = 0,
        phase_shift: int = 0,
        deviation_probability: float = 0.5,
        seed: int = 2020,
    ):
        super().__init__(num_chunks, distinct_bases, order, deviation_probability, seed)
        if phase_chunks < 0:
            raise WorkloadError(f"phase_chunks cannot be negative, got {phase_chunks}")
        if phase_shift < 0:
            raise WorkloadError(f"phase_shift cannot be negative, got {phase_shift}")
        self.phase_chunks = phase_chunks
        self.phase_shift = phase_shift

    def _candidates(self, rng: random.Random) -> Iterator[Tuple[int, Optional[int]]]:
        """Random basis values (the thrash workload models churn, not
        telemetry realism); each new one gets a random prefix."""
        k = self.transform.code.k
        while True:
            yield rng.getrandbits(k), None

    def iter_chunks(self, num_chunks: Optional[int] = None) -> Iterator[bytes]:
        """Lazily generate chunks (deterministic for a given seed)."""
        count = self._count(num_chunks)
        rng = random.Random(self.seed + 1)
        random_ = rng.random
        words = self._words()
        population = len(words)
        # The running sum of the rank weights (rank 0 is hottest), bisected
        # the way random.choices(ranks, cum_weights=...)[0] does (CPython
        # 3.11): the same ranks from the same RNG stream, without building
        # a one-element list per chunk.
        cum_weights = list(
            accumulate(1.0 / (rank + 1.0) ** ZIPF_EXPONENT for rank in range(population))
        )
        total = cum_weights[-1] + 0.0
        last = population - 1
        chunk_bytes = self.chunk_bytes
        n = self.transform.code.n
        phase_chunks = self.phase_chunks
        deviation_probability = self.deviation_probability

        rotation = 0
        for index in range(count):
            if phase_chunks and index and index % phase_chunks == 0:
                # Flash crowd: the popularity ranking rotates, so a slice
                # of the cold tail suddenly becomes the hot head.
                rotation = (rotation + self.phase_shift) % population
            rank = bisect(cum_weights, random_() * total, 0, last)
            value = words[(rank + rotation) % population]
            if random_() < deviation_probability:
                value ^= 1 << rng.randrange(n)
            yield value.to_bytes(chunk_bytes, "big")
