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

The generator mirrors :class:`~repro.workloads.synthetic.SyntheticSensorWorkload`'s
interface exactly (``bases()`` / ``iter_chunks()`` / ``chunks()`` /
``trace()``), so every consumer — the topology engine, the experiment
matrix, the benchmarks — can treat the two interchangeably.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, List, Optional

from repro.core.hamming import HammingCode
from repro.core.transform import GDTransform
from repro.exceptions import WorkloadError
from repro.workloads.traces import ChunkTrace

__all__ = ["DictionaryThrashWorkload"]


@dataclass(frozen=True)
class _BasisState:
    """One generatable basis: the basis, its codeword and a fixed prefix."""

    basis: int
    codeword: int
    prefix: int


class DictionaryThrashWorkload:
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
    zipf_exponent:
        Skew of the popularity distribution; higher values concentrate
        traffic on fewer bases (``1.1`` gives a realistic heavy tail).
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

    def __init__(
        self,
        num_chunks: int = 100_000,
        distinct_bases: int = 1_000,
        order: int = 8,
        zipf_exponent: float = 1.1,
        phase_chunks: int = 0,
        phase_shift: int = 0,
        deviation_probability: float = 0.5,
        seed: int = 2020,
    ):
        if num_chunks <= 0:
            raise WorkloadError(f"num_chunks must be positive, got {num_chunks}")
        if distinct_bases <= 0:
            raise WorkloadError(
                f"distinct_bases must be positive, got {distinct_bases}"
            )
        if zipf_exponent <= 0:
            raise WorkloadError(
                f"zipf_exponent must be positive, got {zipf_exponent}"
            )
        if phase_chunks < 0:
            raise WorkloadError(
                f"phase_chunks cannot be negative, got {phase_chunks}"
            )
        if phase_shift < 0:
            raise WorkloadError(
                f"phase_shift cannot be negative, got {phase_shift}"
            )
        if not 0.0 <= deviation_probability <= 1.0:
            raise WorkloadError(
                f"deviation_probability must be within [0, 1], "
                f"got {deviation_probability}"
            )
        self.num_chunks = num_chunks
        self.distinct_bases = distinct_bases
        self.order = order
        self.zipf_exponent = zipf_exponent
        self.phase_chunks = phase_chunks
        self.phase_shift = phase_shift
        self.deviation_probability = deviation_probability
        self.seed = seed
        self._transform = GDTransform(order=order)
        self._states: Optional[List[_BasisState]] = None
        self._cum_weights: Optional[List[float]] = None

    # -- accessors ---------------------------------------------------------------

    @property
    def transform(self) -> GDTransform:
        """The GD transform matching this workload's chunk size."""
        return self._transform

    @property
    def chunk_bytes(self) -> int:
        """Chunk size in bytes."""
        return self._transform.chunk_bytes

    @property
    def total_bytes(self) -> int:
        """Total payload volume the workload will generate."""
        return self.num_chunks * self.chunk_bytes

    # -- generation ----------------------------------------------------------------

    def _basis_states(self) -> List[_BasisState]:
        """The basis population, generated lazily and cached.

        Bases are drawn as random basis values directly (the thrash
        workload models churn, not telemetry realism), deduplicated until
        the population is full.
        """
        if self._states is not None:
            return self._states
        rng = random.Random(self.seed)
        code: HammingCode = self._transform.code
        prefix_bits = self._transform.prefix_bits
        states: List[_BasisState] = []
        seen = set()
        attempts = 0
        while len(states) < self.distinct_bases:
            attempts += 1
            if attempts > 100 * self.distinct_bases:
                raise WorkloadError(
                    "could not generate enough distinct bases; reduce "
                    "distinct_bases"
                )
            basis = rng.getrandbits(code.k)
            if basis in seen:
                continue
            seen.add(basis)
            states.append(
                _BasisState(
                    basis=basis,
                    codeword=code.encode(basis),
                    prefix=rng.getrandbits(prefix_bits) if prefix_bits else 0,
                )
            )
        self._states = states
        return states

    def _rank_cum_weights(self) -> List[float]:
        """Running sum of the Zipf-like rank weights (rank 0 is hottest).

        Exactly the list ``random.choices(weights=...)`` would accumulate
        again on every call; :meth:`iter_chunks` bisects it the way
        ``choices`` does, so it draws the same ranks from the same RNG
        stream.
        """
        if self._cum_weights is None:
            self._cum_weights = list(
                accumulate(
                    1.0 / (rank + 1.0) ** self.zipf_exponent
                    for rank in range(self.distinct_bases)
                )
            )
        return self._cum_weights

    def bases(self) -> List[int]:
        """The distinct bases of the workload (for static preloading)."""
        return [state.basis for state in self._basis_states()]

    def iter_chunks(self, num_chunks: Optional[int] = None) -> Iterator[bytes]:
        """Lazily generate chunks (deterministic for a given seed)."""
        count = self.num_chunks if num_chunks is None else num_chunks
        if count <= 0:
            raise WorkloadError(f"chunk count must be positive, got {count}")
        rng = random.Random(self.seed + 1)
        random_ = rng.random
        states = self._basis_states()
        cum_weights = self._rank_cum_weights()
        code = self._transform.code
        chunk_bytes = self.chunk_bytes
        n = code.n
        population = len(states)
        # What random.choices(ranks, cum_weights=cum_weights)[0] computes
        # (CPython 3.11), without building a one-element list per chunk.
        total = cum_weights[-1] + 0.0
        last = population - 1

        rotation = 0
        for index in range(count):
            if (
                self.phase_chunks
                and index
                and index % self.phase_chunks == 0
            ):
                # Flash crowd: the popularity ranking rotates, so a slice
                # of the cold tail suddenly becomes the hot head.
                rotation = (rotation + self.phase_shift) % population
            rank = bisect(cum_weights, random_() * total, 0, last)
            state = states[(rank + rotation) % population]
            body = state.codeword
            if random_() < self.deviation_probability:
                body ^= 1 << rng.randrange(n)
            value = (state.prefix << n) | body
            yield value.to_bytes(chunk_bytes, "big")

    def chunks(self, num_chunks: Optional[int] = None) -> List[bytes]:
        """Eagerly generate a list of chunks."""
        return list(self.iter_chunks(num_chunks))

    def trace(
        self, num_chunks: Optional[int] = None, name: str = "thrash"
    ) -> ChunkTrace:
        """Generate a :class:`ChunkTrace` of the thrash stream."""
        return ChunkTrace(self.chunks(num_chunks), name=name)
