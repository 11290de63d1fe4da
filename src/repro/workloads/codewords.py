"""The base of the generators that send codewords of a basis population.

:class:`~repro.workloads.synthetic.SyntheticSensorWorkload` and
:class:`~repro.workloads.thrash.DictionaryThrashWorkload` both draw a
population of distinct bases, send each chunk as one basis's codeword
(or that codeword with one bit flipped) behind the basis's fixed prefix,
and differ only in how a candidate basis is drawn and how the next
basis is picked per chunk.  :class:`CodewordWorkload` owns what they
share: the ``(basis, codeword, prefix)`` population with its dedup and
attempt cap, the shared validation, the accessors, :meth:`bases`,
:meth:`chunks` and :meth:`trace`.  Each subclass supplies
:meth:`~CodewordWorkload._candidates` and its own per-chunk
:meth:`iter_chunks` loop.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.core.transform import GDTransform
from repro.exceptions import WorkloadError
from repro.workloads.traces import ChunkTrace

__all__ = ["CodewordWorkload"]


class CodewordWorkload:
    """Chunks sent as codewords of a bounded population of distinct bases.

    Parameters
    ----------
    num_chunks:
        Total chunks to generate.
    distinct_bases:
        Size of the basis population.
    order:
        Hamming order ``m`` (8 in the paper → 256-bit chunks).
    deviation_probability:
        Probability that a chunk deviates from its codeword by one bit
        (otherwise the codeword itself is sent).
    seed:
        RNG seed; generation is fully deterministic given the seed.  The
        population draws from ``Random(seed)``, the chunks from
        ``Random(seed + 1)``.
    """

    #: The name :meth:`trace` gives its trace.
    trace_name = "trace"

    def __init__(
        self,
        num_chunks: int,
        distinct_bases: int,
        order: int,
        deviation_probability: float,
        seed: int,
    ):
        if num_chunks <= 0:
            raise WorkloadError(f"num_chunks must be positive, got {num_chunks}")
        if distinct_bases <= 0:
            raise WorkloadError(f"distinct_bases must be positive, got {distinct_bases}")
        if not 0.0 <= deviation_probability <= 1.0:
            raise WorkloadError(
                f"deviation_probability must be within [0, 1], got {deviation_probability}"
            )
        self.num_chunks = num_chunks
        self.distinct_bases = distinct_bases
        self.order = order
        self.deviation_probability = deviation_probability
        self.seed = seed
        self.transform = GDTransform(order=order)
        self._states: Optional[List[Tuple[int, int, int]]] = None

    @property
    def chunk_bytes(self) -> int:
        """Chunk size in bytes."""
        return self.transform.chunk_bytes

    @property
    def total_bytes(self) -> int:
        """Total payload volume the workload will generate."""
        return self.num_chunks * self.chunk_bytes

    def _candidates(
        self, rng: random.Random
    ) -> Iterator[Tuple[int, Optional[int]]]:
        """Endless candidate ``(basis, prefix)`` draws from the population RNG.

        A ``None`` prefix is drawn at random by :meth:`_population`, and
        only once the basis has passed the dedup check.
        """
        raise NotImplementedError

    def _population(self) -> List[Tuple[int, int, int]]:
        """The ``(basis, codeword, prefix)`` population, drawn once and cached."""
        if self._states is not None:
            return self._states
        rng = random.Random(self.seed)
        encode = self.transform.code.encode
        prefix_bits = self.transform.prefix_bits
        candidates = self._candidates(rng)
        states: List[Tuple[int, int, int]] = []
        seen = set()
        attempts = 0
        while len(states) < self.distinct_bases:
            attempts += 1
            if attempts > 100 * self.distinct_bases:
                raise WorkloadError(
                    "could not generate enough distinct bases; reduce distinct_bases"
                )
            basis, prefix = next(candidates)
            if basis in seen:
                continue
            seen.add(basis)
            if prefix is None:
                prefix = rng.getrandbits(prefix_bits) if prefix_bits else 0
            states.append((basis, encode(basis), prefix))
        self._states = states
        return states

    def _words(self) -> List[int]:
        """Each state's undeviated chunk value, ``prefix << n | codeword``.

        A deviation flips one of the low ``n`` bits, so a chunk is its
        state's word XOR the flipped bit.
        """
        n = self.transform.code.n
        return [(prefix << n) | codeword for _, codeword, prefix in self._population()]

    def _count(self, num_chunks: Optional[int]) -> int:
        """The chunk count of one pass (``num_chunks`` overrides the workload's)."""
        count = self.num_chunks if num_chunks is None else num_chunks
        if count <= 0:
            raise WorkloadError(f"chunk count must be positive, got {count}")
        return count

    def bases(self) -> List[int]:
        """The distinct bases of the workload (for static preloading)."""
        return [basis for basis, _, _ in self._population()]

    def iter_chunks(self, num_chunks: Optional[int] = None) -> Iterator[bytes]:
        """Lazily generate chunks (deterministic for a given seed)."""
        raise NotImplementedError

    def chunks(self, num_chunks: Optional[int] = None) -> List[bytes]:
        """Eagerly generate a list of chunks."""
        return list(self.iter_chunks(num_chunks))

    def trace(
        self, num_chunks: Optional[int] = None, name: Optional[str] = None
    ) -> ChunkTrace:
        """A :class:`ChunkTrace` of the chunks (named :attr:`trace_name` by default)."""
        return ChunkTrace(self.chunks(num_chunks), name=name or self.trace_name)
