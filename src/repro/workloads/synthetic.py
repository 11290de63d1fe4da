"""Synthetic sensor-readout workload (the paper's synthetic dataset).

Section 7: "We engineered the synthetic dataset to be behaviorally close to
typical readouts from a sensor.  We generate 3,124,000 chunks of 256 bit
(matching the parameters we chose), which are then converted to a pcap trace
of Ethernet packets containing the chunks as payload."

A sensor produces readings that hover around a small number of operating
points with small perturbations — exactly the structure GD exploits: most
chunks are within one bit-flip of a small set of codewords, so they share a
small set of bases.  The generator below makes that structure explicit and
controllable:

* ``distinct_bases`` operating points are built as structured sensor frames
  (a device identifier, a status word, and 16-bit samples hovering around a
  per-device baseline), so the byte content is realistically low-entropy and
  a dictionary compressor (gzip) performs the way the paper reports;
* each chunk picks an operating point with temporal locality (sensor
  readings are bursty) and applies either no deviation or a single-bit
  deviation, both of which GD captures exactly;
* an optional ``noise_fraction`` of chunks are fully random, modelling
  occasional readings that do not share a basis with anything (these stay
  type 2 forever and bound the achievable ratio, like sensor glitches).

With the defaults the workload reproduces the Figure 3 synthetic bars:
≈ 1.03 for *no table*, ≈ 0.09 for *static table*, ≈ 0.11 for *dynamic
learning* at the paper's replay conditions, and ≈ 0.09 for gzip over the
concatenated payloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.core.hamming import HammingCode
from repro.core.transform import GDTransform
from repro.exceptions import WorkloadError
from repro.workloads.traces import ChunkTrace

__all__ = ["SyntheticSensorWorkload", "PAPER_SYNTHETIC_CHUNKS"]

#: Number of chunks in the paper's synthetic dataset (≈ 100 MB of payload).
PAPER_SYNTHETIC_CHUNKS = 3_124_000


@dataclass(frozen=True)
class _SensorState:
    """One operating point: a basis, its codeword, and a fixed prefix bit."""

    basis: int
    codeword: int
    prefix: int


class SyntheticSensorWorkload:
    """Generate sensor-like chunks clustered around a bounded set of bases.

    Parameters
    ----------
    num_chunks:
        Total chunks to generate (the paper uses 3,124,000; tests and the
        scaled benchmark use fewer).
    distinct_bases:
        Number of operating points.  Must not exceed the dictionary capacity
        if the static scenario is to hold every mapping.
    order:
        Hamming order ``m`` (8 in the paper → 256-bit chunks).
    locality:
        Probability that a chunk reuses the previous chunk's operating point
        (sensor readings are bursty); 0 draws independently every time.
    deviation_probability:
        Probability that a chunk deviates from its codeword by one bit
        (otherwise the codeword itself is sent).
    noise_fraction:
        Fraction of chunks that are completely random (share no basis).
    seed:
        RNG seed; generation is fully deterministic given the seed.
    """

    def __init__(
        self,
        num_chunks: int = 100_000,
        distinct_bases: int = 1_000,
        order: int = 8,
        locality: float = 0.92,
        deviation_probability: float = 0.5,
        noise_fraction: float = 0.0,
        num_devices: int = 8,
        sample_spread: int = 2,
        seed: int = 2020,
    ):
        if num_chunks <= 0:
            raise WorkloadError(f"num_chunks must be positive, got {num_chunks}")
        if distinct_bases <= 0:
            raise WorkloadError(f"distinct_bases must be positive, got {distinct_bases}")
        if not 0.0 <= locality <= 1.0:
            raise WorkloadError(f"locality must be within [0, 1], got {locality}")
        if not 0.0 <= deviation_probability <= 1.0:
            raise WorkloadError(
                f"deviation_probability must be within [0, 1], got {deviation_probability}"
            )
        if not 0.0 <= noise_fraction <= 1.0:
            raise WorkloadError(
                f"noise_fraction must be within [0, 1], got {noise_fraction}"
            )
        if num_devices <= 0:
            raise WorkloadError(f"num_devices must be positive, got {num_devices}")
        if sample_spread < 0:
            raise WorkloadError(f"sample_spread cannot be negative, got {sample_spread}")
        self.num_chunks = num_chunks
        self.distinct_bases = distinct_bases
        self.order = order
        self.locality = locality
        self.deviation_probability = deviation_probability
        self.noise_fraction = noise_fraction
        self.num_devices = num_devices
        self.sample_spread = sample_spread
        self.seed = seed
        self._transform = GDTransform(order=order)
        self._states: Optional[List[_SensorState]] = None

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

    def _sensor_prototype(self, rng: random.Random, baselines: Sequence[int]) -> bytes:
        """One structured sensor frame of exactly ``chunk_bytes`` bytes.

        Layout: 2-byte device identifier, 2-byte status word, then 16-bit
        samples hovering around the device's baseline.  The structure keeps
        the byte-level entropy low (like real telemetry), which matters for
        the gzip comparison; GD only cares that the frames cluster.
        """
        device = rng.randrange(len(baselines))
        baseline = baselines[device]
        frame = bytearray()
        frame += device.to_bytes(2, "big")
        frame += (0xA000 | device).to_bytes(2, "big")
        while len(frame) < self.chunk_bytes:
            sample = baseline + rng.randint(-self.sample_spread, self.sample_spread)
            sample = max(0, min(0xFFFF, sample))
            frame += sample.to_bytes(2, "big")
        return bytes(frame[: self.chunk_bytes])

    def _sensor_states(self) -> List[_SensorState]:
        """The operating points, generated lazily and cached."""
        if self._states is not None:
            return self._states
        rng = random.Random(self.seed)
        code: HammingCode = self._transform.code
        baselines = [rng.randrange(1_000, 60_000) for _ in range(self.num_devices)]
        states: List[_SensorState] = []
        seen = set()
        attempts = 0
        while len(states) < self.distinct_bases:
            attempts += 1
            if attempts > 100 * self.distinct_bases:
                raise WorkloadError(
                    "could not generate enough distinct bases; reduce distinct_bases "
                    "or increase sample_spread / num_devices"
                )
            prototype = self._sensor_prototype(rng, baselines)
            parts = self._transform.split(prototype)
            if parts.basis in seen:
                continue
            seen.add(parts.basis)
            states.append(
                _SensorState(
                    basis=parts.basis,
                    codeword=code.encode(parts.basis),
                    prefix=parts.prefix,
                )
            )
        self._states = states
        return states

    def bases(self) -> List[int]:
        """The distinct bases of the workload (for static preloading)."""
        return [state.basis for state in self._sensor_states()]

    def iter_chunks(self, num_chunks: Optional[int] = None) -> Iterator[bytes]:
        """Lazily generate chunks (deterministic for a given seed)."""
        count = self.num_chunks if num_chunks is None else num_chunks
        if count <= 0:
            raise WorkloadError(f"chunk count must be positive, got {count}")
        rng = random.Random(self.seed + 1)
        states = self._sensor_states()
        code = self._transform.code
        chunk_bits = self._transform.chunk_bits
        chunk_bytes = self.chunk_bytes
        n = code.n

        current = rng.choice(states)
        for _ in range(count):
            if self.noise_fraction and rng.random() < self.noise_fraction:
                yield rng.getrandbits(chunk_bits).to_bytes(chunk_bytes, "big")
                continue
            if rng.random() >= self.locality:
                current = rng.choice(states)
            body = current.codeword
            if rng.random() < self.deviation_probability:
                body ^= 1 << rng.randrange(n)
            value = (current.prefix << n) | body
            yield value.to_bytes(chunk_bytes, "big")

    def chunks(self, num_chunks: Optional[int] = None) -> List[bytes]:
        """Eagerly generate a list of chunks."""
        return list(self.iter_chunks(num_chunks))

    def trace(self, num_chunks: Optional[int] = None, name: str = "synthetic") -> ChunkTrace:
        """Generate a :class:`ChunkTrace` (the Figure 3 input object)."""
        return ChunkTrace(self.chunks(num_chunks), name=name)
