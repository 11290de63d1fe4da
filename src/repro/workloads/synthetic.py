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
  deviation, both of which GD captures exactly.

The frames come from :data:`NUM_DEVICES` devices whose samples stay
within :data:`SAMPLE_SPREAD` of the device's baseline.

With the defaults the workload reproduces the Figure 3 synthetic bars:
≈ 1.03 for *no table*, ≈ 0.09 for *static table*, ≈ 0.11 for *dynamic
learning* at the paper's replay conditions, and ≈ 0.09 for gzip over the
concatenated payloads.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Tuple

from repro.exceptions import WorkloadError
from repro.workloads.codewords import CodewordWorkload

__all__ = ["SyntheticSensorWorkload", "PAPER_SYNTHETIC_CHUNKS"]

#: Number of chunks in the paper's synthetic dataset (≈ 100 MB of payload).
PAPER_SYNTHETIC_CHUNKS = 3_124_000

#: Devices whose frames make up the operating points.
NUM_DEVICES = 8

#: How far a 16-bit sample strays from its device's baseline, either way.
#: Baselines lie in [1000, 60000), so a sample never leaves 16 bits.
SAMPLE_SPREAD = 2


class SyntheticSensorWorkload(CodewordWorkload):
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
    seed:
        RNG seed; generation is fully deterministic given the seed.
    """

    trace_name = "synthetic"

    def __init__(
        self,
        num_chunks: int = 100_000,
        distinct_bases: int = 1_000,
        order: int = 8,
        locality: float = 0.92,
        deviation_probability: float = 0.5,
        seed: int = 2020,
    ):
        super().__init__(num_chunks, distinct_bases, order, deviation_probability, seed)
        if not 0.0 <= locality <= 1.0:
            raise WorkloadError(f"locality must be within [0, 1], got {locality}")
        self.locality = locality

    def _candidates(self, rng: random.Random) -> Iterator[Tuple[int, Optional[int]]]:
        """Structured sensor frames of exactly ``chunk_bytes``, split.

        Layout: 2-byte device identifier, 2-byte status word, then 16-bit
        samples hovering around the device's baseline.  The structure keeps
        the byte-level entropy low (like real telemetry), which matters for
        the gzip comparison; GD only cares that the frames cluster.
        """
        baselines = [rng.randrange(1_000, 60_000) for _ in range(NUM_DEVICES)]
        chunk_bytes = self.chunk_bytes
        split = self.transform.split
        while True:
            device = rng.randrange(NUM_DEVICES)
            baseline = baselines[device]
            frame = bytearray()
            frame += device.to_bytes(2, "big")
            frame += (0xA000 | device).to_bytes(2, "big")
            while len(frame) < chunk_bytes:
                sample = baseline + rng.randint(-SAMPLE_SPREAD, SAMPLE_SPREAD)
                frame += sample.to_bytes(2, "big")
            parts = split(bytes(frame[:chunk_bytes]))
            yield parts.basis, parts.prefix

    def iter_chunks(self, num_chunks: Optional[int] = None) -> Iterator[bytes]:
        """Lazily generate chunks (deterministic for a given seed)."""
        count = self._count(num_chunks)
        rng = random.Random(self.seed + 1)
        random_ = rng.random
        getrandbits = rng.getrandbits
        words = self._words()
        chunk_bytes = self.chunk_bytes
        n = self.transform.code.n
        locality = self.locality
        deviation_probability = self.deviation_probability
        # Random.choice(words) and Random.randrange(n) drawn inline: the
        # first r = getrandbits(size.bit_length()) below the size, the
        # rejection loop of CPython's Random._randbelow.
        population = len(words)
        word_bits = population.bit_length()
        position_bits = n.bit_length()

        current = rng.choice(words)
        for _ in range(count):
            if random_() >= locality:
                drawn = getrandbits(word_bits)
                while drawn >= population:
                    drawn = getrandbits(word_bits)
                current = words[drawn]
            value = current
            if random_() < deviation_probability:
                position = getrandbits(position_bits)
                while position >= n:
                    position = getrandbits(position_bits)
                value ^= 1 << position
            yield value.to_bytes(chunk_bytes, "big")
