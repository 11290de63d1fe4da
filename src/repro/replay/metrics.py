"""Metrics collection for replay runs: one registry and its collectors.

Every component of a replayed topology already counts things — switch
counter sets, link taps, link stats, control-plane stats, match-action
table occupancy.  :class:`MetricsRegistry` is the funnel that collects all
of them under namespaced keys (``encoder.raw_to_compressed``,
``link0.dropped_loss``, …) together with value *distributions* (end-to-end
latency, queueing delay) whose percentiles the report prints.  The report
itself is :class:`repro.topology.report.TopologyReport`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.exceptions import ReplayError

__all__ = [
    "Distribution",
    "MetricsRegistry",
    "IntegrityResult",
    "collect_switch_metrics",
    "collect_link_metrics",
    "collect_wire_metrics",
]

Number = Union[int, float]

#: Percentiles every distribution summary reports.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)


#: Default relative error of a bounded distribution's percentile estimates.
DEFAULT_RELATIVE_ERROR = 0.01

#: Default cap on log-spaced buckets per sign.  At the default relative
#: error this covers an astronomically wide dynamic range, so the
#: lowest-bucket collapse below is a safety valve, not a working mode.
DEFAULT_MAX_BUCKETS = 4096


class Distribution:
    """A sample collection with percentile summaries.

    Two storage modes share one interface:

    * **exact** (the default) retains every sample, packed as a C double
      (8 bytes each, in insertion order).  Percentiles use linear
      interpolation between closest ranks (the same convention as
      ``numpy.percentile``'s default), computed lazily over a cached sort.
    * **bounded** (``bounded=True``) keeps a fixed-size log-bucketed sketch
      (the DDSketch construction): ``count``, ``sum``, ``min`` and ``max``
      are tracked exactly — so ``mean()`` and the summary extremes match
      the exact mode bit for bit — while each sample lands in the bucket
      ``ceil(log_gamma |v|)`` with ``gamma = (1+a)/(1-a)`` for relative
      error ``a``.  ``percentile(p)`` returns the bucket midpoint of the
      nearest-rank sample, clamped to ``[min, max]``; the estimate is
      guaranteed within ``relative_error`` of the exact nearest-rank value
      (as long as the ``max_buckets`` collapse valve never fires, which at
      the defaults needs a dynamic range beyond any simulated latency).
      Memory is O(max_buckets), independent of the stream length.

    >>> latency = Distribution("endtoend.latency")
    >>> latency.extend([1.0, 2.0, 3.0, 4.0])
    >>> latency.percentile(50)
    2.5
    >>> latency.summary()["max"]
    4.0
    """

    def __init__(
        self,
        name: str = "",
        bounded: bool = False,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ):
        self.name = name
        self._bounded = bounded
        if bounded:
            if not 0.0 < relative_error < 1.0:
                raise ReplayError(
                    f"distribution {name!r}: relative_error must be in (0, 1), "
                    f"got {relative_error!r}"
                )
            if max_buckets < 2:
                raise ReplayError(
                    f"distribution {name!r}: max_buckets must be at least 2, "
                    f"got {max_buckets!r}"
                )
            self._relative_error = float(relative_error)
            self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
            self._log_gamma = math.log(self._gamma)
            self._max_buckets = max_buckets
            self._count = 0
            self._sum = 0.0
            self._min: Optional[float] = None
            self._max: Optional[float] = None
            self._zero = 0
            self._positive: Dict[int, int] = {}
            self._negative: Dict[int, int] = {}
            # Resolved once: a bounded sample goes straight to the sketch.
            self.add = self._add_bounded
        else:
            self._samples = array("d")
            self._sorted: Optional[array] = None

    @property
    def bounded(self) -> bool:
        """True when this distribution is a fixed-size sketch."""
        return self._bounded

    # -- recording -----------------------------------------------------------

    def _bucket_value(self, index: int) -> float:
        # Midpoint of (gamma^(i-1), gamma^i]: within relative_error of every
        # value the bucket can hold (exactly +/-a at the bucket edges).
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    @staticmethod
    def _collapse(buckets: Dict[int, int], limit: int) -> None:
        # Safety valve: fold the lowest bucket into its neighbour so the
        # sketch never exceeds the cap (degrading accuracy only at the far
        # low tail of an extreme dynamic range).
        while len(buckets) > limit:
            ordered = sorted(buckets)
            buckets[ordered[1]] += buckets.pop(ordered[0])

    def _add_bounded(self, value: Number) -> None:
        # Sample ``v`` lands in bucket ``ceil(log_gamma |v|)``.
        value = float(value)
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value > 0.0:
            index = math.ceil(math.log(value) / self._log_gamma)
            self._positive[index] = self._positive.get(index, 0) + 1
            if len(self._positive) > self._max_buckets:
                self._collapse(self._positive, self._max_buckets)
        elif value < 0.0:
            index = math.ceil(math.log(-value) / self._log_gamma)
            self._negative[index] = self._negative.get(index, 0) + 1
            if len(self._negative) > self._max_buckets:
                self._collapse(self._negative, self._max_buckets)
        else:
            self._zero += 1

    def _extend_bounded(self, values: Sequence[Number]) -> None:
        # ``_add_bounded`` with the sketch's state held in locals; a sample
        # that raises leaves what ``add`` would have left.
        count = self._count
        total = self._sum
        low = self._min
        high = self._max
        zero = self._zero
        positive = self._positive
        negative = self._negative
        log_gamma = self._log_gamma
        limit = self._max_buckets
        log = math.log
        ceil = math.ceil
        try:
            for value in map(float, values):
                count += 1
                total += value
                if low is None or value < low:
                    low = value
                if high is None or value > high:
                    high = value
                if value > 0.0:
                    index = ceil(log(value) / log_gamma)
                    positive[index] = positive.get(index, 0) + 1
                    if len(positive) > limit:
                        self._collapse(positive, limit)
                elif value < 0.0:
                    index = ceil(log(-value) / log_gamma)
                    negative[index] = negative.get(index, 0) + 1
                    if len(negative) > limit:
                        self._collapse(negative, limit)
                else:
                    zero += 1
        finally:
            self._count = count
            self._sum = total
            self._min = low
            self._max = high
            self._zero = zero

    def add(self, value: Number) -> None:
        """Record one sample (a bounded distribution replaces this method
        with its sketch's, when it is built)."""
        self._samples.append(float(value))
        self._sorted = None

    def extend(self, values: Sequence[Number]) -> None:
        """Record many samples.

        Exact mode takes an ``array('d')`` — what a link's queueing delays
        and another exact distribution's samples are — as it is, in C; any
        other sequence is converted sample by sample.  Either way the
        samples and their order are the same.  A bounded sketch bins the
        samples in one loop, in order, exactly as one :meth:`add` each
        would: the same ``sum`` bit for bit, the same buckets, the
        collapse valve at the same sample.
        """
        if self._bounded:
            self._extend_bounded(values)
            return
        if isinstance(values, array) and values.typecode == "d":
            self._samples.extend(values)
        else:
            self._samples.extend(float(value) for value in values)
        if values:
            self._sorted = None

    def merge(self, other: "Distribution") -> None:
        """Fold another distribution of the same mode into this one.

        Exact mode appends the other's samples in their insertion order;
        bounded mode adds the sketches bucket-wise (integer counts, so a
        merge of merges is associative and order-independent except for
        the floating-point ``sum``, which follows merge order exactly like
        sequential :meth:`add` calls would).
        """
        if self._bounded != other._bounded:
            raise ReplayError(
                f"cannot merge {'bounded' if other._bounded else 'exact'} "
                f"distribution {other.name!r} into "
                f"{'bounded' if self._bounded else 'exact'} {self.name!r}"
            )
        if not self._bounded:
            self.extend(other._samples)
            return
        if other._relative_error != self._relative_error:
            raise ReplayError(
                f"cannot merge distribution {other.name!r} "
                f"(relative_error {other._relative_error}) into {self.name!r} "
                f"(relative_error {self._relative_error})"
            )
        if other._count == 0:
            return
        self._count += other._count
        self._sum += other._sum
        if self._min is None or other._min < self._min:
            self._min = other._min
        if self._max is None or other._max > self._max:
            self._max = other._max
        self._zero += other._zero
        for index, count in other._positive.items():
            self._positive[index] = self._positive.get(index, 0) + count
        for index, count in other._negative.items():
            self._negative[index] = self._negative.get(index, 0) + count
        self._collapse(self._positive, self._max_buckets)
        self._collapse(self._negative, self._max_buckets)

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        if self._bounded:
            return self._count
        return len(self._samples)

    @property
    def empty(self) -> bool:
        """True when no sample has been recorded."""
        return len(self) == 0

    def mean(self) -> float:
        """Arithmetic mean of the samples (exact in both modes)."""
        if self.empty:
            raise ReplayError(f"distribution {self.name!r} has no samples")
        if self._bounded:
            return self._sum / self._count
        return sum(self._samples) / len(self._samples)

    def _clamp(self, value: float) -> float:
        return max(self._min, min(value, self._max))

    def _bounded_percentile(self, p: float) -> float:
        rank = (p / 100.0) * (self._count - 1)
        target = min(int(rank + 0.5), self._count - 1)  # nearest rank
        cumulative = 0
        for index in sorted(self._negative, reverse=True):
            cumulative += self._negative[index]
            if cumulative > target:
                return self._clamp(-self._bucket_value(index))
        cumulative += self._zero
        if cumulative > target:
            return self._clamp(0.0)
        for index in sorted(self._positive):
            cumulative += self._positive[index]
            if cumulative > target:
                return self._clamp(self._bucket_value(index))
        return self._max

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0–100) of the samples.

        In bounded mode this is the sketch estimate: within
        ``relative_error`` of the exact nearest-rank percentile.
        """
        if self.empty:
            raise ReplayError(f"distribution {self.name!r} has no samples")
        if not 0.0 <= p <= 100.0:
            raise ReplayError(f"percentile must be within [0, 100], got {p}")
        if self._bounded:
            return self._bounded_percentile(p)
        if self._sorted is None:
            self._sorted = array("d", sorted(self._samples))
        ordered = self._sorted
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lower = int(rank)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = rank - lower
        return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction

    def summary(
        self, percentiles: Sequence[float] = DEFAULT_PERCENTILES
    ) -> Dict[str, float]:
        """Count, mean, min/max and the requested percentiles."""
        if self.empty:
            return {"count": 0}
        if self._bounded:
            result: Dict[str, float] = {
                "count": self._count,
                "mean": self.mean(),
                "min": self._min,
                "max": self._max,
            }
        else:
            result = {
                "count": len(self._samples),
                "mean": self.mean(),
                "min": min(self._samples),
                "max": max(self._samples),
            }
        for p in percentiles:
            key = f"p{p:g}"
            result[key] = self.percentile(p)
        return result


class MetricsRegistry:
    """Namespaced counters, gauges and distributions from many components.

    Counter keys are ``component.metric`` strings; :meth:`merge_counters`
    bulk-imports a component's counter dict under its namespace, which is
    how switch counter sets, link stats and control-plane stats land here
    without those components knowing about the registry.

    ``bounded_distributions=True`` makes every distribution created through
    :meth:`distribution` a fixed-size sketch (see :class:`Distribution`) —
    the registry mode the topology engine's streaming metrics use so scale
    runs never retain per-sample state.
    """

    def __init__(
        self,
        bounded_distributions: bool = False,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
    ) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._distributions: Dict[str, Distribution] = {}
        self._bounded_distributions = bounded_distributions
        self._relative_error = relative_error

    # -- counters ------------------------------------------------------------

    def increment(self, name: str, amount: Number = 1) -> None:
        """Add ``amount`` to a counter (creating it at zero)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def merge_counters(self, namespace: str, counters: Mapping[str, Number]) -> None:
        """Import a component's counters under ``namespace.*`` (additive)."""
        for key, value in counters.items():
            if value is None:
                continue
            self.increment(f"{namespace}.{key}", value)

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never touched)."""
        return self._counters.get(name, 0)

    # -- gauges ---------------------------------------------------------------

    def set_gauge(self, name: str, value: Number) -> None:
        """Record a point-in-time value (last write wins)."""
        self._gauges[name] = float(value)

    # -- distributions ----------------------------------------------------------

    def distribution(self, name: str) -> Distribution:
        """The named distribution, created on first use."""
        if name not in self._distributions:
            self._distributions[name] = Distribution(
                name,
                bounded=self._bounded_distributions,
                relative_error=self._relative_error,
            )
        return self._distributions[name]

    def add_distribution(self, dist: Distribution) -> Distribution:
        """Adopt an externally-built distribution under its own name."""
        if dist.name in self._distributions:
            raise ReplayError(
                f"distribution {dist.name!r} is already registered"
            )
        self._distributions[dist.name] = dist
        return dist

    def distributions(self) -> Dict[str, Distribution]:
        """All registered distributions by name."""
        return dict(self._distributions)

    def select(self, keep: Callable[[str], bool]) -> "MetricsRegistry":
        """A registry of the entries whose name ``keep`` accepts.

        Distributions are shared with this registry, not copied.
        """
        selected = MetricsRegistry(self._bounded_distributions, self._relative_error)
        for source, target in (
            (self._counters, selected._counters),
            (self._gauges, selected._gauges),
            (self._distributions, selected._distributions),
        ):
            target.update((name, value) for name, value in source.items() if keep(name))
        return selected

    def absorb(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` in: counters add, gauges overwrite, distributions
        are adopted (shared, not copied; a name held twice is an error)."""
        for name, value in other._counters.items():
            self.increment(name, value)
        self._gauges.update(other._gauges)
        for dist in other._distributions.values():
            self.add_distribution(dist)

    # -- export -----------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Everything the registry holds, as plain JSON-friendly data."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "distributions": {
                name: dist.summary()
                for name, dist in sorted(self._distributions.items())
            },
        }

    def counter_rows(self) -> List[List[object]]:
        """``[name, value]`` rows of every counter, for tables."""
        return [
            [name, int(value) if float(value).is_integer() else value]
            for name, value in sorted(self._counters.items())
        ]


# ---------------------------------------------------------------------------
# component collectors
# ---------------------------------------------------------------------------
#
# Every replayed topology folds the same component families into a registry:
# ZipLine switches, emulated links, the measured-link tap.  All arguments are
# duck-typed — the collectors only touch the narrow counter interfaces the
# components already expose.


def collect_switch_metrics(
    metrics: "MetricsRegistry",
    encoder=None,
    decoder=None,
    encoder_prefix: str = "encoder",
    decoder_prefix: str = "decoder",
) -> None:
    """Fold ZipLine encoder/decoder switch counters into the registry.

    Frames a switch's parser rejected (runts, malformed headers) appear as
    ``<switch>.parse_errors``, only when there were any.
    """
    for switch, prefix in ((encoder, encoder_prefix), (decoder, decoder_prefix)):
        if switch is not None and switch.pipeline.parse_errors:
            metrics.increment(f"{prefix}.parse_errors", switch.pipeline.parse_errors)
    if encoder is not None:
        for label, sample in encoder.counters.as_dict().items():
            metrics.increment(f"{encoder_prefix}.{label}", sample.packets)
            metrics.increment(f"{encoder_prefix}.{label}_bytes", sample.bytes)
        hits = encoder.counters.read("raw_to_compressed").packets
        misses = encoder.counters.read("raw_to_uncompressed").packets
        if hits + misses:
            metrics.set_gauge(
                f"{encoder_prefix}.dictionary_hit_rate", hits / (hits + misses)
            )
        metrics.set_gauge(
            f"{encoder_prefix}.dictionary_entries", len(encoder.known_bases())
        )
        engine = encoder.digest_engine
        metrics.increment(f"{encoder_prefix}.digests_emitted", engine.emitted)
        metrics.increment(f"{encoder_prefix}.digests_dropped", engine.dropped)
    if decoder is not None:
        for label, sample in decoder.counters.as_dict().items():
            metrics.increment(f"{decoder_prefix}.{label}", sample.packets)
            metrics.increment(f"{decoder_prefix}.{label}_bytes", sample.bytes)
        metrics.set_gauge(
            f"{decoder_prefix}.dictionary_entries",
            sum(1 for _ in decoder.mapping_table.entries()),
        )


def collect_link_metrics(metrics: "MetricsRegistry", links) -> None:
    """Fold per-link counters and queueing-delay samples into the registry."""
    for link in links:
        metrics.merge_counters(link.name, link.stats.as_dict())
        metrics.distribution(f"{link.name}.queueing_delay").extend(
            link.stats.queueing_delays
        )


def collect_wire_metrics(metrics: "MetricsRegistry", tap, prefix: str = "wire") -> None:
    """Fold the measured link tap's per-type accounting into the registry."""
    from repro.net.packets import PacketKind

    counts = tap.count_by_kind()
    payload = tap.payload_bytes_by_kind()
    metrics.increment(f"{prefix}.raw_packets", counts[PacketKind.RAW])
    metrics.increment(
        f"{prefix}.uncompressed_packets", counts[PacketKind.PROCESSED_UNCOMPRESSED]
    )
    metrics.increment(
        f"{prefix}.compressed_packets", counts[PacketKind.PROCESSED_COMPRESSED]
    )
    metrics.increment(f"{prefix}.raw_payload_bytes", payload[PacketKind.RAW])
    metrics.increment(
        f"{prefix}.uncompressed_payload_bytes",
        payload[PacketKind.PROCESSED_UNCOMPRESSED],
    )
    metrics.increment(
        f"{prefix}.compressed_payload_bytes", payload[PacketKind.PROCESSED_COMPRESSED]
    )


@dataclass(frozen=True)
class IntegrityResult:
    """Outcome of the end-to-end payload verification.

    ``matched`` received chunks were byte-identical to a sent chunk;
    ``corrupted`` received chunks matched nothing that was sent;
    ``missing`` sent chunks never arrived (loss); ``out_of_order`` counts
    received chunks that arrived after a chunk sent later than them.

    ``intact`` is the replay-level verdict: nothing arrived corrupted.
    Losses are a *documented, counted* failure mode of a lossy link, not a
    corruption — the acceptance distinction the lossy-link tests assert.

    When the trace contains duplicate chunk contents *and* frames were
    lost, the FIFO content matcher can attribute a surviving duplicate to
    an earlier lost copy, so ``out_of_order`` is exact on loss-free runs
    but an upper bound on lossy ones.
    """

    sent: int
    received: int
    matched: int
    corrupted: int
    missing: int
    out_of_order: int

    @property
    def intact(self) -> bool:
        """True when every delivered chunk was byte-identical to a sent one."""
        return self.corrupted == 0

    @property
    def lossless_in_order(self) -> bool:
        """True for the strict loss-free verdict: all chunks back, in order."""
        return (
            self.corrupted == 0
            and self.missing == 0
            and self.out_of_order == 0
            and self.sent == self.received
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view used by the reporting helpers."""
        return {
            "sent": self.sent,
            "received": self.received,
            "matched": self.matched,
            "corrupted": self.corrupted,
            "missing": self.missing,
            "out_of_order": self.out_of_order,
            "intact": self.intact,
            "lossless_in_order": self.lossless_in_order,
        }
