"""Bounded (sketch) Distribution vs the exact implementation.

The documented contract of ``Distribution(bounded=True)``:

* ``count``, ``min``, ``max`` are *exact* (tracked outside the buckets);
* ``mean`` equals the exact mean bit for bit — both modes fold the same
  values in the same insertion order;
* every percentile estimate is within the configured relative error of
  the exact **nearest-rank** percentile (the gamma-bucket construction
  guarantees the bucket holding the target-rank sample has edges within
  ``relative_error`` of its midpoint);
* memory is fixed: at most ``max_buckets`` buckets per sign plus a few
  scalars, and ``samples`` access is an error by design.
"""

import math
import pickle
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReplayError
from repro.replay.metrics import (
    DEFAULT_MAX_BUCKETS,
    DEFAULT_RELATIVE_ERROR,
    Distribution,
)

PERCENTILES = (0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0)


def _streams():
    """Randomized sample streams covering the shapes latency metrics see."""
    rng = random.Random(1202)
    yield "uniform", [rng.uniform(1e-6, 1e-3) for _ in range(5000)]
    yield "heavy-tail", [rng.expovariate(1.0 / 50e-6) for _ in range(5000)]
    yield "lognormal", [
        math.exp(rng.gauss(-10.0, 2.0)) for _ in range(3000)
    ]
    yield "wide-range", [
        rng.choice((1e-9, 1e-6, 1e-3, 1.0, 1e3)) * rng.uniform(0.5, 2.0)
        for _ in range(2000)
    ]
    yield "with-zeros-and-negatives", [
        rng.choice((-1.0, 0.0, 1.0)) * rng.uniform(0.0, 1e-3)
        for _ in range(4000)
    ]
    yield "tiny", [rng.uniform(1e-12, 2e-12) for _ in range(500)]
    yield "constant", [42.0] * 1000


STREAMS = list(_streams())
STREAM_IDS = [label for label, _ in STREAMS]


def _pair(values, relative_error=DEFAULT_RELATIVE_ERROR):
    exact = Distribution("exact")
    bounded = Distribution("bounded", bounded=True,
                           relative_error=relative_error)
    exact.extend(values)
    bounded.extend(values)
    return exact, bounded


def _nearest_rank(values, percentile):
    """The exact nearest-rank percentile — the bound's reference point."""
    ordered = sorted(values)
    rank = (percentile / 100.0) * (len(ordered) - 1)
    return ordered[min(int(rank + 0.5), len(ordered) - 1)]


class TestExactInvariants:
    @pytest.mark.parametrize("label,values", STREAMS, ids=STREAM_IDS)
    def test_count_min_max_mean_identical(self, label, values):
        exact, bounded = _pair(values)
        assert len(bounded) == len(exact) == len(values)
        exact_summary = exact.summary()
        bounded_summary = bounded.summary()
        assert bounded_summary["count"] == exact_summary["count"]
        assert bounded_summary["min"] == exact_summary["min"] == min(values)
        assert bounded_summary["max"] == exact_summary["max"] == max(values)
        # Both modes left-fold the same floats in the same order, so the
        # mean is not merely close — it is the same float.
        assert bounded.mean() == exact.mean()

    def test_summary_has_the_same_shape(self):
        exact, bounded = _pair([1.0, 2.0, 3.0])
        assert set(bounded.summary()) == set(exact.summary())


class TestPercentileErrorBound:
    @pytest.mark.parametrize("label,values", STREAMS, ids=STREAM_IDS)
    def test_within_documented_relative_error(self, label, values):
        _exact, bounded = _pair(values)
        for percentile in PERCENTILES:
            want = _nearest_rank(values, percentile)
            got = bounded.percentile(percentile)
            assert got == pytest.approx(
                want, rel=DEFAULT_RELATIVE_ERROR, abs=1e-15
            ), f"{label} p{percentile}"

    def test_tighter_relative_error_is_honored(self):
        rng = random.Random(7)
        values = [rng.expovariate(1.0 / 80e-6) for _ in range(4000)]
        _exact, bounded = _pair(values, relative_error=0.001)
        for percentile in PERCENTILES:
            assert bounded.percentile(percentile) == pytest.approx(
                _nearest_rank(values, percentile), rel=0.001
            )

    def test_estimates_clamp_into_the_observed_range(self):
        _exact, bounded = _pair([3.0, 5.0, 7.0, 11.0])
        for percentile in PERCENTILES:
            assert 3.0 <= bounded.percentile(percentile) <= 11.0


class TestBoundedMemory:
    def test_bucket_count_never_exceeds_the_cap(self):
        rng = random.Random(99)
        bounded = Distribution("capped", bounded=True, max_buckets=64)
        # 15 decades of magnitude would need ~1700 buckets at 1% error;
        # the collapse valve must keep the low end folded into 64.
        values = [10 ** rng.uniform(-9.0, 6.0) for _ in range(20000)]
        bounded.extend(values)
        assert len(bounded._positive) <= 64
        # Collapse eats the smallest buckets first, so the top of the
        # range keeps its full resolution.
        for percentile in (99.0, 100.0):
            assert bounded.percentile(percentile) == pytest.approx(
                _nearest_rank(values, percentile), rel=DEFAULT_RELATIVE_ERROR
            )

    def test_a_bounded_distribution_keeps_no_samples(self):
        bounded = Distribution("nostore", bounded=True)
        bounded.add(1.0)
        assert not hasattr(bounded, "_samples")

    def test_default_cap_is_generous_but_finite(self):
        assert DEFAULT_MAX_BUCKETS == 4096


class TestMergeEquivalence:
    def test_merge_matches_single_stream_fold(self):
        rng = random.Random(13)
        left = [rng.uniform(0.0, 1e-3) for _ in range(1500)]
        right = [rng.expovariate(1.0 / 30e-6) for _ in range(1500)]
        merged = Distribution("merged", bounded=True)
        part_a = Distribution("a", bounded=True)
        part_b = Distribution("b", bounded=True)
        part_a.extend(left)
        part_b.extend(right)
        merged.merge(part_a)
        merged.merge(part_b)
        folded = Distribution("folded", bounded=True)
        folded.extend(left)
        folded.extend(right)
        merged_summary = merged.summary()
        folded_summary = folded.summary()
        # The sketch adds bucket-wise, so everything integer-or-order
        # based is identical; only the float sum behind the mean follows
        # the fold's association (two partial sums vs one left fold).
        mean = merged_summary.pop("mean")
        assert mean == pytest.approx(folded_summary.pop("mean"), rel=1e-12)
        assert merged_summary == folded_summary

    def test_merge_of_merges_matches_sequential_merges(self):
        # The property the sharded engine actually relies on: folding the
        # same per-flow partials in the same order gives the same floats,
        # whether the partials come from one process or many.
        rng = random.Random(17)
        parts = []
        for index in range(4):
            part = Distribution(f"part{index}", bounded=True)
            part.extend(rng.uniform(0.0, 1e-3) for _ in range(500))
            parts.append(part)
        first = Distribution("first", bounded=True)
        second = Distribution("second", bounded=True)
        for part in parts:
            first.merge(part)
            second.merge(part)
        assert first.summary() == second.summary()

    def test_mode_mismatch_is_rejected(self):
        exact = Distribution("e")
        bounded = Distribution("b", bounded=True)
        with pytest.raises(ReplayError, match=r"cannot merge"):
            exact.merge(bounded)
        with pytest.raises(ReplayError, match=r"cannot merge"):
            bounded.merge(exact)


class TestPickleRoundTrip:
    """Shard workers ship distributions back as themselves: they pickle."""

    @pytest.mark.parametrize("bounded", [False, True])
    def test_pickle_round_trip_preserves_the_summary(self, bounded):
        rng = random.Random(31)
        dist = Distribution("trip", bounded=bounded)
        dist.extend(rng.uniform(0.0, 1e-3) for _ in range(800))
        clone = pickle.loads(pickle.dumps(dist))
        assert clone.summary() == dist.summary()
        assert clone.bounded == dist.bounded
        # The clone keeps folding exactly like the original would.
        clone.add(5e-4)
        dist.add(5e-4)
        assert clone.summary() == dist.summary()


def _bits(value):
    """A float (or ``None``) as its exact bit pattern."""
    return None if value is None else struct.pack("<d", value)


def _sketch(dist):
    """Everything a bounded sketch keeps, floats as bit patterns."""
    return (
        dist._count,
        _bits(dist._sum),
        _bits(dist._min),
        _bits(dist._max),
        dist._zero,
        dict(dist._positive),
        dict(dist._negative),
    )


#: Samples an ``add`` takes, raises on or wraps: zeros of both signs,
#: negatives, subnormals, huge values, infinities and NaN, and ints (an
#: ``int`` too large for a double raises in ``float()``).
SAMPLES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e-9, max_value=1e3),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300]),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=2**1024, max_value=2**1030),
)


class TestExtendIsAddPerSample:
    """A bounded ``extend`` bins its samples in one loop: the sketch it
    leaves — count, sum, min, max, zeros and every bucket — is bit for bit
    the one ``add`` leaves sample by sample, the collapse valve included,
    and a sample ``add`` raises on raises there too, after the same
    samples."""

    @given(
        values=st.lists(SAMPLES, max_size=60),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
        max_buckets=st.sampled_from([2, 3, 5, DEFAULT_MAX_BUCKETS]),
        relative_error=st.sampled_from([0.5, 0.1, DEFAULT_RELATIVE_ERROR]),
    )
    @settings(max_examples=300, deadline=None)
    def test_extend_equals_add_per_sample(self, values, cuts, max_buckets, relative_error):
        def sketch():
            return Distribution(
                "d", bounded=True, relative_error=relative_error, max_buckets=max_buckets
            )

        added = sketch()
        added_error = None
        for value in values:
            try:
                added.add(value)
            except Exception as error:  # noqa: BLE001 - the type is compared
                added_error = type(error)
                break
        extended = sketch()
        extended_error = None
        bounds = sorted({0, len(values), *(cut for cut in cuts if cut < len(values))})
        try:
            for start, stop in zip(bounds, bounds[1:]):
                extended.extend(values[start:stop])
        except Exception as error:  # noqa: BLE001 - the type is compared
            extended_error = type(error)
        assert extended_error is added_error
        assert _sketch(extended) == _sketch(added)

    def test_the_collapse_valve_leaves_the_same_buckets(self):
        values = [10.0**exponent for exponent in range(-8, 9)] * 3
        added = Distribution("a", bounded=True, max_buckets=4)
        for value in values:
            added.add(value)
        extended = Distribution("e", bounded=True, max_buckets=4)
        extended.extend(values)
        assert len(extended._positive) == 4
        assert _sketch(extended) == _sketch(added)
