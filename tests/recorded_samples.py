"""The raw samples of an exact :class:`~repro.replay.metrics.Distribution`.

Only tests compare a distribution's samples one by one (a report reads
its summary and percentiles); a bounded distribution keeps none.
"""


def recorded_samples(distribution):
    """A copy of the recorded samples, in insertion order."""
    assert not distribution.bounded, (
        f"bounded distribution {distribution.name!r} retains no samples"
    )
    return list(distribution._samples)
