"""Seeded link impairments: which frames a hop loses or delays.

:class:`ImpairmentModel` is the random part of an
:class:`~repro.replay.link.EmulatedLink`: each link draws its loss and
reordering decisions from its own seeded stream, in the order frames reach
it, so a replay is exactly reproducible.
"""

from __future__ import annotations

import random

from repro.exceptions import ReproError

__all__ = ["ImpairmentModel"]


class ImpairmentModel:
    """Seeded stochastic impairments of a link: loss and reordering.

    The replay subsystem needs *reproducible* packet loss and reordering:
    two runs with the same seed must drop and delay exactly the same
    packets, and two links in the same topology must not share one RNG
    stream (or adding a hop would silently change which packets another
    hop drops).  The seed is therefore part of the constructor signature,
    and :meth:`fork` derives an independent, equally deterministic stream
    for each additional link.

    Parameters
    ----------
    loss_probability:
        Per-packet probability of the frame being dropped on the wire.
    reorder_probability:
        Per-packet probability of the frame being held back by
        ``reorder_delay`` seconds after serialisation, letting later
        frames overtake it.
    reorder_delay:
        Extra delivery delay applied to reordered frames.
    seed:
        RNG seed.  The decision sequence is fully determined by it.
    """

    def __init__(
        self,
        loss_probability: float = 0.0,
        reorder_probability: float = 0.0,
        reorder_delay: float = 10e-6,
        seed: int = 0,
    ):
        if not 0.0 <= loss_probability <= 1.0:
            raise ReproError(
                f"loss probability must be within [0, 1], got {loss_probability}"
            )
        if not 0.0 <= reorder_probability <= 1.0:
            raise ReproError(
                f"reorder probability must be within [0, 1], got {reorder_probability}"
            )
        if reorder_delay < 0:
            raise ReproError(f"reorder delay cannot be negative, got {reorder_delay}")
        self.loss_probability = loss_probability
        self.reorder_probability = reorder_probability
        self.reorder_delay = reorder_delay
        self.seed = seed
        self._rng = random.Random(seed)

    def should_drop(self) -> bool:
        """Decide the fate of the next frame (advances the RNG stream)."""
        if self.loss_probability == 0.0:
            return False
        return self._rng.random() < self.loss_probability

    def reorder_penalty(self) -> float:
        """Extra delivery delay for the next frame (0.0 = stays in order)."""
        if self.reorder_probability == 0.0:
            return 0.0
        if self._rng.random() < self.reorder_probability:
            return self.reorder_delay
        return 0.0

    def fork(self, index: int) -> "ImpairmentModel":
        """An independent model with the same parameters for another link.

        The derived seed depends only on ``(seed, index)``, so multi-hop
        topologies stay reproducible while each hop draws from its own
        stream.
        """
        if index < 0:
            raise ReproError(f"fork index must be non-negative, got {index}")
        return ImpairmentModel(
            loss_probability=self.loss_probability,
            reorder_probability=self.reorder_probability,
            reorder_delay=self.reorder_delay,
            seed=(self.seed * 1_000_003 + index + 1) & 0xFFFFFFFF,
        )

    def __repr__(self) -> str:
        return (
            f"ImpairmentModel(loss={self.loss_probability}, "
            f"reorder={self.reorder_probability}, seed={self.seed})"
        )
