"""Deterministic random-number-generator helpers.

Every stochastic component in the library (language-model sampling, simulator
dynamics, synthetic perception) takes either an integer seed or a
``numpy.random.Generator``.  These helpers normalise both forms and derive
independent child generators for multi-seed experiments.
"""

from __future__ import annotations

import numpy as np


def seeded_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for fresh OS entropy, an ``int`` for a reproducible stream,
        or an existing ``Generator`` which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | None, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from one seed.

    Used for multi-seed experiments (e.g. the five seeds of Figure 8) so each
    seed's stream is independent yet the whole experiment is reproducible.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def spawn_lane_rngs(
    seed: int | np.random.Generator | None, count: int
) -> list[np.random.Generator]:
    """Derive ``count`` per-lane child generators from a seed or live generator.

    Lane ``i`` always receives the ``i``-th child stream, independent of how
    many other lanes exist or in what order they are stepped — the property
    that makes batched LM decoding token-identical to the serial path.  Unlike
    :func:`spawn_rngs` this accepts a live ``Generator``: spawning advances its
    internal spawn counter, so successive calls on the same generator yield
    fresh, non-overlapping families (one per sampling task).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return list(seeded_rng(seed).spawn(count))
