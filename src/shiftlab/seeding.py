"""Deterministic random streams for experiments.

Every random draw in the package goes through `stream`, which builds a
counter-based Philox generator from a 64-bit seed plus a tuple of integer
tags (experiment id, trial index, step index, ...). Distinct tag tuples
give independent streams, and the same (seed, tags) pair replays the same
draws on any platform.
"""

from __future__ import annotations

import numpy as np

# Tag namespaces, so different experiments never collide on (seed, trial, step).
TAG_DENSE = 1
TAG_JITTER = 2
TAG_STABILITY = 3
TAG_SEMICONT = 4
TAG_ZERO_SETS = 5
TAG_SERIES = 6
TAG_BASIS = 7


def stream(seed: int, *tags: int) -> np.random.Generator:
    """Return a Generator seeded by (seed, *tags)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed),) + tuple(int(t) for t in tags))))


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array (independent real and imaginary parts)."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def complex_uniform_square(rng: np.random.Generator, count: int, length: int) -> np.ndarray:
    """count series of length coefficients uniform on the complex square [-1, 1] x [-1, 1]i.

    Each series draws its real parts, then its imaginary parts, before the
    next series starts; the result has shape (count, length).
    """
    parts = rng.uniform(-1.0, 1.0, (count, 2, length))
    return parts[:, 0] + 1j * parts[:, 1]
