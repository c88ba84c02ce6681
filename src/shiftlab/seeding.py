"""Deterministic random streams for experiments.

`stream` builds a counter-based Philox generator from a 64-bit seed plus a
tuple of integer tags (experiment id, trial index, step index, ...).
Distinct tag tuples give independent streams, and the same (seed, tags)
pair replays the same draws on any platform. SeedSequence pads its four-word
pool with zeros, so up to four words in all (seed words plus tags) a
trailing 0 tag gives the same stream as no tag. A batch of samples reads one
stream in order (the Beurling probes), so sample i's draws are a fixed
slice of that stream whatever the block size.
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
