"""Deterministic random streams for experiments.

`stream` builds a counter-based Philox generator from a 64-bit seed plus a
tuple of integer tags (experiment id, trial index, step index, ...).
Distinct tag tuples give independent streams, and the same (seed, tags)
pair replays the same draws on any platform.

Batches of samples that each own a stream (the Beurling checks) take the
batched path instead: `philox_keys` hashes many tag tuples at once into the
keys `stream` would use, and `draw_uniform` draws every row from one reused
Philox whose state is reset to that row's key, so each row's draws are
bitwise those of `stream(seed, *tags)`.
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

# numpy's SeedSequence constants (O'Neill's seed_seq hash, pool of 4 words).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def stream(seed: int, *tags: int) -> np.random.Generator:
    """Return a Generator seeded by (seed, *tags)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed),) + tuple(int(t) for t in tags))))


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array (independent real and imaginary parts)."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix over uint32 columns; its constant walks one step per call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def philox_keys(seed: int, *tag_columns) -> np.ndarray:
    """(n, 2) uint64 Philox keys of the rows (seed, *tags), n the broadcast length.

    Row r equals SeedSequence((seed, *tags[r])).generate_state(2, np.uint64),
    the key Philox(SeedSequence(...)) starts from with counter 0. Each tag
    column is a scalar or a 1-d array; tags must lie in [0, 2**32). The
    seed is split into 32-bit words as SeedSequence splits it.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    columns = [np.asarray(t).reshape(-1) for t in tag_columns]
    for t in columns:
        if not np.all((t >= 0) & (t <= _MASK32)):
            raise ValueError("tags must lie in [0, 2**32)")
    columns = np.broadcast_arrays(*columns) if columns else []
    n = len(columns[0]) if columns else 1
    entropy = [np.full(n, w, dtype=np.uint32) for w in seed_words] + [t.astype(np.uint32) for t in columns]
    entropy += [np.zeros(n, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(2, uint64): four 32-bit words, paired little-endian.
    hashmix = _hashmix(_INIT_B, _MULT_B)
    state = [hashmix(word).astype(np.uint64) for word in pool]
    keys = np.empty((n, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << np.uint64(32))
    keys[:, 1] = state[2] | (state[3] << np.uint64(32))
    return keys


def draw_uniform(keys: np.ndarray, shape) -> np.ndarray:
    """(len(keys), *shape) floats, row r uniform on [-1, 1) from the Philox with key keys[r].

    One Philox and one Generator serve every row: before each row its state
    is reset to a fresh stream's (counter 0, empty buffer, no cached 32-bit
    half), and the row draws as stream(...).uniform(-1.0, 1.0, shape) would.
    """
    raw = np.empty((len(keys),) + tuple(shape))
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, key in enumerate(keys):
        state["state"]["key"] = key
        bit_generator.state = state
        rng.random(out=raw[row])
    raw *= 2.0
    raw -= 1.0
    return raw
