import numpy as np
import pytest

from shiftlab.seeding import TAG_DENSE, TAG_JITTER, TAG_SEMICONT, TAG_SERIES, TAG_STABILITY, TAG_ZERO_SETS, stream


class TestStream:
    @pytest.mark.parametrize("tags", [(), (6,), (6, 2, 11)])
    def test_same_seed_and_tags_replay(self, tags):
        first = stream(7, *tags).uniform(-1.0, 1.0, 50)
        assert np.array_equal(stream(7, *tags).uniform(-1.0, 1.0, 50), first)
        assert not np.array_equal(stream(8, *tags).uniform(-1.0, 1.0, 50), first)
        assert not np.array_equal(stream(7, *tags, 1).uniform(-1.0, 1.0, 50), first)

    def test_seed_above_two_to_the_64(self):
        seed = 2**64 + 3
        draws = stream(seed, 6, 1).uniform(-1.0, 1.0, 20)
        want = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 6, 1)))).uniform(-1.0, 1.0, 20)
        assert np.array_equal(draws, want)
        assert not np.array_equal(draws, stream(3, 6, 1).uniform(-1.0, 1.0, 20))

    @pytest.mark.parametrize("seed", [0, 42, 2**32 + 1])
    def test_the_drivers_key_families_draw_distinct_streams(self, seed):
        # a trailing 0 tag is dropped within four words, so no family may be a zero-extension of another
        idx = range(4)
        keys = [
            *((seed, TAG_DENSE, TAG_STABILITY, j) for j in idx),
            *((seed, TAG_JITTER, TAG_SEMICONT, t, j) for t in idx for j in idx),
            *((seed, TAG_ZERO_SETS, i) for i in idx),
            *((seed, TAG_SERIES, kind) for kind in idx),
        ]
        firsts = [stream(*key).random() for key in keys]
        assert len(set(firsts)) == len(keys)
