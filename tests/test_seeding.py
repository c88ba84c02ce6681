import numpy as np
import pytest

from shiftlab.seeding import stream


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
