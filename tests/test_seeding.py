import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.seeding import draw_uniform, philox_keys, stream

WORD = 2**32


def oracle_keys(seed, rows):
    return np.array([np.random.SeedSequence((seed, *map(int, row))).generate_state(2, np.uint64) for row in rows],
                    dtype=np.uint64).reshape(-1, 2)


seeds = st.one_of(st.integers(0, WORD - 1), st.integers(0, 2**65 - 1))
tag_rows = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(st.integers(0, WORD - 1), min_size=width, max_size=width), min_size=1, max_size=12))


class TestPhiloxKeys:
    @given(seeds, tag_rows)
    @settings(max_examples=200, deadline=None)
    def test_equal_the_seed_sequence_keys(self, seed, rows):
        """1 to 4 tag words plus 1 to 3 seed words: zero-padded pools and the extra mixing loop."""
        columns = np.array(rows, dtype=np.uint64).T
        assert np.array_equal(philox_keys(seed, *columns), oracle_keys(seed, rows))

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, WORD - 1, WORD, 2**40 + 5, 2**64 + 3])
    def test_fixed_seeds_with_scalar_and_column_tags(self, seed):
        i = np.arange(0, 300 * 7919, 7919)
        rows = [(6, 2, int(k)) for k in i]
        assert np.array_equal(philox_keys(seed, 6, 2, i), oracle_keys(seed, rows))
        assert np.array_equal(philox_keys(seed), oracle_keys(seed, [()]))

    def test_keys_are_the_philox_keys(self):
        key = philox_keys(2**40 + 5, 6, 3, 11)[0]
        state = np.random.Philox(np.random.SeedSequence((2**40 + 5, 6, 3, 11))).state["state"]
        assert np.array_equal(state["key"], key)
        assert not state["counter"].any()

    def test_empty_batch(self):
        keys = philox_keys(3, 6, 1, np.arange(0))
        assert keys.shape == (0, 2) and keys.dtype == np.uint64

    @pytest.mark.parametrize("tag", [WORD, 2**63, 2**70, -1])
    def test_tags_outside_one_word_raise(self, tag):
        with pytest.raises(ValueError, match="tags"):
            philox_keys(3, 6, np.array([0, tag], dtype=object))

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="seed"):
            philox_keys(-1, 6)


class TestDrawUniform:
    @pytest.mark.parametrize("seed", [0, 7, WORD, 2**64 + 3])
    def test_rows_equal_the_per_sample_streams(self, seed):
        i = np.arange(40)
        draws = draw_uniform(philox_keys(seed, 6, 1, i), (2, 2, 5))
        for row in i:
            assert np.array_equal(draws[row], stream(seed, 6, 1, int(row)).uniform(-1.0, 1.0, (2, 2, 5)))

    def test_reset_carries_no_state_from_the_previous_row(self, monkeypatch):
        """After each row the generator is left with a cached 32-bit half and a part-used buffer."""
        keys = philox_keys(5, 6, 2, np.arange(4))
        expected = np.array([stream(5, 6, 2, row).uniform(-1.0, 1.0, 2) for row in range(4)])
        starts, dirty = [], []

        def summary(state):
            return (state["has_uint32"], state["uinteger"], state["buffer_pos"],
                    tuple(state["state"]["counter"]), tuple(state["state"]["key"]))

        class Dirtying(np.random.Generator):
            def random(self, *args, **kwargs):
                starts.append(summary(self.bit_generator.state))
                out = super().random(*args, **kwargs)
                self.integers(0, 2**32, dtype=np.uint32)
                state = self.bit_generator.state
                dirty.append(state["has_uint32"] == 1 and state["buffer_pos"] < 4)
                return out

        monkeypatch.setattr(np.random, "Generator", Dirtying)
        assert np.array_equal(draw_uniform(keys, (2,)), expected)
        assert dirty == [True] * 4
        assert starts == [summary(stream(5, 6, 2, row).bit_generator.state) for row in range(4)]
        monkeypatch.undo()
        assert np.array_equal(draw_uniform(keys[::-1], (2,)), expected[::-1])
        assert np.array_equal(draw_uniform(keys[2:3], (2,)), expected[2:3])

    def test_empty(self):
        assert draw_uniform(philox_keys(1, 6, np.arange(0)), (2, 3)).shape == (0, 2, 3)
