"""Seeded generators: ``stream_rngs``, and the seeding of many streams at
once, against numpy's own seeding, the seed and index checks of
``stream_rng`` and ``stream_rngs``, and the atom-count check of the sampled
measures."""

import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wasserstein_calculus import ftc_check, lift_to_field, standard_battery
from wasserstein_calculus.sampling import _rngs, random_measure, stream_rng, stream_rngs

# 2^32 - 1 is the largest single entropy word; 2^32 and above take stream_rng
WORDS = st.sampled_from([0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 3]) | st.integers(0, 2**33)
STREAMS = st.sampled_from(["", "discretize-K1-n2", "é", "ストリーム✓"]) | st.text(max_size=8)


def numpy_rng(seed, stream, index):
    """The generator numpy seeds for (seed, stream, index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(stream.encode("utf-8")), index]))


def next_draws(rng):
    return rng.integers(1, 13), rng.uniform(-1.0, 1.0, 3).tobytes(), rng.standard_exponential(4).tobytes()


class TestStreamRngs:
    @given(seed=WORDS, stream=STREAMS, indices=st.lists(WORDS, max_size=12))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_states_and_draws_of_numpy(self, seed, stream, indices):
        for index, rng in zip(indices, stream_rngs(seed, stream, indices), strict=True):
            expected = numpy_rng(seed, stream, index)
            assert rng.bit_generator.state == expected.bit_generator.state
            assert next_draws(rng) == next_draws(expected)

    @given(seed=WORDS, keys=st.lists(st.tuples(STREAMS, WORDS), max_size=12))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_many_streams_at_once(self, seed, keys):
        """One seeding call for (stream, index) pairs of several streams, as
        criterion 1 seeds a block of cases, gives each pair its own state."""
        tags = [(zlib.crc32(stream.encode("utf-8")), index) for stream, index in keys]
        for (stream, index), rng in zip(keys, _rngs(seed, tags), strict=True):
            expected = stream_rng(seed, stream, index)
            assert rng.bit_generator.state == expected.bit_generator.state
            assert next_draws(rng) == next_draws(expected)

    def test_one_generator_per_call(self):
        batch = stream_rngs(7, "reuse", [0, 1])
        first = next(batch)
        state = first.bit_generator.state
        second = next(batch)
        # the next yield resets the same object: the first state is gone
        assert second is first
        assert first.bit_generator.state != state
        assert first.bit_generator.state == numpy_rng(7, "reuse", 1).bit_generator.state
        # another call, even inside this one, has its own generator
        assert next(stream_rngs(7, "reuse", [0])) is not first


class TestSeedChecks:
    """A negative seed or index is named in the error, not left to numpy's
    "expected non-negative integer"."""

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed(self, seed):
        message = f"^seed must be a non-negative integer, not {seed}$"
        with pytest.raises(ValueError, match=message):
            stream_rng(seed, "s", 0)
        with pytest.raises(ValueError, match=message):
            list(stream_rngs(seed, "s", [0, 1]))

    def test_negative_index(self):
        message = "^index must be a non-negative integer, not -3$"
        with pytest.raises(ValueError, match=message):
            stream_rng(0, "s", -3)
        with pytest.raises(ValueError, match=message):
            list(stream_rngs(0, "s", [0, -3]))


class TestIntegerSeeds:
    """A seed or index is an integer: a float was truncated (2.9 ran as seed
    2) and a bool taken as 0 or 1. Integers of other types still work."""

    @pytest.mark.parametrize("value", [2.9, 2.0, np.float64(1.0), True, False, np.True_, "3", None])
    def test_non_integer_seed_and_index(self, value):
        for name, call in [
            ("seed", lambda: stream_rng(value, "s", 0)),
            ("seed", lambda: list(stream_rngs(value, "s", [0, 1]))),
            ("index", lambda: stream_rng(0, "s", value)),
            ("index", lambda: list(stream_rngs(0, "s", [0, value]))),
        ]:
            message = f"^{name} must be a non-negative integer, not {re.escape(repr(value))}$"
            with pytest.raises(ValueError, match=message):
                call()

    def test_checks_refuse_a_float_seed(self):
        H = lift_to_field(standard_battery()[0])
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, not 2.9$"):
            ftc_check(H, 1.0, samples=1, seed=2.9)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), 2**40 + 7])
    def test_integer_types(self, seed):
        expected = numpy_rng(int(seed), "s", 3)
        assert stream_rng(seed, "s", np.int32(3)).bit_generator.state == expected.bit_generator.state
        (rng,) = stream_rngs(seed, "s", [np.int64(3)])
        assert rng.bit_generator.state == expected.bit_generator.state


class TestMaxAtoms:
    """An atom bound is a positive integer: 2.5 drew one to three atoms, True
    acted as 1, and 0 or a negative bound failed in numpy as "low >= high"."""

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(2.0), True, np.True_, 0, -1, -(2**70), "3", None])
    def test_refused(self, value):
        message = f"^max_atoms must be a positive integer, not {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            random_measure(stream_rng(0, "s", 0), 1.0, value)

    @pytest.mark.parametrize("value", [1, np.int64(4), np.uint8(12)])
    def test_integer_types(self, value):
        assert 1 <= len(random_measure(stream_rng(0, "s", 0), 1.0, value)) <= value
