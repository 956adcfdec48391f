"""Seeded generators: ``stream_rngs`` against numpy's own seeding, the seed
and index checks of ``stream_rng`` and ``stream_rngs``, and the atom-count
check of the sampled measures. The array pass of ``random_draws``: the
seeding of many streams at once and PCG64's words against numpy's raw
outputs, the word decoder against numpy's ``Generator`` fed the same words,
the ziggurat tables it reads from numpy, the measure and point counts it
takes, and its draws against a generator per index."""

import ctypes
import re
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wasserstein_calculus import ftc_check, lift_to_field, sampling, standard_battery
from wasserstein_calculus.sampling import (
    MAX_ATOMS,
    _draw,
    random_draws,
    random_measure,
    random_point,
    stream_rng,
    stream_rngs,
)

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


class TestKeyColumns:
    """``_keys`` holds the keys as a tag column and an index column; a
    ``range`` is checked from its ends, any other iterable index by index,
    with the same keys and the same refusals."""

    RANGES = [range(0), range(5), range(3, 40, 7), range(9, -1, -1), range(2**32 - 2, 2**32 + 2),
              range(2**63 - 2, 2**63 + 1), range(5, 2**70, 2**70), range(7, 8, -(2**80)), range(2, -5, -3)]

    @pytest.mark.parametrize("indices", RANGES, ids=str)
    def test_a_range_is_its_list(self, indices):
        streams = ["a", "ストリーム✓"]
        outcomes = []
        for given_indices in (indices, list(indices)):
            try:
                seed, keys = sampling._keys(3, streams, given_indices)
            except ValueError as exc:
                outcomes.append(str(exc))
                continue
            tags = [zlib.crc32(stream.encode("utf-8")) for stream in streams]
            assert seed == 3 and keys.shape == (2, len(streams) * len(indices))
            assert keys.T.tolist() == [[tag, i] for tag in tags for i in indices]
            big = sampling._seeded(seed, keys)[1]
            assert big.tolist() == [i >= 2**32 for _ in tags for i in indices]
            outcomes.append(keys.dtype)
        assert outcomes[0] == outcomes[1]

    def test_a_negative_in_a_range_is_named(self):
        for indices in (range(-2, 3), range(1, -3, -1), range(4, -3, -2)):
            first = next(i for i in indices if i < 0)
            with pytest.raises(ValueError, match=f"^index must be a non-negative integer, not {first}$"):
                sampling._keys(0, ["s"], indices)

    def test_huge_keys_draw_as_stream_rng(self):
        indices = [2**64 + 1, 0, 2**63]
        for index, rng in zip(indices, stream_rngs(5, "s", indices), strict=True):
            assert rng.bit_generator.state == numpy_rng(5, "s", index).bit_generator.state


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


class TestDrawCounts:
    """The measure and point counts of ``random_draws`` are non-negative
    integers, refused before any draw: -1 measures yielded none, True was
    taken as 1, 1.5 measures failed in ``islice``, and 1.5 or -1 points in
    numpy."""

    @pytest.mark.parametrize("name", ["measures", "points"])
    @pytest.mark.parametrize("value", [-1, -(2**70), 1.5, 2.0, np.float64(1.0), True, np.True_, "1", None])
    def test_refused(self, name, value):
        message = f"^{name} must be a non-negative integer, not {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            next(random_draws(0, "s", range(3), 1.0, **{name: value}))

    @pytest.mark.parametrize("value", [0, np.int64(2), np.uint8(1)])
    def test_integer_types(self, value):
        (draw,) = random_draws(0, "s", [5], 1.0, measures=value, points=value)
        assert len(draw) == 2 * int(value)


# ------------------------------------------------------------ the array pass

U64_FN = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
U32_FN = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
DOUBLE_FN = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class BitGen(ctypes.Structure):
    """numpy's ``bitgen_t``: a state pointer and the four draw functions."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", U64_FN),
        ("next_uint32", U32_FN),
        ("next_double", DOUBLE_FN),
        ("next_raw", U64_FN),
    ]


CAPSULE_NEW = ctypes.pythonapi.PyCapsule_New
CAPSULE_NEW.restype = ctypes.py_object
CAPSULE_NEW.argtypes = (ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)
CAPSULE_NAME = b"BitGenerator"


class WordFeed:
    """A bit generator for numpy's ``Generator`` whose 64-bit outputs are
    ``words`` in turn, with PCG64's 32-bit and double draws on them: a
    32-bit draw is a word's low half, then its high half, kept for the next
    one; a double is the top 53 bits of a word times 2^-53. ``used`` counts
    the words drawn."""

    def __init__(self, words):
        self.words, self.used, self.spare = list(words), 0, None
        self._functions = (U64_FN(self._next64), U32_FN(self._next32), DOUBLE_FN(self._double), U64_FN(self._next64))
        self._bitgen = BitGen(None, *self._functions)
        self.capsule = CAPSULE_NEW(ctypes.addressof(self._bitgen), CAPSULE_NAME, None)
        self.lock = threading.Lock()

    def _next64(self, _):
        self.used += 1
        return self.words[self.used - 1]

    def _next32(self, _):
        if self.spare is not None:
            spare, self.spare = self.spare, None
            return spare
        word = self._next64(None)
        self.spare = word >> 32
        return word & 0xFFFFFFFF

    def _double(self, _):
        return (self._next64(None) >> 11) * 2.0**-53


# words after the crafted ones, for draws that leave the fast path
FILLER = np.random.default_rng(2024).integers(0, 2**64, 64, dtype=np.uint64, endpoint=False).tolist()


def count_word(n, spare=0):
    """A word whose low half is a 32-bit draw Lemire maps to n atoms, well
    clear of the rejection threshold; ``spare`` is its high half."""
    return spare << 32 | (((n - 1) << 32) // MAX_ATOMS + 2**20)


def strip_word(strip, ri, low_bits=0):
    return ri << 11 | strip << 3 | low_bits


def check_decoded(words, K=1.0, measures=1, points=0):
    """The decoder on one key's ``words`` against numpy's ``Generator`` fed
    them: it decodes them exactly when numpy draws what their fast reading
    gives, from exactly the words that reading takes (one per two counts,
    two per atom, one per point). Returns whether it decoded them."""
    positions, exps, counts, drawn, decoded = sampling._decode(
        np.array([words], dtype=np.uint64), np.array([[-K]]), np.array([[K - -K]]), measures, points
    )
    feed = WordFeed(list(words) + FILLER)
    rng = np.random.Generator(feed)
    expected = [(p.tobytes(), e.tobytes()) for p, e in (_draw(rng, K, MAX_ATOMS) for _ in range(measures))]
    expected.append(rng.uniform(-K, K, points).tobytes())
    got = [(positions[0, j, :n].tobytes(), exps[0, j, :n].tobytes()) for j, n in enumerate(counts[0].tolist())]
    got.append(drawn[0].tobytes())
    fast_words = (measures + 1) // 2 + 2 * int(counts.sum()) + points
    assert bool(decoded[0]) == (got == expected and feed.used == fast_words)
    return bool(decoded[0])


class TestWords:
    @given(seed=WORDS, keys=st.lists(st.tuples(st.integers(0, 2**32 - 1), WORDS), max_size=8))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_states_and_words_of_numpy(self, seed, keys):
        """One seeding of (stream tag, index) keys of several streams: each
        key below 2^32 gets the seeded state and the first outputs of
        numpy's ``PCG64`` for it; a key of a seed or index of 2^32 or more
        is left to ``SeedSequence``."""
        starts, big = sampling._seeded(seed, np.array(keys, dtype=np.int64).reshape(-1, 2).T)
        hi, lo = sampling._jumped(starts, 30)
        words = sampling._pcg64_words(hi[:, 1:], lo[:, 1:])
        for r, key in enumerate(keys):
            assert big[r] == (seed >= 2**32 or key[1] >= 2**32)
            if not big[r]:
                bit_generator = np.random.PCG64(np.random.SeedSequence([seed, *key]))
                assert bit_generator.state["state"]["state"] == int(hi[r, 0]) << 64 | int(lo[r, 0])
                assert words[r].tolist() == bit_generator.random_raw(29).tolist()


class TestDecode:
    """The decoder on crafted words against numpy's ``Generator`` fed the
    same words."""

    def test_every_strip_at_and_below_its_bound(self):
        """A draw ri on strip i is ri we[i] when ri < ke[i]; at ri = ke[i]
        it leaves the fast path. Strip 1 has none (ke[1] = 0), and strip 0
        beyond its bound is the tail."""
        ke, _ = sampling._ziggurat()
        assert ke[1] == 0
        for strip, bound in enumerate(ke.tolist()):
            for ri in [bound - 1, bound] if bound else [0, 1]:
                words = [count_word(1), FILLER[0], strip_word(strip, ri, strip % 8)]
                assert check_decoded(words) == (ri < bound)
        for ri in [int(ke[0]), int(ke[0]) + 1, 2**53 - 1]:
            assert not check_decoded([count_word(1), FILLER[0], strip_word(0, ri)])

    @pytest.mark.parametrize("measures", [1, 2])
    def test_lemire_threshold(self, measures):
        """A 32-bit draw x maps to 1 + (12 x >> 32) atoms unless 12 x mod
        2^32, a multiple of 4, is below the threshold 4: so only 0 is
        rejected. The second measure's draw is the high half of the word."""
        at_threshold = pow(3, -1, 2**30)  # 12 x = 4 modulo 2^32
        assert MAX_ATOMS * at_threshold % 2**32 == 4
        ke, _ = sampling._ziggurat()
        fast = strip_word(5, int(ke[5]) // 2)
        for half, accepted in [(0, False), (2**30, False), (2**31, False), (3 * 2**30, False), (at_threshold, True)]:
            n = 1 + (MAX_ATOMS * half >> 32)
            if measures == 1:
                words = [half, *[fast] * (2 * n)]
            else:
                first = count_word(2)
                words = [half << 32 | first & 0xFFFFFFFF, fast, fast, fast, fast, *[fast] * (2 * n)]
            assert check_decoded(words, measures=measures) is accepted

    @given(
        counts=st.lists(st.integers(1, MAX_ATOMS), max_size=3),
        points=st.integers(0, 2),
        K=st.sampled_from([0.0, 1.0, 2.0, 1e300]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_measures_then_points(self, counts, points, K, seed):
        """Up to three measures of a key, then its points: the second
        measure's count is the high half of the first count's word, and the
        third takes a new word."""
        ke, _ = sampling._ziggurat()
        rng = np.random.default_rng(seed)
        words = []
        for j, n in enumerate(counts):
            if j % 2 == 0:
                words.append(count_word(n, count_word(counts[j + 1]) & 0xFFFFFFFF if j + 1 < len(counts) else 0))
            words += rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).tolist()
            strips = rng.integers(2, 256, n).tolist()
            words += [strip_word(i, int(rng.integers(0, ke[i]))) for i in strips]
        words += rng.integers(0, 2**64, points, dtype=np.uint64, endpoint=False).tolist()
        assert check_decoded(words, K, len(counts), points)


class TestZiggurat:
    def test_tables_match_a_full_bisection(self):
        """Each strip's bound, bisected over all 53-bit values, and its
        width, the draw of ri = 1 wherever that is fast."""
        ke, we = sampling._ziggurat()
        rng = np.random.Generator(np.random.PCG64())
        for strip in range(256):
            lo, hi = -1, 2**53
            while hi - lo > 1:
                mid = (lo + hi) // 2
                fast = sampling._exponential_of(rng, strip_word(strip, mid))[1]
                lo, hi = (mid, hi) if fast else (lo, mid)
            assert ke[strip] == hi
            value, fast = sampling._exponential_of(rng, strip_word(strip, 1))
            assert we[strip] == (value if fast else 0.0) and fast == (hi > 1)

    def test_reading_leaves_other_generators_untouched(self):
        """Another generator and numpy's global one keep their states."""

        def states():
            legacy = np.random.get_state()
            return rng.bit_generator.state, legacy[1].tobytes(), legacy[2:]

        rng = np.random.default_rng(3)
        rng.standard_exponential(5)
        before = states()
        tables = sampling._ziggurat()
        sampling._ziggurat.cache_clear()
        again = sampling._ziggurat()
        assert states() == before
        assert all(a.tobytes() == b.tobytes() and a.dtype == b.dtype for a, b in zip(again, tables))


class TestDrawsOfGenerators:
    @given(
        seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 5]) | st.integers(0, 2**33),
        stream=STREAMS,
        indices=st.lists(WORDS, max_size=8),
        K=st.sampled_from([0.0, 1.0, 2.0, np.pi]),
        measures=st.integers(0, 3),
        points=st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_equal_to_a_generator_per_index(self, seed, stream, indices, K, measures, points):
        """``random_draws`` against ``random_measure`` and ``random_point``
        on each index's ``stream_rng``, bit for bit."""
        got = list(random_draws(seed, stream, indices, K, measures=measures, points=points))
        assert len(got) == len(indices)
        for values, index in zip(got, indices):
            rng = stream_rng(seed, stream, index)
            expected = [random_measure(rng, K) for _ in range(measures)] + [random_point(rng, K) for _ in range(points)]
            assert len(values) == len(expected)
            for value, want in zip(values, expected):
                if measures and hasattr(want, "positions"):
                    assert (value.positions.tobytes(), value.weights.tobytes()) == (
                        want.positions.tobytes(),
                        want.weights.tobytes(),
                    )
                else:
                    assert type(value) is float and np.float64(value).tobytes() == np.float64(want).tobytes()
