"""Seeded generators for compactly supported random test measures.

Every sampled object owns its generator, keyed by (seed, stream name, sample
index), so a sample draws the same values whatever was drawn before it.
``stream_rng`` builds one such generator. ``stream_rngs`` yields the
generators of many indices of one stream in the same states, without
numpy's per-generator seeding cost: it re-runs numpy's seeding for all the
indices at once (``_rngs``, which takes a stream tag per index). It yields
one generator object per call, reset before each yield, so a yielded
generator is valid only until the next one. A seed or index of 2^32 or more
takes ``stream_rng``'s path.

``random_measure`` and ``random_point`` draw from one generator.
``random_draws`` yields the measures and points of many indices of one
stream, with the same bits: one ``stream_rngs`` call seeds them, and every
``_DRAW_CHUNK`` measures are built in one array pass, laid out flat.
``_flat_draws`` lays out the measures of several streams in one pass.
"""

from __future__ import annotations

import itertools
import math
import operator
import zlib

import numpy as np

from .measures import MASS_TOL, MERGE_TOL, DiscreteMeasure, _flat_rows
from .util import fsum_rows

__all__ = ["stream_rng", "stream_rngs", "random_measure", "random_point", "random_draws", "MAX_ATOMS"]

MAX_ATOMS = 12

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _word(name: str, value, least: int = 0) -> int:
    """``value`` as an int of at least ``least``, 0 or 1; a float, bool or
    other non-integer raises."""
    try:
        word = -1 if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        word = -1
    if word < least:
        raise ValueError(f"{name} must be a {('non-negative', 'positive')[least]} integer, not {value!r}")
    return word


def stream_rng(seed: int, stream: str, index: int) -> np.random.Generator:
    """Independent generator for one (stream, sample-index) pair."""
    tag = zlib.crc32(stream.encode("utf-8"))
    entropy = [_word("seed", seed), tag, _word("index", index)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The running constant of ``count`` hash steps of numpy's
    ``SeedSequence``: step k XORs in entry k, then multiplies by entry k + 1."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


# mix_entropy hashes 4 + 12 times (hashmix); generate_state(4, uint64), 8 times
_HASHMIX = _hash_consts(_INIT_A, _MULT_A, 16)
_GENERATE = _hash_consts(_INIT_B, _MULT_B, 8)


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One hash step per row of ``values``, with the consecutive steps whose
    constants ``consts`` (one more than rows) holds: XOR, multiply, fold."""
    values = values ^ consts[:-1, None]
    values *= consts[1:, None]
    values ^= values >> 16
    return values


def _pcg64_seed_words(seed: int, tags: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The four 64-bit words ``PCG64(SeedSequence([seed, tag, i]))`` seeds
    from, for each row's stream tag and index below 2^32, as numpy derives
    them: one row per index, holding the high and low halves of the initial
    state, then those of the stream.

    ``SeedSequence`` pools its three entropy words and a zero, hashed, mixes
    every pool word into every other, and hashes the pool twice over into
    eight 32-bit words; ``PCG64`` pairs them, low word first, into the four.
    Every step is uint32 arithmetic modulo 2^32, run here once for all the
    rows and, where steps do not depend on each other, for several pool
    words at once.
    """
    pool = np.zeros((4, indices.size), dtype=np.uint32)
    pool[0], pool[1], pool[2] = seed, tags, indices
    pool = _hash(pool, _HASHMIX[:5])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        hashed = _hash(pool[src], _HASHMIX[4 + 3 * src : 8 + 3 * src])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        mixed ^= mixed >> 16
        pool[dst] = mixed
    state = _hash(np.concatenate((pool, pool)), _GENERATE).astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T


def stream_rngs(seed: int, stream: str, indices):
    """Yield, in order, the generator of each index of one stream, in the
    state ``stream_rng(seed, stream, index)`` starts in, with its bits.

    A yielded generator is valid only until the next yield, when it is the
    same object in the next state (``_rngs``). Generators of nested calls
    are separate.
    """
    seed = _word("seed", seed)
    indices = [_word("index", i) for i in indices]
    tag = zlib.crc32(stream.encode("utf-8"))
    yield from _rngs(seed, [(tag, i) for i in indices])


def _rngs(seed: int, keys: list):
    """Yield the generator of each (stream tag, index) pair of ``keys``, in
    the state ``stream_rng`` gives it, for a checked seed and indices.

    The seeding runs once for all the pairs (``_pcg64_seed_words``). Then one
    ``PCG64`` and its ``Generator``, made once per call, take each pair's
    state before it is yielded. A seed or index of 2^32 or more is more than
    one entropy word in ``SeedSequence``; such an index, or every index of
    such a seed, gets its own generator, as ``stream_rng`` makes it.
    """
    if seed > _MASK32:
        for key in keys:
            yield np.random.default_rng(np.random.SeedSequence([seed, *key]))
        return
    small = np.array([key for key in keys if key[1] <= _MASK32], dtype=np.uint32).reshape(-1, 2)
    # one row at a time: Python ints for every index at once would raise the
    # peak memory of a 1,000-sample check by about 0.3 MiB
    seeds = iter(_pcg64_seed_words(seed, small[:, 0], small[:, 1]))
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    for key in keys:
        if key[1] > _MASK32:
            yield np.random.default_rng(np.random.SeedSequence([seed, *key]))
            continue
        state_hi, state_lo, seq_hi, seq_lo = next(seeds).tolist()
        # pcg64_srandom_r: the stream's odd increment, then two LCG steps
        # from state 0, adding the initial state between them
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((state_hi << 64 | state_lo) + inc) * _PCG_MULT + inc
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _check_half_width(K: float) -> None:
    """Reject a box [-K, K] that cannot be sampled uniformly: K negative or
    not finite, or a width 2K that overflows."""
    if not (K >= 0.0 and math.isfinite(2.0 * K)):
        raise ValueError(f"K must be a finite number >= 0 whose width 2K is finite, not {K!r}")


def _draw(rng: np.random.Generator, K: float, max_atoms: int):
    """One measure's draws: an atom count, then that many uniform positions
    and standard exponentials."""
    n = int(rng.integers(1, max_atoms + 1))
    return rng.uniform(-K, K, size=n), rng.standard_exponential(n)


def _measures(draws: list):
    """The measure of each ``_draw``, in one array pass for all of them,
    laid out flat (``measures._flat_atoms``).

    Rows of padded arrays hold the draws: positions padded with +inf,
    exponentials with zeros. Each row's weights are its exponentials times
    one over their left-to-right sum (``np.add.accumulate``, which the zero
    padding does not change). That is ``rng.dirichlet(np.ones(n))`` step for
    step, as numpy's gamma variate of shape one is a standard exponential,
    and NaN for all-zero draws. A row sorted by one stable argsort whose
    ``math.fsum`` mass (``util.fsum_rows``) is within ``MASS_TOL`` of one,
    whose weights are positive and whose gaps exceed ``MERGE_TOL`` is
    canonical: it holds the constructor's bits. Any other row goes through
    the constructor, with its merges and errors, and its atoms are spliced
    in.
    """
    sizes = [pos.size for pos, _ in draws]
    counts = np.array(sizes)
    real = np.arange(max(sizes)) < counts[:, None]
    pos = np.full(real.shape, np.inf)
    pos[real] = np.concatenate([pos for pos, _ in draws])
    weights = np.zeros(real.shape)
    weights[real] = np.concatenate([exps for _, exps in draws])
    order = np.argsort(pos, axis=1, kind="stable")
    order += np.arange(0, pos.size, pos.shape[1])[:, None]  # flat indices
    sorted_pos = np.take(pos, order)
    with np.errstate(divide="ignore", invalid="ignore"):  # 1 / 0 for all-zero draws, inf - inf in the padding
        weights *= 1.0 / np.add.accumulate(weights, axis=1)[:, -1:]
        close = (sorted_pos[:, 1:] - sorted_pos[:, :-1] <= MERGE_TOL).any(axis=1)
    sorted_w = np.take(weights, order)
    trusted = (
        (np.abs(np.array(fsum_rows(sorted_w)) - 1.0) <= MASS_TOL)
        & (np.count_nonzero(sorted_w > 0.0, axis=1) == counts)
        & ~close
    )
    # the padding sorts last, so the real atoms of every row stay in place
    flat_pos, flat_w = sorted_pos[real], sorted_w[real]
    rebuilt = np.flatnonzero(~trusted).tolist()
    if rebuilt:
        rows = _flat_rows(flat_pos, flat_w, np.repeat(np.arange(len(sizes)), counts), len(sizes))
        for r in rebuilt:
            m = DiscreteMeasure(draws[r][0], weights[r, : sizes[r]])
            rows[r], counts[r] = (m.positions, m.weights), len(m)
        flat_pos, flat_w = (np.concatenate(arrays) for arrays in zip(*rows))
    return flat_pos, flat_w, np.repeat(np.arange(len(sizes)), counts), len(sizes)


def random_measure(rng: np.random.Generator, K: float, max_atoms: int = MAX_ATOMS) -> DiscreteMeasure:
    """Random measure supported in [-K, K].

    Atom count is uniform on 1..max_atoms, positions uniform, weights from a
    flat Dirichlet draw: the one-row case of ``_measures``. One call makes
    about 25 numpy calls on a one-row array, so it is the slow form of a
    draw; a loop over the indices of a stream should use ``random_draws``.
    """
    _check_half_width(K)
    return DiscreteMeasure._trusted(*_measures([_draw(rng, K, _word("max_atoms", max_atoms, least=1))])[:2])


def random_point(rng: np.random.Generator, K: float) -> float:
    _check_half_width(K)
    return float(rng.uniform(-K, K))


# Measures per array pass of ``random_draws``, whole indices at a time. The
# sweep's draws measured fastest in chunks of 100, at a traced peak of 0.6 MiB
# (4.5 MiB at 1,000).
_DRAW_CHUNK = 100


def random_draws(seed: int, stream: str, indices, K: float, *, measures: int = 1, points: int = 0):
    """Yield, for each index in order, a tuple of ``measures`` measures, then
    ``points`` floats: ``random_measure(rng, K)`` that many times, then
    ``random_point(rng, K)`` that many times, on
    ``stream_rng(seed, stream, index)``, with their bits.

    K is checked once, before any draw. One ``stream_rngs`` call seeds every
    index, and each generator makes its own draws. The measures of every
    ``_DRAW_CHUNK // measures`` indices (at least one) are then built in one
    ``_measures`` pass, where rows whose atoms merge or whose draws are all
    zero go through the constructor, with its merges and errors, and the
    measures are sliced from its flat layout. So a pass
    holds at most ``_DRAW_CHUNK`` measures, or one index's, and it frees the
    draws once the measures are built.
    """
    _check_half_width(K)
    rngs = stream_rngs(seed, stream, indices)
    per_pass = max(1, _DRAW_CHUNK // max(1, measures))
    while True:
        rows, drawn_points = [], []
        for rng in itertools.islice(rngs, per_pass):
            rows += [_draw(rng, K, MAX_ATOMS) for _ in range(measures)]
            drawn_points.append(rng.uniform(-K, K, points).tolist() if points else [])
        if not drawn_points:
            return
        built = iter([DiscreteMeasure._trusted(*row) for row in _flat_rows(*_measures(rows))] if rows else ())
        rows = None  # copied into the measures: free them while they are used
        for chunk_points in drawn_points:
            yield (*[next(built) for _ in range(measures)], *chunk_points)


def _flat_draws(seed: int, streams, indices, Ks):
    """The measures ``random_draws(seed, stream, indices, K)`` yields, for
    each stream and its K in turn, laid out flat as ``_measures`` builds
    them: one ``_rngs`` call seeds every stream's indices."""
    for K in Ks:
        _check_half_width(K)
    seed = _word("seed", seed)
    indices = [_word("index", i) for i in indices]
    keys = [(zlib.crc32(stream.encode("utf-8")), i) for stream in streams for i in indices]
    rngs = _rngs(seed, keys)
    return _measures([_draw(next(rngs), K, MAX_ATOMS) for K in Ks for _ in indices])


def _passes(draws, measures: int = 1):
    """The draws of ``random_draws`` in lists of one draw pass each: at most
    ``_DRAW_CHUNK`` measures, whole indices of ``measures`` measures."""
    while chunk := list(itertools.islice(draws, max(1, _DRAW_CHUNK // measures))):
        yield chunk
