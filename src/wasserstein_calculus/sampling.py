"""Seeded generators for compactly supported random test measures.

Every sampled object owns its generator, keyed by (seed, stream name, sample
index), so a sample draws the same values whatever was drawn before it.
``stream_rng`` builds one such generator. ``stream_rngs`` yields the
generators of many indices of one stream in the same states, without
numpy's per-generator seeding cost: it re-runs numpy's seeding for all the
indices at once (``_seeded``). It yields one generator object per call,
reset before each yield, so a yielded generator is valid only until the
next one. A seed or index of 2^32 or more takes ``stream_rng``'s path.

``random_measure`` and ``random_point`` draw from one generator.
``random_draws`` yields the measures and points of many indices of one
stream, with the same bits, without a generator per index: ``_draw_passes``
re-implements, in uint64 arrays for every index of a pass at once, numpy's
seeding, ``PCG64``'s output (``_pcg64_words``), the bounded integer of an
atom count, uniform doubles and the fast path of numpy's exponential
ziggurat (``_decode``), whose tables ``_ziggurat`` reads from numpy. An
index whose draws leave that fast path takes numpy's own generator, set to
the state the arrays give it. Every ``_DRAW_CHUNK`` measures are built in
one array pass, laid out flat. ``_flat_draws`` lays out the measures of
several streams in one pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import zlib

import numpy as np

from .measures import MASS_TOL, MERGE_TOL, DiscreteMeasure, _flat_rows
from .util import fsum_near_one

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
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
# uint64 operands throughout: under numpy 1.x, uint64 mixed with a signed
# integer becomes float64
_U1, _U3, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 3, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)
# Lemire's bounded draw of an atom count in 1..MAX_ATOMS (numpy's
# buffered_bounded_lemire_uint32): a 32-bit word times MAX_ATOMS, rejected
# when its low half is below (2^32 - MAX_ATOMS) mod MAX_ATOMS
_ATOM_SPAN = np.uint64(MAX_ATOMS)
_LEMIRE_THRESHOLD = np.uint64((2**32 - MAX_ATOMS) % MAX_ATOMS)
_ZIGGURAT_STRIPS = 256


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


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """a * b modulo 2^128 on (high, low) uint64 limbs, broadcast: the high
    word of the low words' product from their 32-bit halves, the cross
    terms wrapped. In place, to keep few temporaries alive."""
    a0, a1, b0, b1 = a_lo & _LOW32, a_lo >> _U32, b_lo & _LOW32, b_lo >> _U32
    hi = a_lo * b_hi
    term = np.multiply(a_hi, b_lo)
    hi += term
    hi += np.multiply(a1, b1, out=term)
    part = a0 * b0
    part >>= _U32
    for x, y in ((a0, b1), (a1, b0)):
        cross = np.multiply(x, y, out=term)
        hi += cross >> _U32
        part += np.bitwise_and(cross, _LOW32, out=cross)
    hi += np.right_shift(part, _U32, out=part)
    return hi, np.multiply(a_lo, b_lo, out=part)


@functools.lru_cache(maxsize=16)  # bounded: the count follows the caller's measure and point counts
def _jumps(count: int) -> np.ndarray:
    """The limbs (high and low of A_k, then of C_k) of ``count`` LCG jumps:
    A_k = M^(k+1) and C_k = 1 + M + ... + M^k modulo 2^128, so that A_0 t +
    C_0 inc is the state M t + inc and each LCG step, s -> M s + inc, moves
    on to the next k."""
    a, c, limbs = _PCG_MULT, 1, []
    for _ in range(count):
        limbs.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
    limbs = np.array(limbs, dtype=np.uint64).reshape(count, 4).T
    limbs.flags.writeable = False  # shared by every caller of the cache
    return limbs


def _jumped(starts: np.ndarray, count: int):
    """The (high, low) limbs of the first ``count`` LCG states of each row of
    ``starts`` (``_seeded``): the seeded state, then the state of each
    output in turn; shape (rows, count) each."""
    a_hi, a_lo, c_hi, c_lo = _jumps(count)
    t_hi, t_lo, inc_hi, inc_lo = starts[:, :, None]
    x_hi, x_lo = _mul128(t_hi, t_lo, a_hi, a_lo)
    y_hi, y_lo = _mul128(inc_hi, inc_lo, c_hi, c_lo)
    x_lo += y_lo
    x_hi += y_hi
    x_hi += x_lo < y_lo  # the carry
    return x_hi, x_lo


def _pcg64_words(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output of each 128-bit state: XSL-RR, the XOR of its halves
    rotated right by its top six bits."""
    folded, rot = hi ^ lo, hi >> _U58
    left = np.subtract(_U64, rot)
    left &= _U63
    np.left_shift(folded, left, out=left)
    folded >>= rot
    folded |= left
    return folded


def _seeded(seed: int, keys: np.ndarray):
    """The seeding of every (stream tag, index) key (``_keys``), and which
    keys have a seed or index of 2^32 or more, whose rows are left zero, as
    one array comparison: one (4, keys)
    array of the limbs t_hi, t_lo, inc_hi, inc_lo of each key's ``PCG64``,
    where inc is its odd increment and t = initial state + inc.

    ``pcg64_srandom_r`` steps once from state 0 (to inc), adds the initial
    state and steps again, so the seeded state is M t + inc, and the state
    of the k-th output is A_k t + C_k inc (``_jumps``).
    """
    big = (keys[1] > _MASK32) | (seed > _MASK32)
    starts = np.zeros((4, big.size), dtype=np.uint64)
    if not big.all():
        init_hi, init_lo, seq_hi, seq_lo = _pcg64_seed_words(seed, *keys[:, ~big]).T
        inc_hi, inc_lo = seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1
        t_lo = init_lo + inc_lo
        starts[:, ~big] = init_hi + inc_hi + (t_lo < init_lo), t_lo, inc_hi, inc_lo
    return starts, big


def _key_rng(rng: np.random.Generator, seed: int, key, state):
    """``rng`` set to the seeded state of ``key``, given as the limbs of its
    LCG state and increment, or for ``state`` None (a seed or index of 2^32
    or more, more than one entropy word in ``SeedSequence``) a generator of
    its own, as ``stream_rng`` makes it."""
    if state is None:
        return np.random.default_rng(np.random.SeedSequence([seed, *map(int, key)]))
    state_hi, state_lo, inc_hi, inc_lo = state
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def stream_rngs(seed: int, stream: str, indices):
    """Yield, in order, the generator of each index of one stream, in the
    state ``stream_rng(seed, stream, index)`` starts in, with its bits.

    The seeding runs once for all the indices (``_seeded``). Then one
    ``PCG64`` and its ``Generator``, made once per call, take each index's
    state before it is yielded (``_key_rng``), so a yielded generator is
    valid only until the next yield, when it is the same object in the next
    state. Generators of nested calls are separate.
    """
    seed, keys = _keys(seed, [stream], indices)
    starts, big = _seeded(seed, keys)
    hi, lo = _jumped(starts, 1)
    states = np.stack((hi[:, 0], lo[:, 0], *starts[2:]), axis=1)
    rng = np.random.Generator(np.random.PCG64())
    for r in range(big.size):
        # one row at a time: Python ints for every index at once would raise
        # the peak memory of a 1,000-sample check by about 0.3 MiB
        yield _key_rng(rng, seed, keys[:, r], None if big[r] else states[r].tolist())


def _exponential_of(rng: np.random.Generator, word: int):
    """numpy's standard exponential of one 64-bit output ``word`` of
    ``rng``, whose state is set so that its next output is ``word``, and
    whether that draw used exactly the one word (the ziggurat's fast path).

    The state one step before ``word`` itself (increment 1), whose high
    half is zero, has rotation 0, so its output is ``word``.
    """
    before = divmod((word - 1) * _PCG_MULT_INV & _MASK128, 1 << 64)
    value = _key_rng(rng, 0, None, (*before, 0, 1)).standard_exponential()
    return value, rng.bit_generator.state["state"]["state"] == word


def _fast_bound(fast, guess: int) -> int:
    """The least ri that ``fast`` refuses, where ``fast`` holds for every ri
    below it and none above, searched from ``guess``: steps of doubling
    length away from it until a fast ri and a refused one bracket the
    bound, then bisection. ri is a 53-bit value: -1 counts as fast and 2^53
    as refused, and neither is probed."""

    def holds(ri):
        return ri < 0 or (ri < 2**53 and fast(ri))

    lo = min(max(guess, 0), 2**53) - 1
    hi, step = lo + 1, 1
    while not holds(lo):
        lo, hi, step = max(lo - step, -1), lo, 2 * step
    while holds(hi):
        lo, hi, step = hi, min(hi + step, 2**53), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return hi


@functools.cache
def _ziggurat():
    """numpy's exponential ziggurat tables (``ziggurat_constants.h``),
    ``ke`` (uint64) and ``we`` (float64), read once per process through a
    private generator: a draw from a word of strip i (bits 3-10) and 53-bit
    value ri (the bits above) is ri * we[i], returned at once when ri <
    ke[i].

    Strip i's width we[i] is the draw of ri = 1 where that is fast (0 where
    it is not, as on strip 1, whose ke is 0). Its bound ke[i] is searched
    (``_fast_bound``) from the value of Marsaglia and Tsang's construction,
    the width ratio we[i - 1] / we[i] times 2^53 (we[255] / we[0] for strip
    0), which lies within a few units of numpy's table.
    """
    rng = np.random.Generator(np.random.PCG64())
    we = np.zeros(_ZIGGURAT_STRIPS)
    for strip in range(_ZIGGURAT_STRIPS):
        value, fast = _exponential_of(rng, 1 << 11 | strip << 3)
        we[strip] = value if fast else 0.0
    ke = np.zeros(_ZIGGURAT_STRIPS, dtype=np.uint64)
    for strip in range(_ZIGGURAT_STRIPS):
        guess = int(we[strip - 1] / we[strip] * 2.0**53) if we[strip] > 0.0 else 0
        ke[strip] = _fast_bound(lambda ri: _exponential_of(rng, ri << 11 | strip << 3)[1], guess)
    ke.flags.writeable = we.flags.writeable = False  # shared by every caller of the cache
    return ke, we


def _decode(words: np.ndarray, low: np.ndarray, width: np.ndarray, measures: int, points: int):
    """Each row's draws from its output ``words``, as a ``Generator`` in
    that state makes them: ``measures`` times an atom count, then that many
    uniform positions in [low, low + width) and standard exponentials;
    then ``points`` uniform points.

    An atom count is Lemire's bounded draw on 32 bits: the low half of the
    next word, or the high half that numpy's ``next_uint32`` buffered from
    the previous count's word. A uniform is low + width (w >> 11) 2^-53.
    An exponential is the ziggurat's fast path, ri we[i] for ri = w >> 11
    and strip i = bits 3-10 of w when ri < ke[i] (``_ziggurat``).

    Returns the positions (rows, measures, MAX_ATOMS, padded with +inf), the
    exponentials (padded with zeros), the atom counts (rows, measures), the
    points (rows, points) and whether each row was decoded: False where an
    exponential leaves the fast path or a count is rejected, which would use
    more words.
    """
    ke, we = _ziggurat()
    rows, width_words = words.shape
    flat_start = np.arange(rows) * width_words
    atoms = np.arange(MAX_ATOMS)
    at = np.zeros(rows, dtype=np.intp)  # each row's next word
    decoded = np.ones(rows, dtype=bool)
    positions = np.full((rows, measures, MAX_ATOMS), np.inf)
    exponentials = np.zeros((rows, measures, MAX_ATOMS))
    counts = np.zeros((rows, measures), dtype=np.intp)

    def uniforms(ahead):
        # the gathered words past a row's end are only read where masked
        drawn = np.take(words, (flat_start + at)[:, None] + ahead, mode="clip") >> _U11
        return low + width * (drawn * 2.0**-53)

    for j in range(measures):
        if j % 2 == 0:
            word = words[np.arange(rows), at]
            at += 1
            half, spare = word & _LOW32, word >> _U32
        else:
            half = spare
        scaled = half * _ATOM_SPAN
        decoded &= (scaled & _LOW32) >= _LEMIRE_THRESHOLD
        counts[:, j] = n = (scaled >> _U32).astype(np.intp) + 1
        real = atoms < n[:, None]
        positions[:, j] = np.where(real, uniforms(atoms), np.inf)
        at += n
        drawn = np.take(words, (flat_start + at)[:, None] + atoms, mode="clip")
        ri, strip = drawn >> _U11, (drawn >> _U3).astype(np.uint8)
        decoded &= ((ri < ke[strip]) | ~real).all(axis=1)
        exponentials[:, j] = np.where(real, ri * we[strip], 0.0)
        at += n
    return positions, exponentials, counts, uniforms(np.arange(points)), decoded


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


def _draw_passes(seed: int, keys: np.ndarray, Ks, measures: int, points: int, per_pass: int):
    """The draws of each run of ``per_pass`` keys, in order: ``measures``
    measures, then ``points`` points, of each (stream tag, index) key with
    its half-width K, with the bits of ``_draw`` and ``uniform(-K, K,
    points)`` on the key's ``stream_rng``, as ``_draw_pass`` makes them.
    One ``_seeded`` call seeds every key.
    """
    starts, big = _seeded(seed, keys)
    rng = np.random.Generator(np.random.PCG64())
    for a in range(0, keys.shape[1], per_pass):
        run = slice(a, a + per_pass)
        yield _draw_pass(seed, keys[:, run], Ks[run], starts[:, run], big[run], rng, measures, points)


def _draw_pass(seed: int, keys: np.ndarray, Ks, starts: np.ndarray, big: np.ndarray, rng, measures: int, points: int):
    """One pass of ``_draw_passes``: padded rows of measures, key after key,
    as ``_measures`` takes them, and the points (keys, points).

    Each key's state is jumped ahead to all the words its draws may use, at
    most one per two counts, two per atom and one per point, and the words
    are decoded (``_decode``). A key that ``_decode`` refuses, or of
    ``big``, draws from its own generator (``_key_rng`` on ``rng``).
    """
    count = (measures + 1) // 2 + 2 * MAX_ATOMS * measures + points
    hi, lo = _jumped(starts, count + 1)
    row_Ks = np.array(Ks, dtype=float)[:, None]
    positions, exponentials, counts, drawn, decoded = _decode(
        _pcg64_words(hi[:, 1:], lo[:, 1:]), -row_Ks, row_Ks - -row_Ks, measures, points  # -K + (K - -K) u
    )
    refused = np.flatnonzero(~decoded | big)
    seeded = np.stack((hi[refused, 0], lo[refused, 0], *starts[2:, refused]), axis=1).tolist()
    for r, state in zip(refused.tolist(), seeded):
        drawer = _key_rng(rng, seed, keys[:, r], None if big[r] else state)
        for j in range(measures):
            pos, exps = _draw(drawer, Ks[r], MAX_ATOMS)
            counts[r, j] = n = pos.size
            positions[r, j, :n], positions[r, j, n:] = pos, np.inf
            exponentials[r, j, :n], exponentials[r, j, n:] = exps, 0.0
        if points:
            drawn[r] = drawer.uniform(-Ks[r], Ks[r], points)
    return positions.reshape(-1, MAX_ATOMS), exponentials.reshape(-1, MAX_ATOMS), counts.ravel(), drawn


def _measures(pos: np.ndarray, weights: np.ndarray, counts: np.ndarray):
    """The measure of each row of draws, in one array pass for all of them,
    laid out flat (``measures._flat_atoms``).

    The rows hold the draws in draw order: the first ``counts[r]`` entries
    of row r of ``pos`` and ``weights`` are its positions and exponentials,
    padded after them with +inf and zeros. Each row's weights, computed in
    place, are its exponentials times one over their left-to-right sum
    (``np.add.accumulate``, which the zero padding does not change). That
    is ``rng.dirichlet(np.ones(n))`` step for step,
    as numpy's gamma variate of shape one is a standard exponential, and
    NaN for all-zero draws. A row sorted by one stable argsort whose
    ``math.fsum`` mass is within ``MASS_TOL`` of one, whose weights are
    positive and whose gaps exceed ``MERGE_TOL`` is canonical: it holds the
    constructor's bits. The mass is read only as that verdict, which
    ``util.fsum_near_one`` decides without an exact sum for almost every
    row. Any other row goes through the constructor, with its merges and
    errors, and its atoms are spliced in.
    """
    real = np.arange(pos.shape[1]) < counts[:, None]
    order = np.argsort(pos, axis=1, kind="stable")
    order += np.arange(0, pos.size, pos.shape[1])[:, None]  # flat indices
    sorted_pos = np.take(pos, order)
    with np.errstate(divide="ignore", invalid="ignore"):  # 1 / 0 for all-zero draws, inf - inf in the padding
        weights *= 1.0 / np.add.accumulate(weights, axis=1)[:, -1:]
        close = (sorted_pos[:, 1:] - sorted_pos[:, :-1] <= MERGE_TOL).any(axis=1)
    sorted_w = np.take(weights, order)
    trusted = fsum_near_one(sorted_w, MASS_TOL) & (np.count_nonzero(sorted_w > 0.0, axis=1) == counts) & ~close
    # the padding sorts last, so the real atoms of every row stay in place
    flat_pos, flat_w = sorted_pos[real], sorted_w[real]
    rebuilt = np.flatnonzero(~trusted).tolist()
    if rebuilt:
        counts = counts.copy()
        rows = _flat_rows(flat_pos, flat_w, np.repeat(np.arange(counts.size), counts), counts.size)
        for r in rebuilt:
            m = DiscreteMeasure(pos[r, : counts[r]], weights[r, : counts[r]])
            rows[r], counts[r] = (m.positions, m.weights), len(m)
        flat_pos, flat_w = (np.concatenate(arrays) for arrays in zip(*rows))
    return flat_pos, flat_w, np.repeat(np.arange(counts.size), counts), counts.size


def random_measure(rng: np.random.Generator, K: float, max_atoms: int = MAX_ATOMS) -> DiscreteMeasure:
    """Random measure supported in [-K, K].

    Atom count is uniform on 1..max_atoms, positions uniform, weights from a
    flat Dirichlet draw: the one-row case of ``_measures``. One call makes
    about 25 numpy calls on a one-row array, so it is the slow form of a
    draw; a loop over the indices of a stream should use ``random_draws``.
    """
    _check_half_width(K)
    positions, exponentials = _draw(rng, K, _word("max_atoms", max_atoms, least=1))
    return DiscreteMeasure._trusted(*_measures(positions[None], exponentials[None], np.array([positions.size]))[:2])


def random_point(rng: np.random.Generator, K: float) -> float:
    _check_half_width(K)
    return float(rng.uniform(-K, K))


# Measures per array pass of ``random_draws``, whole indices at a time. The
# sweep's draws measured fastest in chunks of 100, at a traced peak of 0.6 MiB
# (4.5 MiB at 1,000).
_DRAW_CHUNK = 100


def _keys(seed, streams, indices):
    """The checked seed and the (stream tag, index) key of each index of
    each stream in turn, as a column each: a (2, keys) array, int64, or of
    Python ints where an index is 2^63 or more. A ``range`` whose ends lie
    in [0, 2^63) is checked from its ends alone."""
    seed = _word("seed", seed)
    ends = sorted((indices[0], indices[-1])) if isinstance(indices, range) and indices else None
    if ends and 0 <= ends[0] and ends[1] < 1 << 63:
        step = indices.step if len(indices) > 1 else 0  # one index: any step
        column = indices[0] + np.arange(len(indices), dtype=np.int64) * step
    else:
        column = [_word("index", i) for i in indices]
        column = np.array(column, dtype=np.int64 if max(column, default=0) < 1 << 63 else object)
    tags = np.array([zlib.crc32(stream.encode("utf-8")) for stream in streams], dtype=column.dtype)
    return seed, np.stack((tags.repeat(column.size), np.tile(column, tags.size)))


def random_draws(seed: int, stream: str, indices, K: float, *, measures: int = 1, points: int = 0):
    """Yield, for each index in order, a tuple of ``measures`` measures, then
    ``points`` floats: ``random_measure(rng, K)`` that many times, then
    ``random_point(rng, K)`` that many times, on
    ``stream_rng(seed, stream, index)``, with their bits.

    K and the two counts are checked once, before any draw. The draws of
    every ``_DRAW_CHUNK // measures`` indices (at least one) are made in
    one array pass (``_draw_passes``), and their measures built in one
    ``_measures`` pass, where rows whose atoms merge or whose draws are all
    zero go through the constructor, with its merges and errors, and the
    measures are sliced from its flat layout. So a pass holds at most
    ``_DRAW_CHUNK`` measures, or one index's, and it frees the draws once
    the measures are built.
    """
    _check_half_width(K)
    measures, points = _word("measures", measures), _word("points", points)
    seed, keys = _keys(seed, [stream], indices)
    per_pass = max(1, _DRAW_CHUNK // max(1, measures))
    for draws in _draw_passes(seed, keys, [K] * keys.shape[1], measures, points, per_pass):
        drawn = draws[-1].tolist()
        built = iter([DiscreteMeasure._trusted(*row) for row in _flat_rows(*_measures(*draws[:3]))] if measures else ())
        draws = None  # copied into the measures: free them while they are used
        for chunk_points in drawn:
            yield (*[next(built) for _ in range(measures)], *chunk_points)


def _flat_draws(seed: int, streams, indices, Ks):
    """The measures ``random_draws(seed, stream, indices, K)`` yields, for
    each stream and its K in turn, laid out flat as ``_measures`` builds
    them: one draw pass for every stream's indices."""
    for K in Ks:
        _check_half_width(K)
    seed, keys = _keys(seed, streams, indices)
    row_Ks = np.repeat(np.array(Ks, dtype=float), keys.shape[1] // len(streams))
    (draws,) = _draw_passes(seed, keys, row_Ks, 1, 0, max(1, keys.shape[1]))
    return _measures(*draws[:3])


def _passes(draws, measures: int = 1):
    """The draws of ``random_draws`` in lists of one draw pass each: at most
    ``_DRAW_CHUNK`` measures, whole indices of ``measures`` measures."""
    while chunk := list(itertools.islice(draws, max(1, _DRAW_CHUNK // measures))):
        yield chunk
