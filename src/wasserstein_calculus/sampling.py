"""Seeded generators for compactly supported random test measures.

Every sampled object owns its generator, keyed by (seed, stream name, sample
index), so a sample draws the same values whatever was drawn before it.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .measures import DiscreteMeasure

__all__ = ["stream_rng", "random_measure", "random_point", "MAX_ATOMS"]

MAX_ATOMS = 12


def stream_rng(seed: int, stream: str, index: int) -> np.random.Generator:
    """Independent generator for one (stream, sample-index) pair."""
    tag = zlib.crc32(stream.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, int(index)]))


def _check_half_width(K: float) -> None:
    """Reject a box [-K, K] that cannot be sampled uniformly: K negative or
    not finite, or a width 2K that overflows."""
    if not (K >= 0.0 and math.isfinite(2.0 * K)):
        raise ValueError(f"K must be a finite number >= 0 whose width 2K is finite, not {K!r}")


def random_measure(rng: np.random.Generator, K: float, max_atoms: int = MAX_ATOMS) -> DiscreteMeasure:
    """Random measure supported in [-K, K].

    Atom count is uniform on 1..max_atoms, positions uniform, weights from a
    flat Dirichlet draw: n standard exponentials, summed left to right from
    0.0 and scaled by one over the sum. That is ``rng.dirichlet(np.ones(n))``
    step for step (numpy draws a gamma variate of shape one as a standard
    exponential), so the weights and the generator's later draws have the
    same bits, without dirichlet's checks on its parameter. All-zero draws
    give NaN weights, as in dirichlet, which the constructor rejects.
    """
    _check_half_width(K)
    n = int(rng.integers(1, max_atoms + 1))
    positions = rng.uniform(-K, K, size=n)
    draws = rng.standard_exponential(n)
    acc = 0.0
    for d in draws.tolist():
        acc += d
    weights = draws * (1.0 / acc) if acc > 0.0 else np.full(n, math.nan)
    return DiscreteMeasure(positions, weights)


def random_point(rng: np.random.Generator, K: float) -> float:
    _check_half_width(K)
    return float(rng.uniform(-K, K))
