"""Grid discretization of compactly supported measures.

A measure supported in [-K, K] is pushed onto the grid {k/n} by a partition
of unity subordinate to the open cover

    interior cells  ((k-1)/n, (k+1)/n)   for |k| <= n*K - 1,
    left tail       (-inf, (-n*K+1)/n),
    right tail      ((n*K-1)/n, +inf),

each grid point k/n receiving the mass its bump collects. Mass within a cell
moves at most 1/n to reach its grid point and each unbounded tail cell
contributes at most 1/n more, so the Wasserstein-1 distance between a measure
and its discretization is at most 3/n whenever n >= K + 1. The bound only
uses non-negativity and support containment of the bumps, so both bump
families below satisfy it.

At any point at most two bumps are nonzero: those of the grid indices just
below and just above n*x. ``_discretize_flat`` evaluates only that band, for
many measures laid out flat, each with its own n and K, and scatters it onto
one grid row per measure, so its cost is O(total atoms) whatever n and K
are; each row has the bits of its measure discretized alone. Of its three
row sums, only the renormalizer of the kept weights is summed exactly; the
two mass checks are verdicts, decided from a float row sum where its error
bound allows (``util.fsum_near_one``).
``discretize_rows`` and ``discretize`` are its adapters for one scheme, and
``PartitionScheme.weight_matrix`` densifies the band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import MASS_TOL, DiscreteMeasure, _flat_atoms, _flat_rows
from .util import fsum, fsum_near_one, fsum_rows

__all__ = ["PartitionScheme", "bump_weight", "discretize", "discretize_rows", "BUMP_MODES"]

BUMP_MODES = ("smooth_bump", "linear_hat")

# Discretized weights below this are dropped and mass renormalized, keeping
# atom counts bounded in iterated pipelines.
WEIGHT_FLOOR = 1e-15

# Cell coordinates this close to an integer snap to it, so grid atoms
# reproduce exactly despite float rounding of k/n.
GRID_SNAP = 1e-9

# Column offsets of the two bumps that can be nonzero at a point.
_PAIR = np.array([0, 1])


@dataclass(frozen=True)
class PartitionScheme:
    """Grid resolution n, support bound K and the bump family.

    ``smooth_bump`` builds each interior bump from the mollifier
    exp(-1/(1-u^2)) on (-1, 1) and each tail from a monotone smooth ramp that
    saturates at 1 beyond [-K, K]; the raw bumps are then normalized by their
    pointwise total, which is positive everywhere. ``linear_hat`` uses
    triangular hats instead: not smooth, provided as a cross-check family
    since the 3/n guarantee does not depend on smoothness.

    Requires n >= K + 1, the regime in which the 3/n guarantee holds.
    """

    n: int
    K: int
    bump_shape: str = "smooth_bump"

    def __post_init__(self):
        if int(self.n) != self.n or int(self.K) != self.K:
            raise ValueError("n and K must be integers")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "K", int(self.K))
        if self.K < 1:
            raise ValueError("support bound K must be a positive integer")
        if self.n < self.K + 1:
            raise ValueError("grid resolution must satisfy n >= K + 1")
        if self.bump_shape not in BUMP_MODES:
            raise ValueError(f"bump_shape must be one of {BUMP_MODES}")
        N = self.n * self.K
        indices = np.arange(-N, N + 1)
        grid = indices / self.n
        indices.setflags(write=False)
        grid.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "grid", grid)

    @property
    def edge_index(self) -> int:
        return self.n * self.K

    def weight_matrix(self, xs) -> np.ndarray:
        """Bump weights at each point: rows sum to one.

        Returns an array of shape (len(xs), 2*n*K + 1) whose [i, j] entry is
        the weight of grid index j - n*K at xs[i]: the two band weights of
        ``_band`` written into an otherwise zero row. A point that is NaN or
        infinite raises ``ValueError``.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        bad = np.flatnonzero(~np.isfinite(xs))
        if bad.size:
            raise ValueError(f"points must be finite, not {float(xs.flat[bad[0]])!r}")
        cols, band = _band(self.bump_shape, self.n, self.edge_index, xs)
        out = np.zeros((xs.size, self.indices.size))
        rows = np.arange(xs.size)[:, None]
        out[rows, cols[:, None] + _PAIR] = band
        return out


def _band(bump_shape: str, n, N, xs: np.ndarray):
    """The only bumps that can be nonzero at each point, with their weights.

    Each point has its grid resolution n and edge index N = n*K, or all
    share scalar ones. At a point x only the bumps of grid indices
    floor(n*x) and floor(n*x) + 1 can be nonzero, clamped to [-N, N]; the
    tail ramps only in the two edge cells. Returns the column (grid index +
    N) of the first of the two bumps for each point, and a (len(xs), 2)
    array of their weights, each row summing to one.
    """
    nx = n * xs
    first = np.minimum(np.maximum(np.floor(nx), -N), N - 1)
    u = nx[:, None] - (first[:, None] + _PAIR)
    # snap near-integer cell coordinates (see GRID_SNAP)
    nearest = np.rint(u)
    u = np.where(np.abs(u - nearest) <= GRID_SNAP, nearest, u)
    if bump_shape == "smooth_bump":
        raw, ramp = _mollifier(u), _smoothstep
    else:
        raw, ramp = np.clip(1.0 - np.abs(u), 0.0, None), _clip_ramp
    left = first == -N
    if left.any():
        raw[left, 0] = ramp((1 - _at(N, left)) - nx[left])
    right = first == N - 1
    if right.any():
        raw[right, 1] = ramp(nx[right] - (_at(N, right) - 1))
    totals = raw[:, 0] + raw[:, 1]
    if np.any(totals <= 0.0):
        raise RuntimeError("bump family failed to cover a point")
    raw /= totals[:, None]
    return first.astype(np.intp) + N, raw


def _mollifier(u: np.ndarray) -> np.ndarray:
    """exp(-1/(1-u^2)) on (-1, 1), zero outside."""
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """Monotone smooth ramp: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    a = np.exp(-1.0 / um)
    b = np.exp(-1.0 / (1.0 - um))
    out[mid] = a / (a + b)
    return out


def _clip_ramp(u: np.ndarray) -> np.ndarray:
    """Piecewise-linear ramp: 0 for u <= 0, 1 for u >= 1."""
    return np.clip(u, 0.0, 1.0)


def bump_weight(scheme: PartitionScheme, k: int, x: float) -> float:
    """Weight of grid index k at point x."""
    N = scheme.edge_index
    if not -N <= k <= N:
        raise ValueError(f"grid index must lie in [{-N}, {N}]")
    row = scheme.weight_matrix(np.array([float(x)]))[0]
    return float(row[k + N])


def discretize(scheme: PartitionScheme, m: DiscreteMeasure) -> DiscreteMeasure:
    """Push a measure onto the grid {k/n}.

    Grid point k/n receives the integral of bump k against the measure, an
    exact finite sum for atomic input over the two bumps nonzero at each
    atom. Requires the support to stay inside [-K, K]; mass outside would
    leak into the tail cells with the wrong transport length. This is the
    one-row case of ``discretize_rows``, whose row is already sorted, merged,
    positive, finite and mass-checked, so the measure is built unchecked.
    """
    layout = _flat_atoms([(m.positions, m.weights)])
    return DiscreteMeasure._trusted(*_discretize_flat(scheme.bump_shape, scheme.n, scheme.K, *layout)[:2])


def discretize_rows(scheme: PartitionScheme, measures) -> list:
    """``discretize`` of every measure in ``measures``, one array pass for all.

    Returns one ``(positions, weights)`` pair per measure: the grid points
    that keep more than ``WEIGHT_FLOOR`` and their renormalized weights, the
    arrays ``discretize`` stores in its measure. They are the rows of
    ``_discretize_flat`` of the measures laid out flat (``_flat_atoms``).
    """
    layout = _flat_atoms((m.positions, m.weights) for m in measures)
    return _flat_rows(*_discretize_flat(scheme.bump_shape, scheme.n, scheme.K, *layout))


def _discretize_flat(bump_shape: str, n, K, positions, weights, rows, count: int):
    """``discretize`` of each of ``count`` measures in the flat layout of
    ``measures._flat_atoms``, row r on the grid of ``bump_shape``, n[r] and
    K[r] (those of a valid ``PartitionScheme``; scalars serve every row):
    their grid measures in the same layout, each row with the bits of its
    measure alone, as one ``np.bincount`` keyed by (row, grid index) adds
    each bin's terms in input order. Each row has the bins of the widest
    grid; bin j holds grid point (j - n*K)/n.

    The checks of ``discretize`` are array operations over all rows, and the
    first bad row raises its error: the support bound (from each row's first
    and last atom), the cover of every atom, the mass of the grid weights,
    then the constructor's mass check on the kept weights. Those two masses
    are verdicts, |sum - 1| <= tol, read from ``util.fsum_near_one``; a row
    it refuses takes one exact sum for its message. The one exact sum of
    every row is the renormalizer of the kept weights (``util.fsum_rows``),
    whose bits reach them.
    """
    sizes = np.bincount(rows, minlength=count)
    ends = np.cumsum(sizes)
    bounds = np.maximum(np.abs(positions[ends - sizes]), np.abs(positions[ends - 1]))
    bad = np.flatnonzero(bounds > K)
    if bad.size:
        raise ValueError(f"measure support bound {bounds[bad[0]]:g} exceeds the scheme bound K={_at(K, bad[0])}")
    N = n * K
    width = 2 * (int(N.max(initial=0)) if isinstance(N, np.ndarray) else N) + 1
    cols, band = _band(bump_shape, _at(n, rows), _at(N, rows), positions)
    cols += rows * width
    grid_weights = np.bincount(
        (cols[:, None] + _PAIR).ravel(), (weights[:, None] * band).ravel(), minlength=count * width
    ).reshape(count, width)
    # zeros leave an exact fsum unchanged: the rows' nonzero weights, laid
    # flat row after row, carry all the per-row bookkeeping
    grid_rows, cols = np.nonzero(grid_weights)
    values = grid_weights[grid_rows, cols]
    whole = fsum_near_one(values, 1e-10, grid_rows, count)
    keep = values > WEIGHT_FLOOR
    rows, kept = grid_rows[keep], values[keep]
    kept = kept / np.array(fsum_rows(kept, rows, count))[rows]
    held = fsum_near_one(kept, MASS_TOL, rows, count)
    # a row a screen refuses is checked on its exact sum, which a NaN passes
    for r in np.flatnonzero(~(whole & held)).tolist():
        if not whole[r] and abs((total := _row_fsum(values, grid_rows, r)) - 1.0) > 1e-10:
            raise RuntimeError(f"partition of unity leaked mass: total {total!r}")
        if not held[r] and abs((mass := _row_fsum(kept, rows, r)) - 1.0) > MASS_TOL:
            raise ValueError(f"weights sum to {mass!r}, not 1")
    return (cols[keep] - _at(N, rows)) / _at(n, rows), kept, rows, count


def _row_fsum(values, rows, r):
    """The exact sum (``util.fsum``) of row r of a flat layout."""
    return fsum(values[np.searchsorted(rows, r) : np.searchsorted(rows, r, "right")])


def _at(values, index):
    """``values[index]`` of per-row values; a scalar is every row's."""
    return values[index] if isinstance(values, np.ndarray) else values
