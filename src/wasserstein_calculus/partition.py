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
many measures laid out flat, and scatters it onto one grid row per measure,
so its cost is O(total atoms) whatever n and K are; each row has the bits of
its measure discretized alone. ``discretize_rows`` and ``discretize`` are
its adapters, and ``PartitionScheme.weight_matrix`` densifies the band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import MASS_TOL, DiscreteMeasure, _flat_atoms
from .util import fsum_rows

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
        cols, band = self._band(xs)
        out = np.zeros((xs.size, self.indices.size))
        rows = np.arange(xs.size)[:, None]
        out[rows, cols[:, None] + _PAIR] = band
        return out

    def _band(self, xs: np.ndarray):
        """The only bumps that can be nonzero at each point, with their weights.

        At a point x only the bumps of grid indices floor(n*x) and
        floor(n*x) + 1 can be nonzero, clamped to [-n*K, n*K]; the tail ramps
        only in the two edge cells. Returns the column (grid index + n*K) of
        the first of the two bumps for each point, and a (len(xs), 2) array of
        their weights, each row summing to one.
        """
        N = self.edge_index
        nx = self.n * xs
        first = np.minimum(np.maximum(np.floor(nx), -N), N - 1)
        u = nx[:, None] - (first[:, None] + _PAIR)
        # snap near-integer cell coordinates (see GRID_SNAP)
        nearest = np.rint(u)
        u = np.where(np.abs(u - nearest) <= GRID_SNAP, nearest, u)
        if self.bump_shape == "smooth_bump":
            raw, ramp = _mollifier(u), _smoothstep
        else:
            raw, ramp = np.clip(1.0 - np.abs(u), 0.0, None), _clip_ramp
        left = first == -N
        if left.any():
            raw[left, 0] = ramp((-N + 1) - nx[left])
        right = first == N - 1
        if right.any():
            raw[right, 1] = ramp(nx[right] - (N - 1))
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
    return DiscreteMeasure._trusted(*_discretize_flat(scheme, *_flat_atoms([(m.positions, m.weights)]))[:2])


def discretize_rows(scheme: PartitionScheme, measures) -> list:
    """``discretize`` of every measure in ``measures``, one array pass for all.

    Returns one ``(positions, weights)`` pair per measure: the grid points
    that keep more than ``WEIGHT_FLOOR`` and their renormalized weights, the
    arrays ``discretize`` stores in its measure. They are the rows of
    ``_discretize_flat`` of the measures laid out flat (``_flat_atoms``).
    """
    layout = _flat_atoms((m.positions, m.weights) for m in measures)
    positions, weights, rows, count = _discretize_flat(scheme, *layout)
    ends = np.cumsum(np.bincount(rows, minlength=count)).tolist()
    return [(positions[a:b], weights[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def _discretize_flat(scheme: PartitionScheme, positions, weights, rows, count: int):
    """``discretize`` of each of ``count`` measures in the flat layout of
    ``measures._flat_atoms``: their grid measures in the same layout, each
    row with the bits of its measure alone, as one ``np.bincount`` keyed by
    (row, grid index) adds each bin's terms in input order.

    The checks of ``discretize`` are array operations over all rows, and the
    first bad row raises its error: the support bound (from each row's first
    and last atom), the cover of every atom, the mass of the grid weights,
    then the constructor's mass check on the kept weights.
    """
    sizes = np.bincount(rows, minlength=count)
    ends = np.cumsum(sizes)
    bounds = np.maximum(np.abs(positions[ends - sizes]), np.abs(positions[ends - 1]))
    bad = np.flatnonzero(bounds > scheme.K)
    if bad.size:
        raise ValueError(f"measure support bound {bounds[bad[0]]:g} exceeds the scheme bound K={scheme.K}")
    size = scheme.indices.size
    cols, band = scheme._band(positions)
    cols += rows * size
    grid_weights = np.bincount(
        (cols[:, None] + _PAIR).ravel(), (weights[:, None] * band).ravel(), minlength=count * size
    ).reshape(count, size)
    # zeros leave an exact fsum unchanged: the rows' nonzero weights, laid
    # flat row after row, carry all the per-row bookkeeping
    rows, cols = np.nonzero(grid_weights)
    values = grid_weights[rows, cols]
    totals = fsum_rows(values, rows, count)
    keep = values > WEIGHT_FLOOR
    rows, kept = rows[keep], values[keep]
    kept = kept / np.array(fsum_rows(kept, rows, count))[rows]
    masses = fsum_rows(kept, rows, count)
    leaked = np.abs(np.array(totals) - 1.0) > 1e-10
    bad = np.flatnonzero(leaked | (np.abs(np.array(masses) - 1.0) > MASS_TOL))
    if bad.size and leaked[bad[0]]:
        raise RuntimeError(f"partition of unity leaked mass: total {totals[bad[0]]!r}")
    if bad.size:
        raise ValueError(f"weights sum to {masses[bad[0]]!r}, not 1")
    return scheme.grid[cols[keep]], kept, rows, count
