"""Discrete probability measures on the real line.

A measure is a finite list of weighted atoms. The Wasserstein-1 distance
between two such measures is the integral of the absolute difference of their
cumulative distribution functions, which in one dimension equals the
optimal-transport cost exactly, so no solver is involved. Running sums are
compensated, and every whole-measure sum is exactly rounded: it has the bits
of ``math.fsum``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .util import check_keys, compensated_cumsum, fsum, fsum_rows, json_number

__all__ = [
    "DiscreteMeasure",
    "dirac",
    "mix",
    "integrate",
    "integrate_each",
    "w1",
    "w1_rows",
    "kr_lower_bound",
    "kr_lower_bound_rows",
    "signed_difference",
    "measure_to_dict",
    "measure_from_dict",
    "measure_to_json",
    "measure_from_json",
]

# Atoms closer than this (absolute) are one atom; repeated mixtures would
# otherwise accumulate near-duplicate positions.
MERGE_TOL = 1e-12

# Constructor rejects weight totals farther than this from one.
MASS_TOL = 1e-12

# The JSON deserializer renormalizes weight totals within this, rejects beyond.
JSON_MASS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure on the real line.

    Parameters
    ----------
    positions : array-like
        Atom locations. Sorted at construction; positions within
        ``MERGE_TOL`` are merged (weights add, the merged atom sits at the
        weight-averaged location).
    weights : array-like
        Non-negative masses summing to one within ``MASS_TOL``. Zero-weight
        atoms are dropped.

    Instances are immutable: the stored arrays are read-only and every
    operation on measures returns a new value. ``total_mass`` is cached on
    first use. Outside input is always validated; canonical arrays skip the
    checks, with the same bits, through the private ``_trusted`` (``dirac``,
    ``discretize``, ``sampling``'s draws, ``ftc.antiderivative``, ``mix``).

    Validation is one screen on the sorted atoms: one exactly rounded sum of
    the weights within ``MASS_TOL`` of one, finite end positions and a
    non-negative lightest weight. Together these hold exactly when every
    check passes. Input that fails the screen goes through the checks in
    order (finite, non-negative, mass) only to pick the error to raise.

    Every sum over a whole measure, here, in ``total_mass``, ``integrate``,
    ``w1`` and the JSON reader, has the bits of ``math.fsum`` on the list of
    its terms: ``util.fsum`` sums a long row from exact per-exponent sums in
    numpy, without the long list.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).ravel()
        w = np.asarray(self.weights, dtype=float).ravel()
        if pos.size == 0 or pos.shape != w.shape:
            raise ValueError("positions and weights must be equal-length and non-empty")
        order = pos.argsort(kind="stable")
        sorted_pos, sorted_w = pos[order], w[order]
        try:
            total = fsum(sorted_w)
        except (ValueError, OverflowError):  # -inf + inf, or overflow
            total = math.nan
        lightest = np.minimum.reduce(sorted_w)
        # the screen: a finite total near one makes every weight finite, and
        # sorted positions are finite when both ends are (-inf sorts first,
        # +inf and NaN last)
        if not (
            abs(total - 1.0) <= MASS_TOL
            and math.isfinite(sorted_pos[0])
            and math.isfinite(sorted_pos[-1])
            and lightest >= 0.0
        ):
            _reject(pos, w)
        pos, w = _group_atoms(sorted_pos, sorted_w, weighted=True)
        if lightest == 0.0:
            keep = w > 0.0
            pos, w = pos[keep], w[keep]
            if pos.size == 0:
                raise ValueError("measure has no atom with positive weight")
        _store(self, pos, w)

    @classmethod
    def _trusted(cls, pos: np.ndarray, w: np.ndarray) -> "DiscreteMeasure":
        """``cls(pos, w)`` without its checks, for finite 1-D float arrays
        that the caller hands over and guarantees sorted with gaps above
        MERGE_TOL, positive and mass-checked; the bits are the same."""
        m = object.__new__(cls)
        _store(m, pos, w)
        return m

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(p), float(w)) for p, w in zip(self.positions, self.weights)]

    @property
    def support_bound(self) -> float:
        """Smallest K with every atom inside [-K, K]."""
        return float(max(abs(self.positions[0]), abs(self.positions[-1])))

    @cached_property
    def total_mass(self) -> float:
        return fsum(self.weights)

    def __len__(self) -> int:
        return int(self.positions.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return np.array_equal(self.positions, other.positions) and np.array_equal(
            self.weights, other.weights
        )

    def allclose(self, other: "DiscreteMeasure", atol: float = 1e-12) -> bool:
        """Atom-wise comparison within an absolute tolerance."""
        return (
            len(self) == len(other)
            and bool(np.all(np.abs(self.positions - other.positions) <= atol))
            and bool(np.all(np.abs(self.weights - other.weights) <= atol))
        )

    def __repr__(self) -> str:
        return (
            f"DiscreteMeasure({len(self)} atoms on "
            f"[{self.positions[0]:g}, {self.positions[-1]:g}])"
        )


def _reject(pos: np.ndarray, w: np.ndarray):
    """Raise the error of the first check that the atoms, in their given
    order, fail; only called on atoms that failed the constructor's screen,
    so one always fails."""
    if not (np.isfinite(pos).all() and np.isfinite(w).all()):
        raise ValueError("positions and weights must be finite")
    if (w < 0.0).any():
        raise ValueError("weights must be non-negative")
    raise ValueError(f"weights sum to {fsum(w)!r}, not 1")  # may overflow


def _store(m: DiscreteMeasure, pos: np.ndarray, w: np.ndarray) -> None:
    pos.setflags(write=False)
    w.setflags(write=False)
    object.__setattr__(m, "positions", pos)
    object.__setattr__(m, "weights", w)


def _group_atoms(pos: np.ndarray, w: np.ndarray, weighted: bool):
    """Combine sorted atoms whose positions chain within MERGE_TOL, for the
    constructor and where ``_merged`` refuses: each run becomes one atom
    weighing the ``math.fsum`` of its weights. A run of identical positions
    keeps that position exactly (grid atoms rely on it); any other sits at
    the weight-averaged position when ``weighted`` and the total is
    positive, else at the mean. Runs of two are array arithmetic, which for
    two terms rounds as ``fsum`` and ``mean`` do; only longer runs loop.
    """
    split = (pos[1:] - pos[:-1]) > MERGE_TOL
    if split.all():
        return pos, w
    starts = np.flatnonzero(np.concatenate(([True], split)))
    sizes = np.diff(np.append(starts, pos.size))
    out_p, out_w = pos[starts], w[starts]
    pairs = np.flatnonzero(sizes == 2)
    i = starts[pairs]
    pa, pb, wa, wb = pos[i], pos[i + 1], w[i], w[i + 1]
    total = wa + wb
    centre = (pa + pb) / 2.0
    if weighted:
        # + 0.0 turns a -0.0 moment into 0.0, the zero fsum returns
        moment = (pa * wa + pb * wb) + 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            centre = np.where(total > 0.0, moment / total, centre)
    out_p[pairs] = np.where(pa == pb, pa, centre)
    out_w[pairs] = total
    for g in np.flatnonzero(sizes > 2):
        i, j = starts[g], starts[g] + sizes[g]
        ww = math.fsum(w[i:j].tolist())
        out_w[g] = ww
        if pos[j - 1] == pos[i]:
            out_p[g] = pos[i]
        elif weighted and ww > 0.0:
            out_p[g] = math.fsum((pos[i:j] * w[i:j]).tolist()) / ww
        else:
            out_p[g] = float(pos[i:j].mean())
    return out_p, out_w


def dirac(x: float) -> DiscreteMeasure:
    """Unit mass at ``x``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("dirac position must be finite")
    return DiscreteMeasure._trusted(np.array([x]), np.array([1.0]))


def mix(a: DiscreteMeasure, b: DiscreteMeasure, t: float) -> DiscreteMeasure:
    """Convex combination (1-t)*a + t*b: the one-row case of ``mix_rows``,
    and the constructor where that returns None."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError("mixture parameter must lie in [0, 1]")
    if t == 0.0:
        return a
    if t == 1.0:
        return b
    row = mix_rows(a, b, t)
    if row is not None:
        return DiscreteMeasure._trusted(*row)
    return DiscreteMeasure(np.concatenate((a.positions, b.positions)), np.concatenate(((1.0 - t) * a.weights, t * b.weights)))


def mix_rows(a: DiscreteMeasure, b: DiscreteMeasure, ts):
    """All mixtures (1-t)*a + t*b, t in ``ts``, on their one shared support.

    Returns ``(positions, weights)`` where row k of the 2-D ``weights`` holds
    the weights of ``mix(a, b, ts[k])`` on ``positions``, bit for bit, from
    one ``_merged`` call; a float t gives its row 1-D. Returns None when the
    rows do not share a support (two distinct positions within MERGE_TOL,
    whose merged atom moves with t), when a weight is not positive (it
    underflows to zero, or t lies outside (0, 1)), and when an input's mass
    lies over MASS_TOL / 2 from one (a row's differs by rounding only, so
    every row passes the constructor's mass check); ``mix`` then takes the
    constructor, which merges, drops and checks.
    """
    if max(abs(a.total_mass - 1.0), abs(b.total_mass - 1.0)) > 0.5 * MASS_TOL:
        return None
    ts = np.asarray(ts, dtype=float)[..., None]
    rows = _merged(a.positions, (1.0 - ts) * a.weights, b.positions, ts * b.weights)
    if rows is None or not np.minimum.reduce(rows[1], axis=None, initial=1.0) > 0.0:
        return None
    return rows


def _merged(pa, wa, pb, wb, group: bool = False):
    """The atoms of two measures, each sorted with gaps above MERGE_TOL, in
    one stable sort, weights of shape (..., atoms). A gap within MERGE_TOL
    joins an atom of a to one of b: where all such gaps are zero, each
    pair's weights add as in ``_group_atoms`` and its second atom goes;
    else (or for a run of three) None, or with ``group`` ``_group_atoms``."""
    pos = np.concatenate((pa, pb))
    order = pos.argsort(kind="stable")
    pos, w = pos.take(order), np.concatenate((wa, wb), axis=-1).take(order, axis=-1)
    gaps = pos[1:] - pos[:-1]
    if np.minimum.reduce(gaps) > MERGE_TOL:
        return pos, w
    joined = np.flatnonzero(gaps <= MERGE_TOL)
    if (gaps[joined] != 0.0).any() or (joined[1:] - joined[:-1] == 1).any():
        return _group_atoms(pos, w, weighted=False) if group else None
    w[..., joined] += w[..., joined + 1]
    keep = np.concatenate(([True], gaps != 0.0))  # all but a pair's second atom
    # a 1-D mask is several times faster than one along the last axis
    return pos[keep], w[keep] if w.ndim == 1 else np.compress(keep, w, axis=-1)


def _values_at(f, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on an array of points, falling back to a scalar loop."""
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape == xs.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(f(x)) for x in xs])


def _finite_values(f, positions: np.ndarray) -> np.ndarray:
    vals = _values_at(f, positions)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = positions[~finite][0]
        raise ValueError(f"integrand is not finite at atom {float(bad)!r}")
    return vals


def integrate(m: DiscreteMeasure, f) -> float:
    """Pairing <f, m> = sum of weight * f(position), exactly rounded."""
    return fsum(m.weights * _finite_values(f, m.positions))


def integrate_each(measures, f) -> np.ndarray:
    """``integrate(m, f)`` for each measure of a list, with its bits and errors:
    ``integrate_flat`` of their atoms laid out flat."""
    positions, weights, sizes = _atom_rows(measures)
    return integrate_flat(positions, weights, f, sizes)


def _flat_atoms(pairs):
    """The atoms of (positions, weights) pairs laid out flat, pair after
    pair, with the atom count of each pair: (positions, weights, sizes), a
    part of ``_padded_rows`` and the rows ``util.fsum_rows`` takes."""
    pairs = list(pairs)
    sizes = np.array([p.size for p, _ in pairs], dtype=np.intp)
    positions = np.concatenate([p for p, _ in pairs] or [np.zeros(0)])
    weights = np.concatenate([w for _, w in pairs] or [np.zeros(0)])
    return positions, weights, sizes


def _atom_rows(measures):
    """The measures laid out flat (``_flat_atoms``), row after row."""
    return _flat_atoms((m.positions, m.weights) for m in measures)


def _flat_rows(positions, weights, sizes) -> list:
    """The (positions, weights) pair of each row of a flat layout, as views."""
    ends = np.cumsum(sizes).tolist()
    return [(positions[a:b], weights[a:b]) for a, b in zip([0] + ends, ends)]


def integrate_flat(positions, weights, f, sizes=None) -> np.ndarray:
    """``integrate`` against each of many measures, with their bits and
    errors (the first bad atom in row order): ``f``, which must act value by
    value, once on all positions, and one ``fsum_rows`` call. The measures
    are the rows of ``weights`` (shape (..., rows, atoms)) on the
    ``positions`` (shape (..., atoms)) of their leading index, as
    ``mix_rows`` gives them, or with ``sizes`` those laid out flat, as
    ``_flat_atoms`` gives them."""
    if sizes is None:
        products = weights * _finite_values(f, positions)[..., None, :]
        return np.array(fsum_rows(products.reshape(-1, products.shape[-1]))).reshape(weights.shape[:-1])
    return np.array(fsum_rows(weights * _finite_values(f, positions), sizes))


def w1(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """Exact Wasserstein-1 distance.

    Computed as the piecewise-constant integral of |F_a - F_b| over the merged
    breakpoint set, where F denotes the cumulative distribution function. In
    one dimension this integral attains the optimal-coupling infimum, and is
    symmetric and zero exactly when the measures coincide.

    This is the one-row case of ``w1_rows``, which computes the distance for
    many pairs of measures in one array pass with the same bits per pair.
    """
    if a is b:
        return 0.0
    return float(_w1_flat((a.positions, a.weights, a.positions.size), (b.positions, b.weights, b.positions.size))[0])


def w1_rows(firsts, seconds) -> np.ndarray:
    """``w1`` of every pair (firsts[r], seconds[r]), one array pass for all.

    Each item is a ``(positions, weights)`` pair of a probability measure, as
    a ``DiscreteMeasure`` holds them or ``partition.discretize_rows`` returns
    them; each side is laid out flat (``_flat_atoms``) for ``_w1_flat``.
    """
    pairs = list(zip(firsts, seconds, strict=True))
    return _w1_flat(_flat_atoms(a for a, _ in pairs), _flat_atoms(b for _, b in pairs))


def _w1_flat(first, second) -> np.ndarray:
    """``w1`` of row r of one flat layout (positions, weights, sizes) of
    probability measures against row r of another, with the bits of each
    pair alone; a layout whose size is an int is one row.

    ``_padded_rows`` sorts row r of the first and of the second, with negated
    weights, into one padded row in the order of the one-row sort; the
    running sums are sequential along the row, a pad adds a gap of 0, and
    each row has one exactly rounded sum (``util.fsum_rows``).
    """
    pb, wb, nb = second
    pos, signed, _, _ = _padded_rows(first, (pb, -wb, nb))
    cdf_gap = compensated_cumsum(signed)
    return np.array(fsum_rows(np.abs(cdf_gap[:, :-1]) * (pos[:, 1:] - pos[:, :-1])))


def _padded_rows(*parts):
    """Rows of atoms, each stably sorted by position, in one padded block.

    A part is (positions, weights, sizes): with per-row ``sizes``, its atoms
    laid out row after row, as ``_flat_atoms`` lays them; with an int, one
    row that every row shares, before every per-row part. Row r holds each
    part's row r in turn, stably sorted, so tied atoms keep part order; a
    block of one row (an int size, or one per-row size) is the plain
    concatenation of the parts, sorted. Returns (positions, weights, sizes,
    pads): (rows, width) blocks, the atoms of each row, and the mask of the
    pads, or None if none. A pad has weight 0 at a copy of its row's last
    atom, so a padded row must hold an atom; the atoms must be finite, as
    the pads are the cells that sort last at +inf.
    """
    positions, weights, sizes = zip(*parts)
    sizes = np.atleast_1d(sum(sizes))
    if sizes.size == 1:  # one row
        positions, weights = np.concatenate(positions), np.concatenate(weights)
        order = positions.argsort(kind="stable")
        return positions[order][None], weights[order][None], sizes, None
    count, width = sizes.size, int(sizes.max(initial=0))
    firsts = np.arange(count) * width  # flat index of each row's first cell
    positions, weights = np.full(count * width, np.inf), np.zeros(count * width)  # pads sort last
    start = 0  # the first column of the next part: an int, then one per row
    for p, w, s in parts:
        end = start + s
        if isinstance(s, np.ndarray):  # an atom's cell: its row's first free one, plus its place in the row
            cells = np.arange(p.size) + (firsts + end - s.cumsum()).repeat(s)
            positions[cells], weights[cells] = p, w
        else:  # shared: the same columns in every row
            positions.reshape(count, width)[:, start:end] = p
            weights.reshape(count, width)[:, start:end] = w
        start = end
    order = positions.reshape(count, width).argsort(axis=1, kind="stable") + firsts[:, None]
    positions, weights = positions.take(order), weights.take(order)
    if sizes.min(initial=width) == width:
        return positions, weights, sizes, None
    pads = positions == np.inf
    np.copyto(positions, positions.take(firsts + sizes - 1)[:, None], where=pads)
    return positions, weights, sizes, pads


def kr_lower_bound(a: DiscreteMeasure, b: DiscreteMeasure, f) -> float:
    """Duality pairing ``integrate(a, f) - integrate(b, f)`` for 1-Lipschitz f.

    Never exceeds ``w1(a, b)``: the supremum of this pairing over all
    1-Lipschitz functions equals the distance. ``f`` declares its bound as
    ``lipschitz_bound``; when it also declares ``lipschitz_radius`` R, the
    bound holds on [-R, R] only, and measures with an atom outside are
    rejected; so is a bound or radius of NaN. The one-pair case of
    ``kr_lower_bound_rows``.
    """
    return float(kr_lower_bound_rows([a], [b], f)[0])


def kr_lower_bound_rows(firsts, seconds, f) -> np.ndarray:
    """``kr_lower_bound`` of every pair (firsts[r], seconds[r]), with its bits
    and its checks: one ``integrate_each`` call for all the measures."""
    if len(firsts) != len(seconds):
        raise ValueError("firsts and seconds must hold the same number of measures")
    bound = getattr(f, "lipschitz_bound", None)
    if bound is None or not bound <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError("test function must declare a Lipschitz bound <= 1")
    radius = getattr(f, "lipschitz_radius", math.inf)
    if not radius >= 0.0:
        raise ValueError(f"test function must declare a Lipschitz radius >= 0, not {radius!r}")
    measures = [*firsts, *seconds]
    if radius < math.inf and max((m.support_bound for m in measures), default=0.0) > radius:
        raise ValueError(
            f"an atom lies outside [-{radius:g}, {radius:g}], where the Lipschitz bound holds"
        )
    pairings = integrate_each(measures, f)
    return pairings[: len(firsts)] - pairings[len(firsts) :]


def signed_difference(a: DiscreteMeasure, b: DiscreteMeasure):
    """Atoms of the signed measure a - b: (positions, signed_weights) over
    the merged support (``_merged``), where positions within MERGE_TOL
    combine and exact cancellations are dropped."""
    pos, signed = _merged(a.positions, a.weights, b.positions, -b.weights, group=True)
    keep = signed != 0.0
    return pos[keep], signed[keep]


def measure_to_dict(m: DiscreteMeasure) -> dict:
    return {"atoms": [[float(p), float(w)] for p, w in m.atoms]}


def measure_from_dict(data: dict) -> DiscreteMeasure:
    """Build a measure from ``{"atoms": [[pos, weight], ...]}``.

    Each atom is a list or tuple of two; every position and weight must be a
    finite number (see ``util.json_number``). Weight totals within
    JSON_MASS_TOL of one are renormalized; anything farther off is rejected.
    """
    if not isinstance(data, dict) or "atoms" not in data:
        raise ValueError('measure JSON must be an object with an "atoms" list')
    check_keys(data, ("atoms",), "measure")
    atoms = data["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ValueError('"atoms" must be a non-empty list of [position, weight] pairs')
    # lists of two floats, the usual atoms, pass one check and convert in one
    # step; any other atom, or a non-finite float, goes atom by atom
    floats = all(type(a) is list and len(a) == 2 and type(a[0]) is float and type(a[1]) is float for a in atoms)
    arr = np.array(atoms) if floats else None
    if arr is None or not np.isfinite(arr).all():
        arr = np.array([_atom_numbers(atom) for atom in atoms])
    pos, w = arr[:, 0], arr[:, 1]
    if (w < 0.0).any():
        raise ValueError("weights must be non-negative")
    total = fsum(w)
    if abs(total - 1.0) > JSON_MASS_TOL:
        raise ValueError(f"weights sum to {total!r}; beyond the renormalization tolerance")
    return DiscreteMeasure(pos, w / total)


def _atom_numbers(atom) -> tuple:
    if not isinstance(atom, (list, tuple)) or len(atom) != 2:
        raise ValueError("atoms must be [position, weight] pairs")
    return json_number(atom[0], "atom position"), json_number(atom[1], "atom weight")


def measure_to_json(m: DiscreteMeasure) -> str:
    return json.dumps(measure_to_dict(m))


def measure_from_json(text: str) -> DiscreteMeasure:
    return measure_from_dict(json.loads(text))
