"""Finite-difference derivatives of measure-variable functions.

The directional difference quotient

    [F((1-eps)*m + eps*dirac(x)) - F(m)] / eps

converges, for differentiable F, to the canonical functional derivative at
(m, x). One Richardson level cancels the O(eps) truncation term, leaving an
O(eps^2) estimator. ``dawson_each`` is the one quotient routine, for many
functions at many (measure, point) pairs; ``dawson_rows`` is its one-pair
case, ``dawson`` its one-step case, and ``dawson_extrapolated`` combines its
steps (eps, eps/2). A function of a measure may carry a flat evaluator
``evaluate_flat(positions, weights, rows, count)`` (as ``CylinderFunction``
does) that returns F of ``count`` measures laid out flat, as
``util.fsum_rows`` takes rows, bit for bit: one call then evaluates all base
measures, and one the perturbed measures of every pair whose steps share a
support (see ``measures.mix_rows``); all else is evaluated step by step.
The module also verifies the defining integral identity

    F(m) - F(mu) = int_0^1 int H((1-t)*mu + t*m, x) d(m - mu)(x) dt

whose right side ``segment_integral_each`` evaluates by Gauss-Legendre
quadrature in t (the integrand is analytic in t for atomic measures, so a
fixed order gives near-machine precision), from one base point mu to many
measures m. It is the one quadrature routine: ``segment_integral`` is its
one-segment case, and ``verify_deriv2`` and the antiderivative of ``ftc``
call it.

The measures at the quadrature nodes of a segment share one support and
differ only in their weights, which are linear in t. A field may therefore
carry a batched evaluator ``batch_value(positions, weights, xs)``: row k of
``weights`` (shape (nodes, atoms)) holds the weights of one node's measure
on ``positions``, and it must return the (nodes, len(xs)) array whose row k
equals ``value(DiscreteMeasure(positions, weights[k]), xs)`` bit for bit.
It must also broadcast over a leading segment axis: ``positions`` (segments,
atoms), ``weights`` (segments, nodes, atoms) and ``xs`` (segments, points)
give (segments, nodes, points), each segment on its own support. Segments
go to it in padded blocks of at most ``SEGMENT_BLOCK``; a pad is an atom of
weight 0, or a point of signed weight 0, at a copy of its row's last one.
The fields built in this package carry one, and ``canonicalize`` keeps it;
any other field is evaluated node by node, as is every segment whose nodes
do not share a support (see ``measures.mix_rows``).

All segments of a call start at mu, so one stable sort of padded rows
(mu's atoms with negated weights, then those of m) prepares them all: a row
is the signed difference m - mu and the support of the node mixtures. A
row that ``signed_difference`` would merge or ``mix_rows`` refuse is
prepared alone by them (see ``_prepared``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .measures import MASS_TOL, MERGE_TOL, DiscreteMeasure, _flat_atoms, _values_at, dirac, mix, mix_rows, signed_difference
from .sampling import _passes, random_draws
from .util import check_samples, fsum_rows, gauss_legendre_01, max_or_nan

__all__ = [
    "DerivativeField",
    "MeasureFunction",
    "zero_field",
    "dawson",
    "dawson_each",
    "dawson_rows",
    "dawson_extrapolated",
    "dawson_extrapolated_each",
    "uniform_dawson_modulus",
    "segment_integral",
    "segment_integral_each",
    "verify_deriv2",
    "canonicalize",
    "DEFAULT_EPS",
    "MIN_STEP",
    "DEFAULT_QUAD_ORDER",
    "DEFAULT_SEED",
]

# eps near (unit roundoff)^(1/3) balances the O(eps^2) truncation of the
# extrapolated estimator against the 1/eps amplification of float error.
DEFAULT_EPS = 1e-3
# Smallest quotient step: at 2^-26 (1.5e-8) the rounding of F, amplified by
# u/step, alone reaches about 1e-8; DEFAULT_EPS / 2 lies far above it.
MIN_STEP = 2.0**-26
DEFAULT_QUAD_ORDER = 32
DEFAULT_SEED = 0
# A padded block of ``segment_integral_each`` holds at most this many
# segments, and at most this many node weights (segments x nodes x the
# widest support): 32 segments of 32 nodes make 1,024 node rows, and a
# block of the sweep's measures peaks near 1 MiB.
SEGMENT_BLOCK = 32
BLOCK_VALUES = 1 << 14


@dataclass(frozen=True)
class DerivativeField:
    """A candidate derivative H(m, x) with its x-derivative.

    ``value`` and ``dx`` map (measure, point) to a real; point arguments may
    be arrays for the fields built in this package. ``linear_delta``, when
    present, is the exact canonical derivative of m -> value(m, x) at y.
    ``batch_value``, when present, evaluates ``value`` on a batch of measures
    sharing one support, as the module docstring specifies.
    ``batch_linear_delta(positions, weights, xs, ys)``, when present, is
    ``linear_delta`` on that layout at the point pairs of ``xs`` and ``ys``
    (segments, points): entry [s, k, p] equals ``linear_delta(m, xs[s, p],
    ys[s, p])`` bit for bit, m the measure of row k of segment s. Lifted,
    counterexample and zero fields carry both.
    """

    value: Callable[[DiscreteMeasure, float], float]
    dx: Callable[[DiscreteMeasure, float], float]
    linear_delta: Optional[Callable[[DiscreteMeasure, float, float], float]] = None
    label: str = ""
    batch_value: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    batch_linear_delta: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class MeasureFunction:
    """Black-box deterministic function of a measure, with an optional flat
    evaluator (see the module docstring)."""

    fn: Callable[[DiscreteMeasure], float]
    label: str = ""
    evaluate_flat: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]] = None

    def __call__(self, m: DiscreteMeasure) -> float:
        return float(self.fn(m))


def zero_field() -> DerivativeField:
    def zero2(m, x):
        out = np.zeros(np.shape(x))
        return float(out) if np.ndim(x) == 0 else out

    def zero3(m, x, y):
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
        return float(out) if out.ndim == 0 else out

    def zero_rows(positions, weights, xs, ys=None):
        return np.zeros(weights.shape[:-1] + np.shape(xs)[-1:])

    return DerivativeField(
        value=zero2, dx=zero2, linear_delta=zero3, label="zero", batch_value=zero_rows, batch_linear_delta=zero_rows
    )


def field_values(H: DerivativeField, m: DiscreteMeasure, xs: np.ndarray) -> np.ndarray:
    """Evaluate H(m, .) on an array of points, tolerating scalar-only fields."""
    return _values_at(lambda t: H.value(m, t), xs)


def dawson_each(functions, measures, points, steps) -> np.ndarray:
    """Difference quotients (F(mix(m, dirac(x), s)) - F(m)) / s of every
    function F at every pair (m, x) = (measures[i], points[i]) and step s,
    shape (functions, pairs, steps); F returns a float.

    Each step must lie in [MIN_STEP, 0.5]: a smaller one amplifies the
    rounding of F by u/step, and below 2^-53 the mixture cannot carry it.
    Each pair makes at most one ``mix_rows`` call, shared by every function
    with an ``evaluate_flat`` (see the module docstring). Every entry has
    the bits of the step path, and an error is the one that ``dawson_rows``
    calls, function by function and pair by pair, raise first.
    """
    steps = [float(s) for s in steps]
    for s in steps:
        if not MIN_STEP <= s <= 0.5:
            raise ValueError(f"step {s!r} must lie in [2**-26, 0.5]")
    if len(measures) != len(points):
        raise ValueError("measures and points must be as many")
    try:
        return _quotients(functions, measures, points, steps)
    except ValueError:
        for F in functions:
            for m, x in zip(measures, points):
                _quotients((F,), (m,), (x,), steps)  # raises the first pair's error
        raise


def _quotients(functions, measures, points, steps) -> np.ndarray:
    diracs = [dirac(x) for x in points]
    flat = [getattr(F, "evaluate_flat", None) for F in functions]
    if any(flat):
        batches = [mix_rows(m, p, steps) for m, p in zip(measures, diracs)]
        shared = [i for i, batch in enumerate(batches) if batch is not None]
        bases = _flat_atoms((m.positions, m.weights) for m in measures)
        mixtures = _flat_atoms((batches[i][0], w) for i in shared for w in batches[i][1])
    out = np.empty((len(functions), len(measures), len(steps)))
    for F, evaluate, q in zip(functions, flat, out):
        if evaluate is None:
            base, stepped = np.array([F(m) for m in measures]), range(len(measures))
        else:
            base, stepped = evaluate(*bases), [i for i, batch in enumerate(batches) if batch is None]
            if shared:
                q[shared] = evaluate(*mixtures).reshape(len(shared), len(steps))
        for i in stepped:
            q[i] = [F(mix(measures[i], diracs[i], s)) for s in steps]
        q -= base[:, None]
        q /= steps
    return out


def dawson_rows(F, m: DiscreteMeasure, x: float, steps) -> np.ndarray:
    """Difference quotients (F(mix(m, dirac(x), s)) - F(m)) / s, one per step
    s: the one-pair case of ``dawson_each``, with F(m) evaluated once."""
    return dawson_each((F,), (m,), (x,), steps)[0, 0]


def dawson(F, m: DiscreteMeasure, x: float, eps: float) -> float:
    """Difference quotient of F at m in the direction of a point mass at x:
    the one-step case of ``dawson_rows``."""
    return float(dawson_rows(F, m, x, (eps,))[0])


def dawson_extrapolated(F, m: DiscreteMeasure, x: float, eps: float) -> float:
    """Richardson-corrected quotient: 2*q(eps/2) - q(eps), error O(eps^2):
    the one-pair case of ``dawson_extrapolated_each``."""
    return float(dawson_extrapolated_each(F, (m,), (x,), eps)[0])


def dawson_extrapolated_each(F, measures, points, eps: float) -> np.ndarray:
    """``dawson_extrapolated`` at every pair (measures[i], points[i]), from
    one ``dawson_each`` call with the steps (eps, eps/2)."""
    eps = float(eps)
    if not eps <= 0.25:
        raise ValueError("eps must lie in (0, 0.25]")
    q = dawson_each((F,), measures, points, (eps, 0.5 * eps))[0]
    return richardson(q[:, 0], q[:, 1])


def richardson(q_full: float, q_half: float) -> float:
    """2*q(eps/2) - q(eps): the quotients at the steps eps and eps/2 with
    their O(eps) truncation terms cancelled."""
    return 2.0 * q_half - q_full


def uniform_dawson_modulus(
    F,
    oracle: DerivativeField,
    K: float,
    eps: float,
    samples: int,
    *,
    seed: int = DEFAULT_SEED,
) -> float:
    """Sampled sup of |difference quotient - oracle| over measures in [-K, K].

    The true sup over the whole ball is not computable; a seeded sampled max
    (atom count <= 12, uniform positions, flat Dirichlet weights) is the
    reproducible surrogate.
    """
    check_samples(samples)
    gaps = []
    for chunk in _passes(random_draws(seed, "dawson-modulus", range(samples), K, points=1)):
        ms, xs = zip(*chunk)  # one dawson_each call per draw pass
        quotients = dawson_each((F,), ms, xs, (eps,))[0, :, 0].tolist()
        gaps += [abs(q - oracle.value(m, x)) for q, m, x in zip(quotients, ms, xs)]
    return max_or_nan(gaps)


def segment_integral(
    H: DerivativeField,
    mu: DiscreteMeasure,
    m: DiscreteMeasure,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """int_0^1 int H((1-t)*mu + t*m, x) d(m - mu)(x) dt: the one-segment case
    of ``segment_integral_each``."""
    return _segments(H, mu, (m,), *gauss_legendre_01(quad_order))[0]


def segment_integral_each(H: DerivativeField, mu: DiscreteMeasure, measures, quad_order: int = DEFAULT_QUAD_ORDER):
    """``segment_integral`` from mu to each of many measures, with the bits
    and errors of each segment alone.

    Gauss-Legendre quadrature in t of the exact atom-sum against m - mu; zero
    when m - mu has no atom. One padded sort prepares the segments
    (``_prepared``); a segment whose nodes share a support goes to the
    field's ``batch_value``, in a padded block of at most ``SEGMENT_BLOCK``
    segments and ``BLOCK_VALUES`` node weights when the sort prepared it
    (see the module docstring), and any other is ``mix(mu, m, t)`` at each
    node, evaluated by ``value``. A block segment whose value is not finite
    is computed again alone, as pads can turn an infinite value into NaN;
    an error is the one the segments, computed alone in order, raise first.
    """
    nodes, weights = gauss_legendre_01(quad_order)
    try:
        return np.array(_segments(H, mu, measures, nodes, weights))
    except (ArithmeticError, ValueError):
        return np.array([segment_integral(H, mu, m, quad_order) for m in measures])


def _segments(H, mu, measures, nodes, weights) -> list:
    if H.batch_value is None or not measures:
        return [_segment(H, mu, m, nodes, weights) for m in measures]
    out, block = [0.0] * len(measures), []
    positions, signed, sizes, fast = _prepared(mu, measures, nodes)

    def flush(width):
        rows = block[0] if len(block) == 1 else block  # one segment without the leading axis
        for j, value in zip(block, _block(H, nodes, weights, positions[rows, :width], signed[rows, :width])):
            alone = len(block) == 1 or math.isfinite(value)
            out[j] = value if alone else segment_integral(H, mu, measures[j], nodes.size)
        block.clear()

    width = 0
    for i, size in enumerate(sizes.tolist()):
        if not fast[i]:
            out[i] = _segment(H, mu, measures[i], nodes, weights)
            continue
        if block and (len(block) + 1) * nodes.size * max(width, size) > BLOCK_VALUES:
            flush(width)
        width = max(width, size) if block else size
        block.append(i)
        if len(block) == SEGMENT_BLOCK:
            flush(width)
    if block:
        flush(width)
    return out


def _padded_rows(measures, base=None):
    """Each measure's atoms as a row of a padded block, filled through a
    mask: (positions, weights) of shape (rows, width), the row sizes, and
    the mask of the pads (None if none). With a ``base``, row r holds its
    atoms with negated weights and then those of measures[r], sorted
    stably by position. A pad is an atom of weight 0 at a copy of its
    row's last atom."""
    lead_p, lead_w = (np.zeros(0), np.zeros(0)) if base is None else (base.positions, -base.weights)
    if len(measures) == 1:
        m = measures[0]
        positions, weights = np.concatenate((lead_p, m.positions)), np.concatenate((lead_w, m.weights))
        if base is not None:
            order = positions.argsort(kind="stable")
            positions, weights = positions[order], weights[order]
        return positions[None], weights[None], np.array([positions.size]), None
    count, sizes = len(measures), np.array([m.positions.size for m in measures]) + lead_p.size
    columns = np.arange(sizes.max())
    positions, weights = np.full((count, columns.size), np.inf), np.zeros((count, columns.size))  # pads sort last
    positions[:, : lead_p.size], weights[:, : lead_p.size] = lead_p, lead_w
    atoms = (columns >= lead_p.size) & (columns < sizes[:, None])  # row by row, as concatenated
    positions[atoms] = np.concatenate([m.positions for m in measures])
    weights[atoms] = np.concatenate([m.weights for m in measures])
    if base is not None:
        order = np.argsort(positions, axis=1, kind="stable")
        order += np.arange(0, positions.size, columns.size)[:, None]  # flat indices
        positions, weights = np.take(positions, order), np.take(weights, order)
    pads = columns >= sizes[:, None]
    if not pads.any():
        return positions, weights, sizes, None
    np.copyto(positions, positions[np.arange(count), sizes - 1][:, None], where=pads)
    return positions, weights, sizes, pads


def _prepared(mu, measures, nodes):
    """The segments from mu to each measure by one padded sort: (positions,
    signed, sizes, fast) of ``_padded_rows(measures, mu)``.

    A ``fast`` row has the bits of ``signed_difference(m, mu)`` and, through
    ``_mixtures``, of ``mix_rows(mu, m, nodes)``: no two atoms lie within
    MERGE_TOL, mu and m pass the mass check of ``mix_rows``, and (1-t) w and
    t w are positive at the smallest factor, so at every node (rounding is
    monotone). Any other row is prepared alone (``_segment``).
    """
    positions, signed, sizes, pads = _padded_rows(measures, mu)
    ok = min(1.0 - nodes[-1], nodes[0]) * np.abs(signed) > 0.0  # the nodes ascend
    ok[:, 1:] &= positions[:, 1:] - positions[:, :-1] > MERGE_TOL
    if pads is not None:  # a pad has weight 0 and a gap of 0 before it
        ok |= pads
    fast = ok.all(axis=1)
    if abs(mu.total_mass - 1.0) > 0.5 * MASS_TOL:
        fast[:] = False
    masses = fsum_rows(np.where(signed > 0.0, signed, 0.0))  # m's weights, exactly summed
    fast &= [abs(mass - 1.0) <= 0.5 * MASS_TOL for mass in masses]
    return positions, signed, sizes, fast


def _mixtures(signed, nodes):
    """The weights (1-t) * mu + t * m at each node t, on a prepared row or
    on each row of a block: shape (..., nodes, atoms), with the bits of
    ``mix_rows``. An atom of mu has a negative signed weight, one of m a
    positive one, and a pad keeps weight 0."""
    signed, t = signed[..., None, :], nodes[:, None]
    return np.where(signed < 0.0, 1.0 - t, t) * np.abs(signed)


def _segment(H, mu, m, nodes, weights) -> float:
    """One segment prepared alone, by ``signed_difference`` and
    ``mix_rows`` with their merges, cancellations and None; node by node
    when the nodes do not share a support or H has no ``batch_value``."""
    pos, sw = signed_difference(m, mu)
    if pos.size == 0:
        return 0.0
    batch = None if H.batch_value is None else mix_rows(mu, m, nodes)
    if batch is None:
        vals = np.array([field_values(H, mix(mu, m, float(t)), pos) for t in nodes])
    else:
        vals = H.batch_value(*batch, pos)
    return _quadrature(weights, fsum_rows(sw * vals))


def _block(H, nodes, weights, positions, signed) -> list:
    """The segment integrals of a block of prepared rows, padded: positions
    and signed weights of shape (segments, atoms), or (atoms,) for one
    segment, which goes to the field without the leading axis."""
    products = signed[..., None, :] * H.batch_value(positions, _mixtures(signed, nodes), positions)
    if positions.ndim == 1:
        return [_quadrature(weights, fsum_rows(products))]
    sums = np.array(fsum_rows(products.reshape(-1, positions.shape[1]))).reshape(len(positions), -1)
    return fsum_rows(weights * sums)  # each row as _quadrature sums it


def _quadrature(weights, sums) -> float:
    """The Gauss-Legendre sum of a segment's node sums, exactly rounded."""
    return math.fsum([gw * s for gw, s in zip(weights.tolist(), sums)])


def verify_deriv2(
    F,
    H: DerivativeField,
    m: DiscreteMeasure,
    mu: DiscreteMeasure,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """Residual of the defining integral identity along the segment mu -> m.

    Returns |F(m) - F(mu) - Q| with Q the ``segment_integral`` of H from mu
    to m.
    """
    q = segment_integral(H, mu, m, quad_order)
    return abs(F(m) - F(mu) - q)


def canonicalize(H: DerivativeField) -> DerivativeField:
    """Shift a field by its own integral so that int H(m, .) dm = 0.

    When the input carries an exact ``linear_delta``, the output does too:
    differentiating m -> int H(m, y) dm(y) in the direction of a point mass
    at y gives H(m, y) - int H dm + int linear_delta(m, z, y) dm(z), which is
    subtracted from the original second derivative. For an already-canonical
    field both corrections vanish identically. When the input has a
    ``batch_value``, so does the output.
    """
    base_value, base_dx, base_ld = H.value, H.dx, H.linear_delta

    def mean_of(m: DiscreteMeasure) -> float:
        return math.fsum((m.weights * _values_at(lambda t: base_value(m, t), m.positions)).tolist())

    def value(m, x):
        return base_value(m, x) - mean_of(m)

    def dx(m, x):
        return base_dx(m, x)

    linear_delta = None
    if base_ld is not None:

        def linear_delta(m, x, y):
            mean_variation = math.fsum(
                (m.weights * np.asarray(base_ld(m, m.positions, y), dtype=float)).tolist()
            )
            correction = base_value(m, y) - mean_of(m) + mean_variation
            return base_ld(m, x, y) - correction

    batch_value = None
    if H.batch_value is not None:
        base_rows = H.batch_value

        def batch_value(positions, weights, xs):
            # mean_of for every row: the same products, exactly rounded
            products = weights * base_rows(positions, weights, positions)
            means = np.array(fsum_rows(products.reshape(-1, products.shape[-1]))).reshape(weights.shape[:-1])
            return base_rows(positions, weights, xs) - means[..., None]

    return DerivativeField(
        value=value,
        dx=dx,
        linear_delta=linear_delta,
        label=f"canonical[{H.label}]" if H.label else "canonical",
        batch_value=batch_value,
    )
