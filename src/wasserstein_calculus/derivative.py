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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .measures import DiscreteMeasure, _flat_atoms, _values_at, dirac, mix, mix_rows, signed_difference
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
    """

    value: Callable[[DiscreteMeasure, float], float]
    dx: Callable[[DiscreteMeasure, float], float]
    linear_delta: Optional[Callable[[DiscreteMeasure, float, float], float]] = None
    label: str = ""
    batch_value: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None


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

    def zero_rows(positions, weights, xs):
        return np.zeros(weights.shape[:-1] + np.shape(xs)[-1:])

    return DerivativeField(
        value=zero2, dx=zero2, linear_delta=zero3, label="zero", batch_value=zero_rows
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
    when m - mu has no atom. A segment whose nodes share a support goes to
    the field's ``batch_value`` in a padded block of at most
    ``SEGMENT_BLOCK`` segments and ``BLOCK_VALUES`` node weights (see the
    module docstring); any other is
    ``mix(mu, m, t)`` at each node, evaluated by ``value``. A block segment
    whose value is not finite is computed again alone, as pads can turn an
    infinite value into NaN; an error is the one the segments, computed
    alone in order, raise first.
    """
    nodes, weights = gauss_legendre_01(quad_order)
    try:
        return np.array(_segments(H, mu, measures, nodes, weights))
    except (ArithmeticError, ValueError):
        return np.array([segment_integral(H, mu, m, quad_order) for m in measures])


def _segments(H, mu, measures, nodes, weights) -> list:
    out, block, width = [0.0] * len(measures), [], 0

    def flush():
        for (j, *_), value in zip(block, _block(H, weights, block)):
            alone = len(block) == 1 or math.isfinite(value)
            out[j] = value if alone else segment_integral(H, mu, measures[j], nodes.size)
        block.clear()

    for i, m in enumerate(measures):
        pos, sw = signed_difference(m, mu)
        batch = None if H.batch_value is None or pos.size == 0 else mix_rows(mu, m, nodes)
        if batch is not None:
            width = max(width, batch[0].size) if block else batch[0].size
            if block and (len(block) + 1) * nodes.size * width > BLOCK_VALUES:
                flush()
                width = batch[0].size
            block.append((i, pos, sw, *batch))
            if len(block) == SEGMENT_BLOCK:
                flush()
        elif pos.size:  # node by node
            vals = np.array([field_values(H, mix(mu, m, float(t)), pos) for t in nodes])
            out[i] = _quadrature(weights, fsum_rows(sw * vals))
    if block:
        flush()
    return out


def _block(H, weights, block) -> list:
    """The segment integrals of a block of (index, points, signed weights,
    mixture positions, mixture weights) segments, laid out as padded rows;
    one segment goes to the field as it is."""
    if len(block) == 1:
        _, xs, sw, positions, w = block[0]
        return [_quadrature(weights, fsum_rows(sw * H.batch_value(positions, w, xs)))]
    n, k = max(b[1].size for b in block), max(b[3].size for b in block)
    xs, sw = np.empty((len(block), n)), np.zeros((len(block), n))
    positions, w = np.empty((len(block), k)), np.zeros((len(block), len(weights), k))
    for r, (_, x, s, p, pw) in enumerate(block):
        xs[r], positions[r] = x[-1], p[-1]  # pads: copies of the last atom, of weight 0
        xs[r, : x.size], sw[r, : s.size], positions[r, : p.size], w[r, :, : p.size] = x, s, p, pw
    products = sw[:, None, :] * H.batch_value(positions, w, xs)
    sums = np.array(fsum_rows(products.reshape(-1, n))).reshape(len(block), -1)
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
