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

whose right side ``segment_integral`` evaluates by Gauss-Legendre quadrature
in t (the integrand is analytic in t for atomic measures, so a fixed order
gives near-machine precision). It is the one quadrature routine:
``verify_deriv2`` and the antiderivative of ``ftc`` both call it.

The measures at the quadrature nodes share one support and differ only in
their weights, which are linear in t. A field may therefore carry a batched
evaluator ``batch_value(positions, weights, xs)``: ``weights`` has one row
per node, and it must return the (rows, len(xs)) array whose row k equals
``value(DiscreteMeasure(positions, weights[k]), xs)`` bit for bit. The
fields built in this package carry one, and ``canonicalize`` keeps it; any
other field is evaluated node by node, as is every segment whose nodes do
not share a support (see ``measures.mix_rows``).
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
    "uniform_dawson_modulus",
    "segment_integral",
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
    """Black-box deterministic function of a measure."""

    fn: Callable[[DiscreteMeasure], float]
    label: str = ""

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
        return np.zeros((len(weights), np.size(xs)))

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
    """Richardson-corrected quotient: 2*q(eps/2) - q(eps), error O(eps^2),
    from one ``dawson_rows`` call with the steps (eps, eps/2)."""
    eps = float(eps)
    if not eps <= 0.25:
        raise ValueError("eps must lie in (0, 0.25]")
    return richardson(*dawson_rows(F, m, x, (eps, 0.5 * eps)).tolist())


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
    """int_0^1 int H((1-t)*mu + t*m, x) d(m - mu)(x) dt.

    Gauss-Legendre quadrature in t of the exact atom-sum against m - mu; zero
    when m - mu has no atom. All nodes go to the field as one batch when it
    has a ``batch_value`` and the nodes share a support; otherwise each node
    is ``mix(mu, m, t)`` evaluated by ``value``. Both give the same bits.
    """
    nodes, weights = gauss_legendre_01(quad_order)
    pos, sw = signed_difference(m, mu)
    if pos.size == 0:
        return 0.0
    batch = mix_rows(mu, m, nodes) if H.batch_value is not None else None
    if batch is not None:
        vals = H.batch_value(*batch, pos)
    else:
        vals = [field_values(H, mix(mu, m, float(t)), pos) for t in nodes]
    return math.fsum([gw * s for gw, s in zip(weights.tolist(), fsum_rows(sw * vals))])


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
            means = np.array(fsum_rows(weights * base_rows(positions, weights, positions)))
            return base_rows(positions, weights, xs) - means[:, None]

    return DerivativeField(
        value=value,
        dx=dx,
        linear_delta=linear_delta,
        label=f"canonical[{H.label}]" if H.label else "canonical",
        batch_value=batch_value,
    )
