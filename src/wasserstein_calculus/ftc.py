"""Antiderivatives of measure-variable fields and the symmetry obstruction.

Given a candidate derivative H, integrating it along straight segments from
the unit mass at zero,

    F(m) = int_0^1 int H(t*m + (1-t)*dirac(0), x) d(m - dirac(0))(x) dt,

produces a function whose derivative recovers H, provided H is canonical and
satisfies the symmetry condition

    dH_x(m, y) - H(m, x) = dH_y(m, x) - H(m, y),

where dH_x is the derivative of m -> H(m, x). The condition is necessary:
counterexample_field builds a smooth canonical field that violates it, whose
antiderivative has a closed form with a visibly different derivative. Both
closed forms are implemented here so every quadrature and finite-difference
path can be checked against exact values.

The t-integral is ``derivative.segment_integral_each``, the package's one
segment quadrature; the fields built here carry the batched evaluator it
uses (see the ``derivative`` module docstring). An antiderivative carries a
flat evaluator, which integrates the segments of many measures at once, so
``derivative.dawson_each`` batches its quotients: ``ftc_check``'s mismatch
loop and ``counterexample_report``'s antiderivative values and quotients
make one call per draw pass, and every value keeps the bits of its segment
alone. So do their symmetry terms, through the row hooks ``batch_value``
and ``batch_linear_delta``, and the closed forms, from one
``integrate_each`` per moment; ``symmetry_residual`` is the one-draw form.
One verdict rule, ``_verdict``, labels a field from its sampled symmetry
residual, for both ``ftc_check`` and ``counterexample_report``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .derivative import (
    DEFAULT_EPS,
    DEFAULT_QUAD_ORDER,
    DEFAULT_SEED,
    DerivativeField,
    MeasureFunction,
    dawson_extrapolated,
    dawson_extrapolated_each,
    field_values,
    segment_integral,
    segment_integral_each,
    zero_field,
)
from .functions import (
    ScalarFunction,
    _REQUIRED,
    _key,
    _kind_of,
    cylinder_from_dict,
    lift_to_field,
    scalar_from_dict,
)
from .measures import DiscreteMeasure, _atom_rows, _flat_rows, _padded_rows, dirac, integrate, integrate_each, integrate_flat
from .sampling import _passes, random_draws
from .util import check_samples, gauss_legendre_01, max_or_nan

__all__ = [
    "BASE_POINT",
    "antiderivative",
    "symmetry_residual",
    "ftc_check",
    "counterexample_field",
    "counterexample_closed_antiderivative",
    "counterexample_closed_delta",
    "counterexample_report",
    "field_from_dict",
    "CANONICAL_GATE_TOL",
    "COUNTEREXAMPLE_CLOSED_F_TOL",
    "COUNTEREXAMPLE_BUILT_DELTA_TOL",
    "COUNTEREXAMPLE_GAP_FLOOR",
    "ESTIMATED_SYMMETRY_TOL",
    "EXACT_SYMMETRY_TOL",
]

# Integration base point. Fixed rather than a parameter: any base point works
# for genuine derivatives, and the symmetry counterexamples are stated
# against the unit mass at zero.
BASE_POINT = dirac(0.0)

# ftc_check refuses fields whose integral against a probe measure exceeds this.
CANONICAL_GATE_TOL = 1e-10

# counterexample_report is ok when the quadrature antiderivative is within
# COUNTEREXAMPLE_CLOSED_F_TOL of the closed form, its estimated derivative
# within COUNTEREXAMPLE_BUILT_DELTA_TOL of the closed-form derivative, and
# that derivative at least COUNTEREXAMPLE_GAP_FLOOR from the field.
COUNTEREXAMPLE_CLOSED_F_TOL = 1e-10
COUNTEREXAMPLE_BUILT_DELTA_TOL = 1e-5
COUNTEREXAMPLE_GAP_FLOOR = 0.1

# Tolerance of the estimated-mode symmetry residual; the not-a-derivative
# verdict fires at 100x this value.
ESTIMATED_SYMMETRY_TOL = 1e-3

# An exact-mode symmetry residual carries rounding error only. The verdict
# fires above this times the sampled max |H(m, x)| (at least one); the
# battery's exact residuals are at most 1e-15.
EXACT_SYMMETRY_TOL = 1e-10

_N_GATE_PROBES = 8


def antiderivative(H: DerivativeField, quad_order: int = DEFAULT_QUAD_ORDER) -> MeasureFunction:
    """Integrate a field along segments from the base point.

    The returned function evaluates the t-integral by Gauss-Legendre
    quadrature of the exact atom-sum; it is zero at the base point exactly.
    Its ``evaluate_flat`` takes measures laid out flat, as
    ``derivative.dawson_each`` passes them, and integrates their segments
    in blocks, with the bits of each segment alone.
    """
    gauss_legendre_01(quad_order)  # refuses a bad order when F is built

    def F(m: DiscreteMeasure) -> float:
        return segment_integral(H, BASE_POINT, m, quad_order)

    def evaluate_flat(positions, weights, rows, count):
        measures = [DiscreteMeasure._trusted(*row) for row in _flat_rows(positions, weights, rows, count)]
        return segment_integral_each(H, BASE_POINT, measures, quad_order)

    label = f"antiderivative[{H.label}]" if H.label else "antiderivative"
    return MeasureFunction(F, label=label, evaluate_flat=evaluate_flat)


def symmetry_residual(
    H: DerivativeField,
    m: DiscreteMeasure,
    x: float,
    y: float,
    *,
    eps: float | None = None,
) -> float:
    """Signed defect of the symmetry condition at (m, x, y).

    Returns [dH_x(m, y) - H(m, x)] - [dH_y(m, x) - H(m, y)]. Uses the exact
    ``linear_delta`` when the field has one; otherwise estimates dH_x by the
    Richardson-corrected difference quotient with step ``eps``, which must
    then be supplied.
    """
    if H.linear_delta is not None:
        dxy = H.linear_delta(m, x, y)
        dyx = H.linear_delta(m, y, x)
    else:
        if eps is None:
            raise ValueError("field has no linear_delta; pass eps to estimate it")
        dxy = dawson_extrapolated(lambda mm: H.value(mm, x), m, y, eps)
        dyx = dawson_extrapolated(lambda mm: H.value(mm, y), m, x, eps)
    return (dxy - H.value(m, x)) - (dyx - H.value(m, y))


def _symmetry_pass(H: DerivativeField, ms, xs, ys, eps: float | None):
    """The symmetry residual, H(m, x) and H(m, y) of each draw (m, x, y) of
    a pass: three lists with the bits of ``symmetry_residual`` and ``value``
    at each draw. A field with both row hooks makes one call of each on the
    padded rows of the measures, with the points (x, y) of each row; any
    other field, and a pass that raises, goes draw by draw, which raises
    the first draw's error."""
    if H.linear_delta is not None and H.batch_value is not None and H.batch_linear_delta is not None:
        try:
            positions, weights, *_ = _padded_rows(_atom_rows(ms))
            weights, pairs = weights[:, None, :], np.column_stack((xs, ys))
            hx, hy = H.batch_value(positions, weights, pairs)[:, 0].T
            dxy, dyx = H.batch_linear_delta(positions, weights, pairs, pairs[:, ::-1])[:, 0].T
            return ((dxy - hx) - (dyx - hy)).tolist(), hx.tolist(), hy.tolist()
        except (ArithmeticError, ValueError):
            pass
    draws = [(symmetry_residual(H, m, x, y, eps=eps), H.value(m, x), H.value(m, y)) for m, x, y in zip(ms, xs, ys)]
    return [list(column) for column in zip(*draws)]


def _pass_values(H: DerivativeField, ms, points):
    """H(m, x) at each draw m of a pass and the points x of its row of
    ``points`` (draws, k), or of its own atoms for None, from one
    ``batch_value`` call on the padded rows of the measures, as
    ``_symmetry_pass`` makes it: the (draws, k) values, with the padded
    weights and the atom count of each row. None for a field without the
    hook and for a pass that raises, which the caller takes draw by draw."""
    if H.batch_value is None:
        return None
    try:
        positions, weights, sizes, _ = _padded_rows(_atom_rows(ms))
        values = H.batch_value(positions, weights[:, None, :], positions if points is None else points)[:, 0]
        return values, weights, sizes
    except (ArithmeticError, ValueError):
        return None


def _verdict(symmetry_max: float, *, estimated: bool, field_max: float) -> str:
    """"not-a-derivative" when the sampled symmetry residual exceeds the
    threshold of its mode or is NaN, else "derivative".

    An estimated residual carries the quotient's O(eps^2) error, so its
    threshold is 100 x ESTIMATED_SYMMETRY_TOL; an exact one carries rounding
    only, so its threshold is EXACT_SYMMETRY_TOL x max(1, field_max), where
    field_max is the sampled max |H(m, x)|.
    """
    threshold = 100.0 * ESTIMATED_SYMMETRY_TOL if estimated else EXACT_SYMMETRY_TOL * max(1.0, field_max)
    return "derivative" if symmetry_max <= threshold else "not-a-derivative"


def ftc_check(
    H: DerivativeField,
    K: float,
    quad_order: int = DEFAULT_QUAD_ORDER,
    eps: float = DEFAULT_EPS,
    samples: int = 200,
    *,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Build the antiderivative of H and test whether its derivative is H.

    Reports the sampled max of |estimated derivative - H| and of the symmetry
    residual over measures in [-K, K]. Rejects non-canonical fields: callers
    must ``canonicalize`` first. Verdict is "not-a-derivative" when the
    symmetry residual exceeds the threshold of its mode (see ``_verdict``).

    A draw pass (at most 100 draws) makes one ``dawson_extrapolated_each``
    call and one ``_symmetry_pass``, and the field values of the mismatch
    and of the canonical gate one ``batch_value`` call per pass
    (``_pass_values``); the report has the bits of the per-draw loop, and
    an error is its first draw's.
    """
    check_samples(samples)
    probes = [probe for (probe,) in random_draws(seed, "canonical-gate", range(_N_GATE_PROBES), K)]
    batch = _pass_values(H, probes, None)
    if batch is None:  # probe by probe, so that a gate error comes before a later probe's
        residuals = (math.fsum((p.weights * field_values(H, p, p.positions)).tolist()) for p in probes)
    else:
        values, weights, sizes = batch
        residuals = [math.fsum((w[:n] * v[:n]).tolist()) for v, w, n in zip(values, weights, sizes.tolist())]
    for residual in residuals:
        if not abs(residual) <= CANONICAL_GATE_TOL:  # NaN too
            raise ValueError(
                f"field integrates to {residual!r} against a probe measure; "
                "canonicalize it before checking"
            )
    F = antiderivative(H, quad_order)
    estimated = H.linear_delta is None
    mismatch, symmetry, field = [], [], []
    for chunk in _passes(random_draws(seed, "ftc-mismatch", range(samples), K, points=1)):
        ms, xs = zip(*chunk)  # one dawson_extrapolated_each call per draw pass
        quotients = dawson_extrapolated_each(F, ms, xs, eps).tolist()
        batch = _pass_values(H, ms, np.array(xs)[:, None])
        values = (H.value(m, x) for m, x in zip(ms, xs)) if batch is None else batch[0][:, 0].tolist()
        mismatch += [abs(q - h) for q, h in zip(quotients, values)]
    for chunk in _passes(random_draws(seed, "ftc-symmetry", range(samples), K, points=2)):
        residuals, hx, hy = _symmetry_pass(H, *zip(*chunk), eps if estimated else None)
        symmetry += map(abs, residuals)
        field += map(abs, hx + hy)
    mismatch_max, symmetry_max, field_max = max_or_nan(mismatch), max_or_nan(symmetry), max_or_nan(field)
    verdict = _verdict(symmetry_max, estimated=estimated, field_max=field_max)
    return {
        "check": "ftc",
        "field": H.label,
        "mismatch_max": float(mismatch_max),
        "symmetry_max": float(symmetry_max),
        "symmetry_mode": "estimated" if estimated else "exact",
        "seed": int(seed),
        "quad_order": int(quad_order),
        "eps": float(eps),
        "K": float(K),
        "samples": int(samples),
        "verdict": verdict,
    }


def counterexample_field(phi: ScalarFunction, psi: ScalarFunction) -> DerivativeField:
    """The field (phi(x) - <phi, m>) * <psi, m>.

    Smooth and canonical, yet not the derivative of any measure-variable
    function: its own measure derivative breaks the symmetry condition.
    """

    def value(m, x):
        return (phi(x) - integrate(m, phi)) * integrate(m, psi)

    def dx(m, x):
        return phi.derivative(x) * integrate(m, psi)

    def linear_delta(m, x, y):
        pm = integrate(m, phi)
        sm = integrate(m, psi)
        return (phi(x) - pm) * (psi(y) - sm) - (phi(y) - pm) * sm

    def moments(positions, weights):  # <phi, m> and <psi, m> of each row, as a column
        return (integrate_flat(positions, weights, f)[..., None] for f in (phi, psi))

    def batch_value(positions, weights, xs):
        pm, sm = moments(positions, weights)
        return (phi(np.asarray(xs, dtype=float))[..., None, :] - pm) * sm

    def batch_linear_delta(positions, weights, xs, ys):
        pm, sm = moments(positions, weights)
        xs, ys = (np.asarray(p, dtype=float)[..., None, :] for p in (xs, ys))
        return (phi(xs) - pm) * (psi(ys) - sm) - (phi(ys) - pm) * sm

    return DerivativeField(
        value=value,
        dx=dx,
        linear_delta=linear_delta,
        label=f"counterexample[{phi.name},{psi.name}]",
        batch_value=batch_value,
        batch_linear_delta=batch_linear_delta,
    )


def counterexample_closed_antiderivative(phi: ScalarFunction, psi: ScalarFunction) -> MeasureFunction:
    """Closed form of the segment integral of the counterexample field.

    Integrating (phi(x) - <phi>) * <psi> along t*m + (1-t)*dirac(0) in t gives
    (1/2) * (psi(0) + <psi, m>) * (<phi, m> - phi(0)) exactly.
    """

    def F(m: DiscreteMeasure) -> float:
        sm = integrate(m, psi)
        return _closed_antiderivative(phi, psi, integrate(m, phi), sm)

    return MeasureFunction(F, label=f"closed_antiderivative[{phi.name},{psi.name}]")


# the two closed forms from the moments pm = <phi, m> and sm = <psi, m>, floats or arrays
def _closed_antiderivative(phi, psi, pm, sm):
    return 0.5 * (psi(0.0) + sm) * (pm - phi(0.0))


def _closed_delta(phi, psi, pm, sm, x):
    return 0.5 * (psi(x) - sm) * (pm - phi(0.0)) + 0.5 * (psi(0.0) + sm) * (phi(x) - pm)


def counterexample_closed_delta(phi: ScalarFunction, psi: ScalarFunction):
    """Closed form of the derivative of the counterexample antiderivative.

    A symmetrized blend of phi and psi, visibly different from the field the
    antiderivative was built from.
    """

    def delta(m: DiscreteMeasure, x):
        return _closed_delta(phi, psi, integrate(m, phi), integrate(m, psi), x)

    return delta


def counterexample_report(
    phi: ScalarFunction,
    psi: ScalarFunction,
    K: float,
    *,
    quad_order: int = DEFAULT_QUAD_ORDER,
    eps: float = DEFAULT_EPS,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Quantify how the counterexample field fails to be a derivative.

    Over seeded samples in [-K, K], reports the max of (a) quadrature vs
    closed-form antiderivative, (b) estimated derivative of the built
    antiderivative vs closed-form derivative, and (c) closed-form derivative
    vs the field itself. (a) and (b) should be small, (c) large; ``ok``
    asserts exactly that, with the large-gap threshold additionally reported
    as half the realized closed-form gap.

    A draw pass (at most 100 draws) makes one call for each term, and one
    ``integrate_each`` per moment for the closed forms; one that raises goes
    again draw by draw, to raise the first draw's error. The report has the
    bits of the per-draw loop.
    """
    check_samples(samples)
    H = counterexample_field(phi, psi)
    F_quad = antiderivative(H, quad_order)
    F_closed = counterexample_closed_antiderivative(phi, psi)
    delta_closed = counterexample_closed_delta(phi, psi)

    def one(m, x, y):
        a = abs(F_quad(m) - F_closed(m))
        b = abs(dawson_extrapolated(F_quad, m, x, eps) - delta_closed(m, x))
        h = H.value(m, x)
        c = abs(delta_closed(m, x) - h)
        s = abs(symmetry_residual(H, m, x, y))
        return a, b, c, s, max_or_nan((abs(h), abs(H.value(m, y))))

    def one_pass(ms, xs, ys):
        quad = segment_integral_each(H, BASE_POINT, ms, quad_order)
        quotient = dawson_extrapolated_each(F_quad, ms, xs, eps)
        pm, sm = integrate_each(ms, phi), integrate_each(ms, psi)
        residual, hx, hy = (np.array(c) for c in _symmetry_pass(H, ms, xs, ys, None))
        delta = _closed_delta(phi, psi, pm, sm, np.array(xs))
        a = np.abs(quad - _closed_antiderivative(phi, psi, pm, sm))
        return a, np.abs(quotient - delta), np.abs(delta - hx), np.abs(residual), np.abs(np.append(hx, hy))

    columns = ([], [], [], [], [])
    for chunk in _passes(random_draws(seed, "counterexample", range(samples), K, points=2)):
        try:  # one call per draw pass for each term
            terms = [t.tolist() for t in one_pass(*zip(*chunk))]
        except (ArithmeticError, ValueError):  # draw by draw, to raise the first draw's error
            terms = zip(*[one(*draw) for draw in chunk])
        for column, values in zip(columns, terms):
            column += values
    a_max, b_max, c_max, symmetry_max, field_max = (max_or_nan(column) for column in columns)
    verdict = _verdict(symmetry_max, estimated=False, field_max=field_max)
    ok = (
        a_max <= COUNTEREXAMPLE_CLOSED_F_TOL
        and b_max <= COUNTEREXAMPLE_BUILT_DELTA_TOL
        and c_max >= COUNTEREXAMPLE_GAP_FLOOR
    )
    return {
        "check": "counterexample",
        "phi": phi.name,
        "psi": psi.name,
        "K": float(K),
        "quadrature_vs_closed_max": float(a_max),
        "built_derivative_vs_closed_max": float(b_max),
        "closed_derivative_vs_field_max": float(c_max),
        "derived_gap_threshold": float(0.5 * c_max),
        "symmetry_max": float(symmetry_max),
        "seed": int(seed),
        "eps": float(eps),
        "quad_order": int(quad_order),
        "samples": int(samples),
        "verdict": verdict,
        "ok": bool(ok),
    }


# each field kind: the function that makes its field and the reader of each
# JSON key it takes besides "kind", all required, in that function's order
_FIELD_KINDS = {
    "lifted": SimpleNamespace(build=lift_to_field, keys={"cylinder": cylinder_from_dict}),
    "counterexample": SimpleNamespace(
        build=counterexample_field, keys={"phi": scalar_from_dict, "psi": scalar_from_dict}
    ),
    "zero": SimpleNamespace(build=zero_field, keys={}),
}


def field_from_dict(data: dict) -> DerivativeField:
    """Build a field from its JSON description, by its row of ``_FIELD_KINDS``.

    Kinds: ``{"kind": "lifted", "cylinder": {...}}`` for the exact derivative
    of a cylinder function, ``{"kind": "counterexample", "phi": {...},
    "psi": {...}}``, and ``{"kind": "zero"}``.
    """
    kind, row = _kind_of(data, _FIELD_KINDS, "field")
    return row.build(*(read(_key(data, key, _REQUIRED, f"{kind} field")) for key, read in row.keys.items()))
