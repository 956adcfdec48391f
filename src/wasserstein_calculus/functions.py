"""Catalog of smooth scalar functions and the cylinder-function algebra.

A cylinder function depends on a measure only through finitely many moments:
F(m) = g(<f1, m>, ..., <fk, m>). For such functions the first and second
functional derivatives have closed forms (chain rule through the moment
vector), which makes them the exact oracle for every finite-difference
estimator in this package. Gradients and Hessians of the outer maps are
hand-coded so the oracle does not depend on any differentiation machinery
under test. A gradient takes one moment vector or a (rows, k) array of them,
one per row measure of a batch, and each row keeps the bits of its own point.

Each scalar kind is one row of ``_SCALAR_KINDS`` and each outer-map kind one
of ``_OUTER_KINDS``; construction, evaluation and the JSON pair read the rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .measures import DiscreteMeasure, _atom_rows, integrate, integrate_flat
from .util import _plain, check_keys, fsum_rows, json_number

__all__ = [
    "ScalarFunction",
    "sin_fn",
    "cos_fn",
    "tanh_fn",
    "polynomial",
    "gaussian",
    "affine",
    "smooth_abs",
    "identity_fn",
    "scalar_from_dict",
    "scalar_to_dict",
    "OuterMap",
    "outer_linear",
    "outer_product",
    "outer_polynomial",
    "outer_sin",
    "outer_exp",
    "CylinderFunction",
    "CylinderDerivatives",
    "cylinder_from_dict",
    "cylinder_to_dict",
    "lift_to_field",
    "standard_battery",
    "lipschitz_probes",
]

# A polynomial's declared Lipschitz bound holds on [-R, R] for this R only;
# every other kind's bound is global.
POLY_LIPSCHITZ_RADIUS = 10.0


def _scalar(keys, message, f, df, lipschitz, check=lambda params: True, radius=math.inf, listed=False):
    """One scalar kind: its JSON keys in params order, each with its default;
    the message of a parameter count or ``check`` that fails; f and f' of
    (params, xs); and a bound on |f'| on [-radius, radius]. A ``listed``
    kind takes the list under its one key as its params, of any count."""
    return SimpleNamespace(
        keys=keys, message=message, f=f, df=df, lipschitz=lipschitz, check=check, radius=radius, listed=listed
    )


def _polynomial_slope(params, xs):
    dcoeffs = np.asarray(params[1:]) * np.arange(1, len(params))
    return np.polynomial.polynomial.polyval(xs, dcoeffs) if dcoeffs.size else np.zeros_like(xs)


def _gaussian(params, xs, slope=False):
    center, width = params
    z = (xs - center) / width
    return -(z / width) * np.exp(-0.5 * z * z) if slope else np.exp(-0.5 * z * z)


# each row: JSON keys and message; f, f' and Lipschitz bound; the rest
_SCALAR_KINDS = {
    "sin": _scalar({}, "sin takes no parameters", lambda p, x: np.sin(x), lambda p, x: np.cos(x), lambda p: 1.0),
    "cos": _scalar({}, "cos takes no parameters", lambda p, x: np.cos(x), lambda p, x: -np.sin(x), lambda p: 1.0),
    "tanh": _scalar(
        {}, "tanh takes no parameters",
        lambda p, x: np.tanh(x), lambda p, x: 1.0 - (t := np.tanh(x)) * t, lambda p: 1.0,
    ),
    "polynomial": _scalar(
        {"coeffs": ()}, "polynomial needs at least one coefficient",
        lambda p, x: np.polynomial.polynomial.polyval(x, np.asarray(p)), _polynomial_slope,
        # the coefficient bound of the derivative on [-R, R]
        lambda p: math.fsum(i * abs(c) * POLY_LIPSCHITZ_RADIUS ** (i - 1) for i, c in enumerate(p) if i >= 1),
        check=lambda p: len(p) > 0, radius=POLY_LIPSCHITZ_RADIUS, listed=True,
    ),
    "gaussian": _scalar(
        {"center": 0.0, "width": 1.0}, "gaussian needs (center, width) with width > 0",
        _gaussian, functools.partial(_gaussian, slope=True), lambda p: math.exp(-0.5) / p[1],
        check=lambda p: p[1] > 0.0,
    ),
    "affine": _scalar(
        {"a": 1.0, "b": 0.0}, "affine needs (slope, intercept)",
        lambda p, x: p[0] * x + p[1], lambda p, x: np.full_like(x, p[0]), lambda p: abs(p[0]),
    ),
    "smooth_abs": _scalar(
        {"eps": 0.1}, "smooth_abs needs a positive smoothing width",
        lambda p, x: np.hypot(x, p[0]) - p[0], lambda p, x: x / np.hypot(x, p[0]), lambda p: 1.0,
        check=lambda p: p[0] > 0.0,
    ),
}


@dataclass(frozen=True)
class ScalarFunction:
    """A catalog function R -> R with exact derivative and Lipschitz bound.

    ``kind`` selects the row of ``_SCALAR_KINDS``, ``params`` its parameters.
    Values and derivatives are defined on all of R and accept scalars or arrays.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _SCALAR_KINDS):
            raise ValueError(f"unknown scalar function kind {self.kind!r}")
        row = _SCALAR_KINDS[self.kind]
        takes = f"{self.kind} takes ({', '.join(row.keys)}), not {self.params!r}"
        if not isinstance(self.params, (tuple, list)):
            raise ValueError(takes)
        try:
            params = tuple(float(p) for p in self.params)
        except (TypeError, ValueError):  # a parameter that is no number, as None or "b"
            raise ValueError(takes) from None
        object.__setattr__(self, "params", params)
        if not all(math.isfinite(p) for p in params):
            raise ValueError("function parameters must be finite")
        if not ((row.listed or len(params) == len(row.keys)) and row.check(params)):
            raise ValueError(row.message)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = _SCALAR_KINDS[self.kind].f(self.params, xs)
        return float(out) if xs.ndim == 0 else out

    def derivative(self, x):
        xs = np.asarray(x, dtype=float)
        out = _SCALAR_KINDS[self.kind].df(self.params, xs)
        return float(out) if xs.ndim == 0 else out

    @property
    def lipschitz_bound(self) -> float:
        """Upper bound of |f'| on [-R, R], R = ``lipschitz_radius``."""
        return _SCALAR_KINDS[self.kind].lipschitz(self.params)

    @property
    def lipschitz_radius(self) -> float:
        """Half-width R of the interval [-R, R] on which ``lipschitz_bound`` holds."""
        return _SCALAR_KINDS[self.kind].radius

    @property
    def name(self) -> str:
        if self.params:
            inner = ",".join(f"{p:g}" for p in self.params)
            return f"{self.kind}({inner})"
        return self.kind


def sin_fn() -> ScalarFunction:
    return ScalarFunction("sin")


def cos_fn() -> ScalarFunction:
    return ScalarFunction("cos")


def tanh_fn() -> ScalarFunction:
    return ScalarFunction("tanh")


def polynomial(coeffs) -> ScalarFunction:
    """Polynomial with ascending coefficients: c0 + c1*x + c2*x^2 + ..."""
    return ScalarFunction("polynomial", tuple(coeffs))


def gaussian(center: float, width: float) -> ScalarFunction:
    return ScalarFunction("gaussian", (center, width))


def affine(a: float, b: float) -> ScalarFunction:
    return ScalarFunction("affine", (a, b))


def smooth_abs(eps: float) -> ScalarFunction:
    """sqrt(x^2 + eps^2) - eps: a 1-Lipschitz smooth stand-in for |x|."""
    return ScalarFunction("smooth_abs", (eps,))


def identity_fn() -> ScalarFunction:
    return affine(1.0, 0.0)


def scalar_to_dict(f: ScalarFunction) -> dict:
    row = _SCALAR_KINDS[f.kind]
    return {"kind": f.kind, **dict(zip(row.keys, (list(f.params),) if row.listed else f.params))}


_REQUIRED = object()  # the default of a JSON key that has none


def _key(data: dict, key: str, default, what: str):
    """The value of ``key`` in a JSON object, else its default."""
    if key not in data and default is _REQUIRED:
        raise ValueError(f"{what} JSON needs {key!r}")
    return data.get(key, default)


def _numbers(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list of numbers, not {value!r}")
    return tuple(json_number(v, what) for v in value)


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _kind_of(data: dict, table: dict, what: str):
    """The ``kind`` of a JSON object and its row of ``table``, once the
    object's keys are checked against the row's ``keys``."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f'{what} JSON must be an object with a "kind"')
    kind = data["kind"]
    if not (isinstance(kind, str) and kind in table):
        raise ValueError(f"unknown {what} kind {kind!r}")
    check_keys(data, ("kind", *table[kind].keys), f"{kind} {what}")
    return kind, table[kind]


def scalar_from_dict(data: dict) -> ScalarFunction:
    kind, row = _kind_of(data, _SCALAR_KINDS, "scalar function")
    read = _numbers if row.listed else json_number
    params = [read(data.get(key, default), f"{kind} {key}") for key, default in row.keys.items()]
    return ScalarFunction(kind, params[0] if row.listed else params)


def _param(check, read, default=_REQUIRED):
    """One parameter of an outer-map kind: its Python ``check``, which
    returns the parameter or raises ``ValueError``; its JSON reader, of
    (value, what); and its JSON default, if it has one."""
    return SimpleNamespace(check=check, read=read, default=default)


def _outer(keys: dict, arity=lambda params: len(params[0])):
    """One outer-map kind: each parameter by JSON key, in params order, and
    the number of moments it takes, of its params: by default its weights'."""
    return SimpleNamespace(keys=keys, arity=arity)


def _finite(value, what: str) -> float:
    """A parameter as a finite float, as ``ScalarFunction`` takes them."""
    if not math.isfinite(number := float(value)):
        raise ValueError(f"{what} must be finite, not {number!r}")
    return number


def _weights(weights, what: str) -> tuple:
    if not (weights := tuple(_finite(w, f"{what} weights") for w in weights)):
        raise ValueError(f"{what} needs at least one weight")
    return weights


def _whole(value, least: int, below: str, what: str) -> int:
    """An integral number as an int of at least ``least``, else ValueError ``below``."""
    if not value % 1 == 0:  # a fraction, NaN or an infinity
        raise ValueError(f"{what} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(below)
    return int(value)


def _terms(terms) -> tuple:
    """Multivariate polynomial terms coeff * v1^e1 * ... * vk^ek as (coeff,
    exponents) pairs: at least one, all of one arity."""
    below = "polynomial exponents must be non-negative"
    terms = tuple(
        (_finite(c, "polynomial coefficient"), tuple(_whole(e, 0, below, "polynomial exponent") for e in exps))
        for c, exps in terms
    )
    if not terms:
        raise ValueError("polynomial outer map needs at least one term")
    if len({len(exps) for _, exps in terms}) > 1:
        raise ValueError("all terms must share the same arity")
    return terms


def _read_terms(terms, what: str) -> list:
    if not isinstance(terms, list):
        raise ValueError(f"{what} must be a list of [coefficient, exponents]")
    normalized = []
    for term in terms:
        if not (isinstance(term, (list, tuple)) and len(term) == 2 and isinstance(term[1], (list, tuple))):
            raise ValueError(f"polynomial term must be [coefficient, exponents], not {term!r}")
        coeff, exps = term
        exps = [_integer(e, "polynomial exponent") for e in exps]
        normalized.append((json_number(coeff, "polynomial coefficient"), exps))
    return normalized


_OUTER_KINDS = {
    "linear": _outer({"weights": _param(functools.partial(_weights, what="linear outer map"), _numbers),
                      "offset": _param(functools.partial(_finite, what="linear offset"), json_number, 0.0)}),
    "product": _outer(
        {"arity": _param(lambda a: _whole(a, 1, "product outer map needs arity >= 1", "product arity"), _integer)},
        lambda p: p[0],
    ),
    "polynomial": _outer({"terms": _param(_terms, _read_terms)}, lambda p: len(p[0][0][1])),
    "sin_of_sum": _outer({"weights": _param(functools.partial(_weights, what="sin_of_sum"), _numbers)}),
    "exp_of_sum": _outer({"weights": _param(functools.partial(_weights, what="exp_of_sum"), _numbers)}),
}


@dataclass(frozen=True)
class OuterMap:
    """Smooth map R^k -> R with hand-coded gradient and Hessian; value,
    gradient and Hessian take one point or rows of points."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _OUTER_KINDS):
            raise ValueError(f"unknown outer map kind {self.kind!r}")
        keys = _OUTER_KINDS[self.kind].keys
        takes = f"{self.kind} outer map takes ({', '.join(keys)}), not {self.params!r}"
        if not isinstance(self.params, (tuple, list)) or len(self.params) != len(keys):
            raise ValueError(takes)
        try:
            params = tuple(p.check(v) for p, v in zip(keys.values(), self.params))
        except TypeError:  # a parameter that is no number, or no list where one is due
            raise ValueError(takes) from None
        object.__setattr__(self, "params", params)

    @property
    def arity(self) -> int:
        return _OUTER_KINDS[self.kind].arity(self.params)

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        return np.asarray(self.params[0], dtype=float)  # linear, sin_of_sum, exp_of_sum

    def _of_sum(self, f, v):
        """f of the weighted sum np.dot(weights, v), at a point or per row: one
        np.dot per row, as a matrix product adds a row's terms in another order."""
        weights = self._weights
        return _each(f, float(np.dot(weights, v)) if v.ndim == 1 else [np.dot(weights, r) for r in v])

    def value(self, v):
        """g at one point v, shape (k,), as a float, or at each row of v, shape
        (rows, k), as an array; each row keeps the bits of its point."""
        v = np.asarray(v, dtype=float)
        kind = self.kind
        if kind == "linear":
            return self._of_sum(lambda s: self.params[1] + s, v)
        if kind == "product":
            return float(np.prod(v)) if v.ndim == 1 else np.prod(v, axis=1)
        if kind == "polynomial":
            cols = _columns(v, v.ndim == 2)
            terms = [c * math.prod(_power(cols[i], e) for i, e in enumerate(n)) for c, n in self.params[0]]
            return math.fsum(terms) if v.ndim == 1 else np.array(fsum_rows(_from_columns(terms, v)))
        return self._of_sum(math.sin if kind == "sin_of_sum" else math.exp, v)

    def gradient(self, v) -> np.ndarray:
        """The gradient at one point v, shape (k,), or at each row of v, shape
        (rows, k). Each kind's formula runs once over the moment columns:
        floats for a point, 1-D arrays for rows; each row keeps its point's bits."""
        v = np.asarray(v, dtype=float)
        kind = self.kind
        if kind in ("product", "polynomial"):
            cols = _columns(v, v.ndim == 2)
        if kind == "linear":
            grad = self.params[0]
        elif kind == "product":  # never divides, so a zero moment is no special case
            grad = [math.prod(cols[:i] + cols[i + 1 :], start=1.0) for i in range(len(cols))]
        elif kind == "polynomial":
            grad = [0.0] * len(cols)
            for c, exps in self.params[0]:
                for i, e in enumerate(exps):
                    if e >= 1:
                        others = math.prod(_power(cols[j], n) for j, n in enumerate(exps) if j != i)
                        grad[i] = grad[i] + c * e * _power(cols[i], e - 1) * others
        else:
            scale = self._of_sum(math.cos if kind == "sin_of_sum" else math.exp, v)
            grad = [scale * w for w in self.params[0]]
        return _from_columns(grad, v)

    def hessian(self, v) -> np.ndarray:
        """The Hessian at one point v, shape (k, k), or at each row of v, shape
        (rows, k, k), written once over the moment columns as ``gradient``."""
        v = np.asarray(v, dtype=float)
        kind = self.kind
        cols = _columns(v, v.ndim == 2)
        k = self.arity
        hess = [[0.0] * k for _ in range(k)]
        if kind == "product":
            for i in range(k):
                for j in range(i + 1, k):
                    hess[i][j] = hess[j][i] = math.prod(cols[:i] + cols[i + 1 : j] + cols[j + 1 :], start=1.0)
        elif kind == "polynomial":
            for c, exps in self.params[0]:
                for i, ei in enumerate(exps):
                    if ei >= 2:
                        rest = math.prod(_power(cols[j], ej) for j, ej in enumerate(exps) if j != i)
                        hess[i][i] = hess[i][i] + c * ei * (ei - 1) * _power(cols[i], ei - 2) * rest
                    for j, ej in enumerate(exps[i + 1 :], i + 1):
                        if ei >= 1 and ej >= 1:
                            rest = math.prod(_power(cols[l], el) for l, el in enumerate(exps) if i != l != j)
                            cross = c * ei * ej * _power(cols[i], ei - 1) * _power(cols[j], ej - 1) * rest
                            hess[i][j] = hess[i][j] + cross
                            hess[j][i] = hess[j][i] + cross
        elif kind != "linear":
            scale = self._of_sum((lambda s: -math.sin(s)) if kind == "sin_of_sum" else math.exp, v)
            hess = [[scale * (wi * wj) for wj in self.params[0]] for wi in self.params[0]]
        return _from_columns([h for row in hess for h in row], v).reshape(v.shape[:-1] + (k, k))


def _columns(a: np.ndarray, rows: bool) -> list:
    """The columns of a formula's input: a point's values, shape (k,) or
    (k, k), as floats, or with ``rows`` those of each row, shape (rows, k)
    or (rows, k, k), as (rows,) arrays."""
    return list(np.transpose(a, (*range(1, a.ndim), 0))) if rows else a.tolist()


def _from_columns(cols: list, v: np.ndarray) -> np.ndarray:
    """A formula's columns as an array: shape (n,) at a point v, or
    (rows, n), C-contiguous, when v has rows; a float column holds for
    every row."""
    if v.ndim == 1:
        return np.array(cols, dtype=float)
    out = np.empty((len(v), len(cols)))
    for i, c in enumerate(cols):
        out[:, i] = c
    return out


def _each(f, x):
    """f of a float, or of each value as a float: numpy's array cos, exp and ** differ."""
    return f(x) if isinstance(x, float) else np.array([f(t) for t in np.asarray(x).tolist()])


def _power(x, e: int):
    """x ** e with the bits, and the overflow to inf, of numpy's scalar power."""
    return x if e == 1 else 1.0 if e == 0 else _each(lambda t: float(np.float64(t) ** e), x)


def outer_linear(weights, offset: float = 0.0) -> OuterMap:
    return OuterMap("linear", (weights, offset))


def outer_product(arity: int) -> OuterMap:
    return OuterMap("product", (arity,))


def outer_polynomial(terms) -> OuterMap:
    """Multivariate polynomial sum of coeff * v1^e1 * ... * vk^ek terms."""
    return OuterMap("polynomial", (terms,))


def outer_sin(weights) -> OuterMap:
    return OuterMap("sin_of_sum", (weights,))


def outer_exp(weights) -> OuterMap:
    return OuterMap("exp_of_sum", (weights,))


def _outer_to_dict(g: OuterMap) -> dict:
    return {"kind": g.kind, **_plain(dict(zip(_OUTER_KINDS[g.kind].keys, g.params)))}


def _outer_from_dict(data: dict) -> OuterMap:
    kind, row = _kind_of(data, _OUTER_KINDS, "outer map")
    params = (p.read(_key(data, key, p.default, f"{kind} outer map"), f"{kind} {key}") for key, p in row.keys.items())
    return OuterMap(kind, tuple(params))


@dataclass(frozen=True)
class CylinderFunction:
    """F(m) = g(<f1, m>, ..., <fk, m>) with closed-form functional derivatives.

    ``exact_delta`` is the canonical first derivative: the unique version with
    zero integral against the base measure. ``exact_delta2`` is the canonical
    derivative of m -> exact_delta(m, x).
    """

    inner: tuple
    outer: OuterMap
    label: str = ""

    def __post_init__(self):
        inner = tuple(self.inner)
        if len(inner) != self.outer.arity:
            raise ValueError(
                f"outer map expects {self.outer.arity} moments, got {len(inner)} inner functions"
            )
        object.__setattr__(self, "inner", inner)
        if not self.label:
            names = ",".join(f.name for f in inner)
            object.__setattr__(self, "label", f"{self.outer.kind}[{names}]")

    def moments(self, m: DiscreteMeasure) -> np.ndarray:
        return np.array([integrate(m, f) for f in self.inner])

    def moments_flat(self, positions, weights, sizes=None) -> np.ndarray:
        """``moments`` of each measure of a layout that ``measures.integrate_flat``
        takes, shared supports or flat: shape (..., measures, k), bit for bit."""
        v = np.empty((weights.shape[:-1] if sizes is None else sizes.shape) + (len(self.inner),))
        for i, f in enumerate(self.inner):
            v[..., i] = integrate_flat(positions, weights, f, sizes)
        return v

    def evaluate(self, m: DiscreteMeasure) -> float:
        return self.outer.value(self.moments(m))

    def __call__(self, m: DiscreteMeasure) -> float:
        """F(m), as ``evaluate``; a CylinderFunction passed where a function
        of a measure is expected brings its ``evaluate_flat`` along."""
        return self.evaluate(m)

    def evaluate_flat(self, positions, weights, sizes) -> np.ndarray:
        """``evaluate`` on each measure of a ``moments_flat`` layout, bit for
        bit and error for error, with one ``OuterMap.value`` call."""
        return self.outer.value(self.moments_flat(positions, weights, sizes))

    def derivatives(self, m) -> "CylinderDerivatives":
        """The moments of m, or of each measure of a list m (one
        ``moments_flat`` call), and the outer map's derivatives there,
        computed once; every exact derivative there is evaluated from them."""
        if isinstance(m, DiscreteMeasure):
            return CylinderDerivatives(self, self.moments(m))
        return CylinderDerivatives(self, self.moments_flat(*_atom_rows(m)))

    def exact_delta(self, m: DiscreteMeasure, x):
        """Canonical first derivative: sum_i dg_i(v) * (f_i(x) - v_i)."""
        return self.derivatives(m).delta(x)

    def exact_delta_rows(self, positions: np.ndarray, weights: np.ndarray, x) -> np.ndarray:
        """``exact_delta`` at the points ``x`` (shape (..., points)) for every
        row measure of ``mix_rows`` batches (see ``measures.integrate_flat``),
        shape (..., rows, points), bit for bit."""
        x = np.asarray(x, dtype=float)[..., None, :]
        return CylinderDerivatives(self, self.moments_flat(positions, weights)).delta(x)

    def exact_delta2(self, m: DiscreteMeasure, x, y):
        """Canonical second derivative, broadcasting elementwise over x, y.

        Equals (f(x)-v)^T Hessian (f(y)-v) - grad . (f(y)-v).
        """
        return self.derivatives(m).delta2(x, y)

    def exact_delta2_rows(self, positions: np.ndarray, weights: np.ndarray, x, y) -> np.ndarray:
        """``exact_delta2`` at the point pairs (x[..., p], y[..., p]) (shape
        (..., points)) for every row measure of ``mix_rows`` batches, shape
        (..., rows, points), bit for bit: one ``CylinderDerivatives`` on all
        the rows, whose ``delta2`` takes one pair per row, per point column."""
        v = self.moments_flat(positions, weights)
        shape = v.shape[:-1] + np.shape(x)[-1:]
        x, y = (np.broadcast_to(np.asarray(p, dtype=float)[..., None, :], shape).reshape(-1, shape[-1]) for p in (x, y))
        d = CylinderDerivatives(self, v.reshape(math.prod(v.shape[:-1]), v.shape[-1]))
        return np.concatenate([d.delta2(x[:, [p]], y[:, [p]]) for p in range(shape[-1])], axis=1).reshape(shape)

    def delta_dx(self, m: DiscreteMeasure, x):
        """x-derivative of exact_delta: sum_i dg_i(v) * f_i'(x)."""
        return self.derivatives(m).delta_dx(x)

    def has_nontrivial_hessian(self, probe: np.ndarray | None = None) -> bool:
        if probe is None:
            probe = np.full(self.outer.arity, 0.37)
        return bool(np.any(self.outer.hessian(probe) != 0.0))


class CylinderDerivatives:
    """Exact derivatives of a cylinder function F at one measure, or at each
    row measure of a batch.

    Holds the moments v = (<f_1, m>, ..., <f_k, m>), shape (k,) for one
    measure or (rows, k) for rows ((..., rows, k) with leading axes, as a
    block of segments gives them), and the outer map's gradient at v; the
    Hessian is computed on first use. ``delta``, ``delta2`` and ``delta_dx``
    are the formulas behind ``exact_delta``, ``exact_delta_rows``,
    ``exact_delta2`` and ``delta_dx``, each written once over the k moment
    columns: floats for one measure, (rows, 1) arrays for rows, against
    which the points broadcast. So on rows, points of shape (n,) give n
    points on every row, as a (rows, n) array, and points of shape (rows, 1)
    one point per row. ``delta2`` on rows takes one point pair per row.
    """

    def __init__(self, F: CylinderFunction, v: np.ndarray):
        self.inner = F.inner
        self.outer = F.outer
        self.v = v
        if v.ndim > 2:  # rows with leading axes: the gradient of their rows
            self.grad = F.outer.gradient(v.reshape(math.prod(v.shape[:-1]), v.shape[-1])).reshape(v.shape)
        else:
            self.grad = F.outer.gradient(v)
        self._rows = v.ndim - 1  # the number of row axes
        self._v = self._columns(v)
        self._grad = self._columns(self.grad)

    def _columns(self, a) -> list:
        """``_columns``, with the row axes moved last and a column of shape
        (rows, 1), or (..., rows, 1) for rows with leading axes."""
        lead = self._rows
        return list(np.transpose(a, (*range(lead, a.ndim), *range(lead)))[..., None]) if lead else a.tolist()

    @functools.cached_property
    def hess(self) -> np.ndarray:
        return self.outer.hessian(self.v)

    def centered(self, x) -> list:
        """The columns f_i(x) - v_i, i = 1..k."""
        return [f(x) - v for f, v in zip(self.inner, self._v)]

    def _sized(self, acc, *points):
        """acc, a sum over the k terms from 0.0, or at k = 0 zeros of its shape."""
        if self.inner:
            return acc
        shape = np.broadcast_shapes(self.v.shape[:-1] + (1,) * bool(self._rows), *(np.shape(p) for p in points))
        return np.zeros(shape) if shape else 0.0

    def delta(self, x):
        acc = 0.0
        for g, c in zip(self._grad, self.centered(x)):
            acc = acc + g * c
        return self._sized(acc, x)

    def delta2(self, x, y):
        """(f(x)-v)^T Hessian (f(y)-v) - grad . (f(y)-v), with np.einsum's bits:
        called as such on arrays of points at one measure; at one point pair,
        or at each row's own pair, the quadratic term adds as einsum("i,ij,j")
        does (row by row at k = 2, else in sequence) and the linear term is
        einsum's dot."""
        dx, dy = self.centered(x), self.centered(y)
        if not (self._rows or _is_scalar(x) and _is_scalar(y)):
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            dx, dy = (np.array([np.broadcast_to(c, shape) for c in d]).reshape((len(d),) + shape) for d in (dx, dy))
            return np.einsum("i...,ij,j...->...", dx, self.hess, dy) - np.einsum("i,i...->...", self.grad, dy)
        by_rows = len(dx) == 2
        quad = 0.0
        for dxi, hess_row in zip(dx, self._columns(self.hess)):
            run = 0.0 if by_rows else quad
            for h, dyj in zip(hess_row, dy):
                run = run + dxi * h * dyj
            quad = quad + run if by_rows else run
        dy = np.stack(dy, axis=-1) if dy else np.zeros(self.grad.shape)
        lin = np.einsum("...i,...i->...", self.grad.reshape(dy.shape), dy)
        return self._sized(quad - lin, x, y) if self._rows else float(quad - lin)

    def delta_dx(self, x):
        acc = 0.0
        for g, f in zip(self._grad, self.inner):
            acc = acc + g * f.derivative(x)
        return self._sized(acc, x)


def _is_scalar(x) -> bool:
    return isinstance(x, float) or np.ndim(x) == 0


def cylinder_to_dict(F: CylinderFunction) -> dict:
    return {
        "inner": [scalar_to_dict(f) for f in F.inner],
        "outer": _outer_to_dict(F.outer),
        "label": F.label,
    }


def cylinder_from_dict(data: dict) -> CylinderFunction:
    if not isinstance(data, dict) or "inner" not in data or "outer" not in data:
        raise ValueError('cylinder JSON must be an object with "inner" and "outer"')
    check_keys(data, ("inner", "outer", "label"), "cylinder")
    if not isinstance(data["inner"], list):
        raise ValueError('cylinder "inner" must be a list of scalar functions')
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValueError('cylinder "label" must be a string')
    inner = tuple(scalar_from_dict(d) for d in data["inner"])
    outer = _outer_from_dict(data["outer"])
    return CylinderFunction(inner, outer, label=label)


def lift_to_field(F: CylinderFunction):
    """Package the exact derivatives of a cylinder function as a field.

    The result carries the value delta-F, its x-derivative and the exact
    second derivative, ready for the antiderivative and symmetry checks.
    """
    from .derivative import DerivativeField

    return DerivativeField(
        value=F.exact_delta,
        dx=F.delta_dx,
        linear_delta=F.exact_delta2,
        label=f"lift[{F.label}]",
        batch_value=F.exact_delta_rows,
        batch_linear_delta=F.exact_delta2_rows,
    )


def standard_battery() -> tuple:
    """Test battery of cylinder functions covering every outer-map kind."""
    return (
        CylinderFunction((identity_fn(),), outer_linear((1.0,)), label="mean"),
        CylinderFunction((sin_fn(),), outer_linear((1.0,)), label="sin_moment"),
        CylinderFunction((sin_fn(), cos_fn()), outer_product(2), label="sin_cos_product"),
        CylinderFunction(
            (sin_fn(),), outer_polynomial([(1.0, (2,))]), label="sin_moment_squared"
        ),
        CylinderFunction((identity_fn(),), outer_sin((1.0,)), label="sin_of_mean"),
        CylinderFunction((tanh_fn(), cos_fn()), outer_exp((0.5, 0.25)), label="exp_mix"),
        CylinderFunction(
            (gaussian(0.0, 1.0), polynomial((0.0, 0.0, 1.0))),
            outer_polynomial([(1.0, (1, 1)), (0.5, (0, 2))]),
            label="gauss_poly",
        ),
    )


def lipschitz_probes() -> tuple:
    """Catalog functions with Lipschitz bound one, for duality lower bounds."""
    return (identity_fn(), sin_fn(), cos_fn(), tanh_fn(), smooth_abs(0.1))
