"""Catalog of smooth scalar functions and the cylinder-function algebra.

A cylinder function depends on a measure only through finitely many moments:
F(m) = g(<f1, m>, ..., <fk, m>). For such functions the first and second
functional derivatives have closed forms (chain rule through the moment
vector), which makes them the exact oracle for every finite-difference
estimator in this package. Gradients and Hessians of the outer maps are
hand-coded so the oracle does not depend on any differentiation machinery
under test. A gradient takes one moment vector or a (rows, k) array of them,
one per row measure of a batch, and each row keeps the bits of its own point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure, _flat_atoms, integrate, integrate_flat, integrate_rows
from .util import check_keys, fsum_rows, json_number

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

# each kind with the JSON keys it takes besides "kind"
_SCALAR_KINDS = {
    "sin": (),
    "cos": (),
    "tanh": (),
    "polynomial": ("coeffs",),
    "gaussian": ("center", "width"),
    "affine": ("a", "b"),
    "smooth_abs": ("eps",),
}

# A polynomial's declared Lipschitz bound holds on [-R, R] for this R only;
# every other kind's bound is global.
POLY_LIPSCHITZ_RADIUS = 10.0


@dataclass(frozen=True)
class ScalarFunction:
    """A catalog function R -> R with exact derivative and Lipschitz bound.

    ``kind`` selects the formula, ``params`` its parameters. Values and
    derivatives are defined on all of R and accept scalars or arrays.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _SCALAR_KINDS):
            raise ValueError(f"unknown scalar function kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError("function parameters must be finite")
        if self.kind == "polynomial" and len(self.params) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if self.kind == "gaussian":
            if len(self.params) != 2 or self.params[1] <= 0.0:
                raise ValueError("gaussian needs (center, width) with width > 0")
        if self.kind == "affine" and len(self.params) != 2:
            raise ValueError("affine needs (slope, intercept)")
        if self.kind == "smooth_abs":
            if len(self.params) != 1 or self.params[0] <= 0.0:
                raise ValueError("smooth_abs needs a positive smoothing width")

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = self._value(xs)
        return float(out) if xs.ndim == 0 else out

    def derivative(self, x):
        xs = np.asarray(x, dtype=float)
        out = self._derivative(xs)
        return float(out) if xs.ndim == 0 else out

    def _value(self, xs):
        kind = self.kind
        if kind == "sin":
            return np.sin(xs)
        if kind == "cos":
            return np.cos(xs)
        if kind == "tanh":
            return np.tanh(xs)
        if kind == "polynomial":
            return np.polynomial.polynomial.polyval(xs, np.asarray(self.params))
        if kind == "gaussian":
            center, width = self.params
            z = (xs - center) / width
            return np.exp(-0.5 * z * z)
        if kind == "affine":
            a, b = self.params
            return a * xs + b
        eps = self.params[0]  # smooth_abs
        return np.hypot(xs, eps) - eps

    def _derivative(self, xs):
        kind = self.kind
        if kind == "sin":
            return np.cos(xs)
        if kind == "cos":
            return -np.sin(xs)
        if kind == "tanh":
            t = np.tanh(xs)
            return 1.0 - t * t
        if kind == "polynomial":
            coeffs = np.asarray(self.params)
            dcoeffs = coeffs[1:] * np.arange(1, coeffs.size)
            if dcoeffs.size == 0:
                return np.zeros_like(xs)
            return np.polynomial.polynomial.polyval(xs, dcoeffs)
        if kind == "gaussian":
            center, width = self.params
            z = (xs - center) / width
            return -(z / width) * np.exp(-0.5 * z * z)
        if kind == "affine":
            return np.full_like(xs, self.params[0])
        eps = self.params[0]
        return xs / np.hypot(xs, eps)

    @property
    def lipschitz_bound(self) -> float:
        """Upper bound of |f'| on [-R, R], R = ``lipschitz_radius``."""
        kind = self.kind
        if kind in ("sin", "cos", "tanh", "smooth_abs"):
            return 1.0
        if kind == "affine":
            return abs(self.params[0])
        if kind == "gaussian":
            return math.exp(-0.5) / self.params[1]
        # polynomial: coefficient bound of the derivative on [-R, R]
        return math.fsum(
            i * abs(c) * POLY_LIPSCHITZ_RADIUS ** (i - 1)
            for i, c in enumerate(self.params)
            if i >= 1
        )

    @property
    def lipschitz_radius(self) -> float:
        """Half-width R of the interval [-R, R] on which ``lipschitz_bound`` holds."""
        return POLY_LIPSCHITZ_RADIUS if self.kind == "polynomial" else math.inf

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
    out = {"kind": f.kind}
    if f.kind == "polynomial":
        out["coeffs"] = list(f.params)
    elif f.kind == "gaussian":
        out["center"], out["width"] = f.params
    elif f.kind == "affine":
        out["a"], out["b"] = f.params
    elif f.kind == "smooth_abs":
        out["eps"] = f.params[0]
    return out


def _required(data: dict, key: str, what: str):
    if key not in data:
        raise ValueError(f"{what} JSON needs {key!r}")
    return data[key]


def _numbers(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list of numbers, not {value!r}")
    return tuple(json_number(v, what) for v in value)


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _kind_of(data: dict, keys: dict, what: str) -> str:
    """The ``kind`` of a JSON object, checked against ``keys``, the keys each
    kind takes besides ``kind``."""
    kind = data["kind"]
    if not (isinstance(kind, str) and kind in keys):
        raise ValueError(f"unknown {what} kind {kind!r}")
    check_keys(data, ("kind", *keys[kind]), f"{kind} {what}")
    return kind


def scalar_from_dict(data: dict) -> ScalarFunction:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError('scalar function JSON must be an object with a "kind"')
    kind = _kind_of(data, _SCALAR_KINDS, "scalar function")
    if kind in ("sin", "cos", "tanh"):
        return ScalarFunction(kind)
    if kind == "polynomial":
        return polynomial(_numbers(data.get("coeffs", ()), "polynomial coeffs"))
    if kind == "gaussian":
        return gaussian(
            json_number(data.get("center", 0.0), "gaussian center"),
            json_number(data.get("width", 1.0), "gaussian width"),
        )
    if kind == "affine":
        return affine(
            json_number(data.get("a", 1.0), "affine a"), json_number(data.get("b", 0.0), "affine b")
        )
    return smooth_abs(json_number(data.get("eps", 0.1), "smooth_abs eps"))


# each kind with the JSON keys it takes besides "kind"
_OUTER_KINDS = {
    "linear": ("weights", "offset"),
    "product": ("arity",),
    "polynomial": ("terms",),
    "sin_of_sum": ("weights",),
    "exp_of_sum": ("weights",),
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

    @property
    def arity(self) -> int:
        if self.kind == "linear":
            return len(self.params[0])
        if self.kind == "product":
            return int(self.params[0])
        if self.kind == "polynomial":
            return len(self.params[0][0][1])
        return len(self.params[0])  # sin_of_sum / exp_of_sum

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


def _weight_tuple(weights, what: str) -> tuple:
    if not (weights := tuple(float(w) for w in weights)):
        raise ValueError(f"{what} needs at least one weight")
    return weights


def outer_linear(weights, offset: float = 0.0) -> OuterMap:
    return OuterMap("linear", (_weight_tuple(weights, "linear outer map"), float(offset)))


def outer_product(arity: int) -> OuterMap:
    if arity < 1:
        raise ValueError("product outer map needs arity >= 1")
    return OuterMap("product", (int(arity),))


def outer_polynomial(terms) -> OuterMap:
    """Multivariate polynomial sum of coeff * v1^e1 * ... * vk^ek terms."""
    norm = []
    arity = None
    for coeff, exps in terms:
        exps = tuple(int(e) for e in exps)
        if any(e < 0 for e in exps):
            raise ValueError("polynomial exponents must be non-negative")
        if arity is None:
            arity = len(exps)
        elif len(exps) != arity:
            raise ValueError("all terms must share the same arity")
        norm.append((float(coeff), exps))
    if not norm:
        raise ValueError("polynomial outer map needs at least one term")
    return OuterMap("polynomial", (tuple(norm),))


def outer_sin(weights) -> OuterMap:
    return OuterMap("sin_of_sum", (_weight_tuple(weights, "sin_of_sum"),))


def outer_exp(weights) -> OuterMap:
    return OuterMap("exp_of_sum", (_weight_tuple(weights, "exp_of_sum"),))


def _outer_to_dict(g: OuterMap) -> dict:
    if g.kind == "linear":
        return {"kind": "linear", "weights": list(g.params[0]), "offset": g.params[1]}
    if g.kind == "product":
        return {"kind": "product", "arity": g.params[0]}
    if g.kind == "polynomial":
        return {"kind": "polynomial", "terms": [[c, list(e)] for c, e in g.params[0]]}
    return {"kind": g.kind, "weights": list(g.params[0])}


def _outer_from_dict(data: dict) -> OuterMap:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError('outer map JSON must be an object with a "kind"')
    kind = _kind_of(data, _OUTER_KINDS, "outer map")
    what = f"{kind} outer map"
    if kind == "linear":
        return outer_linear(
            _numbers(_required(data, "weights", what), "linear weights"),
            json_number(data.get("offset", 0.0), "linear offset"),
        )
    if kind == "product":
        return outer_product(_integer(_required(data, "arity", what), "product arity"))
    if kind == "polynomial":
        terms = _required(data, "terms", what)
        if not isinstance(terms, list):
            raise ValueError("polynomial terms must be a list of [coefficient, exponents]")
        normalized = []
        for term in terms:
            if not (isinstance(term, (list, tuple)) and len(term) == 2
                    and isinstance(term[1], (list, tuple))):
                raise ValueError(f"polynomial term must be [coefficient, exponents], not {term!r}")
            coeff, exps = term
            exps = [_integer(e, "polynomial exponent") for e in exps]
            normalized.append((json_number(coeff, "polynomial coefficient"), exps))
        return outer_polynomial(normalized)
    weights = _numbers(_required(data, "weights", what), f"{kind} weights")
    return outer_sin(weights) if kind == "sin_of_sum" else outer_exp(weights)


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

    def moments_flat(self, positions, weights, rows, count: int) -> np.ndarray:
        """``moments`` of each of ``count`` measures laid out flat, as
        ``measures.integrate_flat`` takes them: shape (count, k), bit for bit."""
        return self._moment_rows(lambda f: integrate_flat(positions, weights, rows, count, f), count)

    def _moment_rows(self, pairing, rows: int) -> np.ndarray:
        v = np.empty((rows, len(self.inner)))
        for i, f in enumerate(self.inner):
            v[:, i] = pairing(f)
        return v

    def evaluate(self, m: DiscreteMeasure) -> float:
        return self.outer.value(self.moments(m))

    def __call__(self, m: DiscreteMeasure) -> float:
        """F(m), as ``evaluate``; a CylinderFunction passed where a function
        of a measure is expected brings its ``evaluate_flat`` along."""
        return self.evaluate(m)

    def evaluate_flat(self, positions, weights, rows, count: int) -> np.ndarray:
        """``evaluate`` on each measure of a ``moments_flat`` layout, bit for
        bit and error for error, with one ``OuterMap.value`` call."""
        return self.outer.value(self.moments_flat(positions, weights, rows, count))

    def derivatives(self, m) -> "CylinderDerivatives":
        """The moments of m, or of each measure of a list m (one
        ``moments_flat`` call), and the outer map's derivatives there,
        computed once; every exact derivative there is evaluated from them."""
        if isinstance(m, DiscreteMeasure):
            return CylinderDerivatives(self, self.moments(m))
        return CylinderDerivatives(self, self.moments_flat(*_flat_atoms((a.positions, a.weights) for a in m)))

    def exact_delta(self, m: DiscreteMeasure, x):
        """Canonical first derivative: sum_i dg_i(v) * (f_i(x) - v_i)."""
        return self.derivatives(m).delta(x)

    def exact_delta_rows(self, positions: np.ndarray, weights: np.ndarray, x) -> np.ndarray:
        """``exact_delta`` at the points ``x`` for every row measure of a
        ``mix_rows`` batch, shape (rows, points), bit for bit."""
        v = self._moment_rows(lambda f: integrate_rows(positions, weights, f), len(weights))
        return CylinderDerivatives(self, v).delta(np.asarray(x, dtype=float))

    def exact_delta2(self, m: DiscreteMeasure, x, y):
        """Canonical second derivative, broadcasting elementwise over x, y.

        Equals (f(x)-v)^T Hessian (f(y)-v) - grad . (f(y)-v).
        """
        return self.derivatives(m).delta2(x, y)

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
    measure or (rows, k) for rows, and the outer map's gradient at v; the
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
        self.grad = F.outer.gradient(v)
        self._rows = v.ndim == 2
        self._v = self._columns(v)
        self._grad = self._columns(self.grad)

    def _columns(self, a) -> list:
        """``_columns``, with a row column of shape (rows, 1)."""
        return list(np.transpose(a, (*range(1, a.ndim), 0))[..., None]) if self._rows else a.tolist()

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
        shape = np.broadcast_shapes(self.v.shape[:-1] + (1,) * self._rows, *(np.shape(p) for p in points))
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
