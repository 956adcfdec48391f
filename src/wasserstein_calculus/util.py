"""Shared numerical plumbing: quadrature nodes, compensated running sums,
exactly rounded sums, canonical JSON and the one rule for JSON inputs.

``fsum`` and ``fsum_rows`` give each row the bits of ``math.fsum``, by one
path per shape of input:

- one row (``fsum``, and ``fsum_rows`` of one row): ``math.fsum`` on a list
  up to ``_FSUM_CUTOFF`` = 512 values, else the bins: each value's two
  exact halves are summed per exponent with ``np.bincount``, and
  ``math.fsum`` rounds the few bin sums;
- the lists, for rows laid flat and 2-D batches of at most
  ``_FSUM_BATCH_CUTOFF`` = 768 values: ``math.fsum`` on one list per row;
- the bracket, for larger 2-D batches: one error-free extraction splits each
  row exactly into high parts q, whose numpy sum t is exact in any order,
  and low parts r (Rump, Ogita and Oishi, "Accurate floating-point
  summation part I", SIAM J. Sci. Comput. 31, 2008). Their numpy sum c,
  in any order, errs by at most gamma_(n-1) times the sum of their
  absolute values, below a power of two w; c - w and c + w, each widened
  by one ulp, bracket the low parts' exact sum. Rounding is monotone, so
  where t plus either end rounds to one float, that float is the row's
  correctly rounded sum, as ``math.fsum`` returns it. Other rows go to
  ``math.fsum`` alone.
  Rows of at most ``_FSUM_ROW_CUTOFF`` = 16 values take the column layout:
  the batch transposed, so that each step is one vector operation across
  all rows, and the sums and maxima reduce along axis 0.

Beside the sums, ``fsum_near_one`` is the one verdict path: whether each
row's ``math.fsum`` lies within a tolerance of one, for mass checks that read
nothing else of the sum. Each row's float sum and the a-priori bound on its
error decide almost every row in numpy (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, 4.2); a row within the bound of the threshold
goes to ``math.fsum`` alone."""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

__all__ = ["gauss_legendre_01", "canonical_json", "compensated_cumsum"]


# ``leggauss`` builds an order x order matrix, so orders above this are
# refused before it runs; the cap also bounds the cache below at 255 orders.
MAX_QUAD_ORDER = 256


@lru_cache(maxsize=None)
def gauss_legendre_01(order: int):
    """Gauss-Legendre nodes and weights on [0, 1], for an order from 2 to
    ``MAX_QUAD_ORDER``. Cached per order; the returned arrays are read-only."""
    if not 2 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order must lie in [2, {MAX_QUAD_ORDER}], not {order!r}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    for a in (nodes, weights):
        a.setflags(write=False)
    return nodes, weights


def canonical_json(obj) -> str:
    """Serialize a report deterministically (sorted keys, plain floats).

    NaN and the infinities raise ``ValueError``: they are no JSON.
    """
    try:
        return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("the report holds NaN or an infinity, which JSON cannot carry") from None


def json_number(value, what: str) -> float:
    """A JSON leaf as a finite float: an int or a float (numpy's included),
    never a bool or a numeric string, and finite as a double."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a finite number, not {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond a double
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, not {number!r}")
    return number


def check_samples(samples) -> None:
    """A sample count is an integer (never a bool) of at least 1."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError("samples must be at least 1")


def max_or_nan(values) -> float:
    """The largest of some floats, or NaN if one is (``max`` keeps only a first NaN)."""
    values = list(values)
    return math.nan if any(v != v for v in values) else max(values)


def check_keys(data: dict, known, what: str) -> None:
    """Reject keys of a JSON object that its kind does not know, so that a
    misspelled key never loads a default."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(f"{what} JSON has unknown keys {unknown}; it takes {sorted(known)}")


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


# One row up to this size is summed by ``math.fsum`` on a list. Measured on
# probability weights and signed products, the bins of ``fsum`` tie with the
# list at 512 values and win from 576 (16-20 against 17-27 us).
_FSUM_CUTOFF = 512
# A 2-D batch of several rows up to this size is summed one list per row.
# Against the bracket (timeit medians here and below, on a shared 2-CPU Xeon,
# of rows of signed probability weights) the lists still win at 768 values
# (32 x 24: 26 against 30 us; 24 x 32: 25 against 29), tie from 800 to 840
# (4 x 200, 8 x 100, 60 x 14: 25-31 against 26-32 us) and lose at 896
# (128 x 7: 37 against 32 us), at segment quadrature's 32 x 32 (35 against
# 31 us) and at a segment block's 1,024 x 13 (719 against 171 us).
_FSUM_BATCH_CUTOFF = 768
# Larger 2-D batches whose rows hold up to this many values take the bracket
# in the column layout. At 1,024 rows the column layout beats the row layout
# at 8 to 16 values (13: 127 against 218 us; 16: 136 against 232). Beyond 16
# its lead depends on the number of rows: at 1,024 rows it still leads at 24
# (162 against 264 us), but at 2,000 x 32 it trails (1,059 against 579 us),
# so a cutoff on the row length alone stays here.
_FSUM_ROW_CUTOFF = 16


def fsum(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())`` of a 1-D float64 array, with its bits
    and its errors.

    Up to ``_FSUM_CUTOFF`` values, that is how it is computed. Longer rows
    take the bins: each value splits exactly into an upper half, the value
    with the 26 low bits of its fraction cleared, and the rest. One
    ``np.bincount`` each sums the halves per biased exponent E, where
    subnormals count as E = 1 and zeros, which add nothing, join bin 0. A
    value of exponent E is a multiple of 2^(E-1075), so its upper half is a
    multiple of 2^(E-1049) below 2^(E-1022) and the rest a multiple of
    2^(E-1075) below 2^(E-1049). With at most 2^26 values, every partial sum
    of a bin is a multiple of the same unit, and below 2^53 of them, so each
    bin sum is exact. The nonzero bin sums are then exact parts of the
    total, and ``math.fsum`` of them rounds that total correctly, as it
    would round the row itself (Neal 2015, arXiv:1505.05571; Shewchuk 1997).

    ``math.fsum`` sums the row itself where its own errors must show: a NaN
    or an infinity, values so large that a partial sum could overflow
    ("intermediate overflow"), and more than 2^26 values.
    """
    if values.size <= _FSUM_CUTOFF:
        return math.fsum(values.tolist())
    bits = values.view(np.int64)
    keys = bits >> 52
    keys &= 2047
    top = int(keys.max())
    # |x| < 2^(E-1022) for the largest E, so the sum of |x| is below
    # 2^(E-1022+bit_length(size)). Under 2^1021, math.fsum's partial sums
    # stay below 2^1023 and it cannot overflow. E = 2047 holds inf and NaN.
    if top + values.size.bit_length() > 2043 or values.size > 1 << 26:
        return math.fsum(values.tolist())
    upper = (bits & -(1 << 26)).view(np.float64)
    parts = np.concatenate((np.bincount(keys, upper, top + 1), np.bincount(keys, values - upper, top + 1)))
    return math.fsum(parts[parts != 0.0].tolist())


def fsum_rows(values: np.ndarray, rows: np.ndarray | None = None, count: int = 0) -> list:
    """``math.fsum`` of each row, with its bits and its errors.

    The rows are those of a 2-D float64 array, or ``count`` rows laid flat in
    a 1-D ``values``, row after row, with ``rows`` giving each entry's row.
    The shape of the input picks one of three paths:

    - one row is ``fsum``'s;
    - the flat layout, and 2-D batches of at most ``_FSUM_BATCH_CUTOFF``
      values, take ``math.fsum`` on one list per row;
    - larger 2-D batches take the bracket, in the column layout for rows of
      at most ``_FSUM_ROW_CUTOFF`` values: the transposed batch, reduced
      along axis 0, so that each step is one vector operation across all
      rows (the proof is the same).

    Each row of n values x_i is split exactly by one extraction (Rump, Ogita
    and Oishi, "Accurate floating-point summation part I", SIAM J. Sci.
    Comput. 31, 2008). Let top = max |x_i| < 2^e, M the bit length of n + 1
    (so that 2^M >= n + 2) and sigma = 2^(e+M). Then sigma + x_i lies within
    2^-M sigma of sigma, in [sigma/2, 2 sigma], where floats are multiples
    of 2^-53 sigma; so q_i = fl(sigma + x_i) - sigma is exact (Sterbenz), a
    multiple of 2^-53 sigma with |q_i| <= 2^-M sigma, and r_i = x_i - q_i is
    the rounding error of one addition, a float, so it is exact too, with
    |r_i| <= 2^-53 sigma. Every partial sum of the q, in any order, is a
    multiple of 2^-53 sigma of at most n 2^-M sigma < sigma, hence a float:
    their numpy sum t is exact. The numpy sum c of the r errs by at most
    gamma_(n-1) sum(|r|) <= gamma_(n-1) n 2^-53 sigma, where
    gamma_m = m u / (1 - m u) and u = 2^-53, which is below
    n^2 2^-105 sigma and so below w = 2^(2M-105) sigma, a power of two. So
    lo = nextafter(c - w, -inf) and hi = nextafter(c + w, inf), each one ulp
    outside the rounded end, bound sum(r), and the row's exact sum S lies in
    [t + lo, t + hi]. Rounding to nearest is monotone, so where
    fl(t + lo) = fl(t + hi), that float is fl(S), the correctly rounded
    sum, which is ``math.fsum``'s. Every other row goes to ``math.fsum``
    alone: a sum at or next to a tie between two floats; a zero sum, whose
    ends have opposite signs; a NaN or an infinity, which fails the guards;
    and a row whose top lies outside 2^-900 <= top < 2^(1021-M). Those
    guards keep sigma and w normal and finite, and the row's partial sums,
    below sigma <= 2^1021, where ``math.fsum`` cannot overflow (see
    ``fsum``).
    """
    if rows is None:
        count = len(values)
    if count == 1:
        return [fsum(values.reshape(-1))]
    if rows is not None or values.size <= _FSUM_BATCH_CUTOFF:
        return _fsum_each(values, rows, count)
    return _fsum_bracketed(values)


def _fsum_bracketed(values: np.ndarray) -> list:
    """``math.fsum`` of each row of a 2-D batch from a bracket proved in
    numpy (see ``fsum_rows``), in the column layout for rows of at most
    ``_FSUM_ROW_CUTOFF`` values."""
    layout, axis = values, 1
    if values.shape[1] <= _FSUM_ROW_CUTOFF:  # the column layout
        layout, axis = np.ascontiguousarray(values.T), 0
    bits = (layout.shape[axis] + 1).bit_length()  # M
    with np.errstate(over="ignore", invalid="ignore"):  # rows with inf or NaN fail ``sure``
        part = np.abs(layout)
        top = part.max(axis=axis)
        sigma = np.ldexp(1.0, np.frexp(top)[1] + bits)
        wide = sigma * 2.0 ** (2 * bits - 105)
        sigma = np.expand_dims(sigma, axis)
        np.add(layout, sigma, out=part)
        part -= sigma  # q
        total = part.sum(axis=axis)
        near = np.subtract(layout, part, out=part).sum(axis=axis)  # the sum of r
        low = total + np.nextafter(near - wide, -np.inf)
        sure = low == total + np.nextafter(near + wide, np.inf)
        sure &= (top >= 2.0**-900) & (top < 2.0 ** (1021 - bits))
    sums = low.tolist()
    for r in np.flatnonzero(~sure).tolist():
        sums[r] = math.fsum(values[r].tolist())
    return sums


def _fsum_each(values: np.ndarray, rows: np.ndarray, count: int) -> list:
    """``math.fsum`` of each row, one list per row."""
    if values.ndim == 2:
        return [math.fsum(row) for row in values.tolist()]
    ends = np.cumsum(np.bincount(rows, minlength=count)).tolist()
    flat = values.tolist()
    return [math.fsum(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def fsum_near_one(values: np.ndarray, tol: float, rows: np.ndarray | None = None, count: int = 0) -> np.ndarray:
    """``abs(math.fsum(row) - 1.0) <= tol`` of each row, a bool array, with
    the errors of ``math.fsum``; a NaN row reads False. The rows are those
    of ``fsum_rows``: of a 2-D batch, or ``count`` rows laid flat.

    Each row of n values has c, their numpy sum in any order, and a, that
    of their absolute values. Each errs by at most gamma_(n-1) sum(|x|), so
    the error of c is at most gamma_(n-1) a / (1 - gamma_(n-1)), which the
    computed w = n 2^-52 a exceeds. (Where that product is below 2^-1073, a
    is below 2^-1021: every partial sum of the row is a multiple of 2^-1074
    below 2^-1021, hence exact, and so is c.) So lo = nextafter(c - w, -inf)
    and hi = nextafter(c + w, inf) bound the row's exact sum S. The verdict
    is that fl(fl(S) - 1) lies in [-tol, tol], and rounding is monotone, so
    fl(lo - 1) <= fl(fl(S) - 1) <= fl(hi - 1): a row whose ends both lie in
    [-tol, tol] reads True, and one whose ends lie on the same side of it
    False. Every other row goes to ``math.fsum`` alone: a sum within the
    bracket's width of a bound; a NaN or an infinity, which leaves a not
    finite; and a above 2^1020, beyond which ``math.fsum`` could overflow
    (see ``fsum``). So a row decided in numpy is one on which ``math.fsum``
    would not raise.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rows with inf or NaN are not ``sure``
        if rows is None:
            sizes, near, spread = values.shape[1], values.sum(axis=1), np.abs(values).sum(axis=1)
        else:
            sizes = np.bincount(rows, minlength=count)
            near, spread = np.bincount(rows, values, count), np.bincount(rows, np.abs(values), count)
        wide = spread * (sizes * 2.0**-52)
        low = np.nextafter(near - wide, -np.inf) - 1.0
        high = np.nextafter(near + wide, np.inf) - 1.0
    inside = (low >= -tol) & (high <= tol)
    sure = (inside | (high < -tol) | (low > tol)) & (spread <= 2.0**1020)
    for r in np.flatnonzero(~sure).tolist():
        row = values[r] if rows is None else values[np.searchsorted(rows, r) : np.searchsorted(rows, r, "right")]
        inside[r] = abs(math.fsum(row.tolist()) - 1.0) <= tol
    return inside


def compensated_cumsum(values) -> np.ndarray:
    """Running sums with Neumaier compensation, along the last axis.

    Keeps cumulative-distribution differences accurate to a few ulp even for
    thousands of terms, which plain ``np.cumsum`` does not guarantee. A 2-D
    input is summed row by row; each row gives the bits it gives alone, as
    ``np.add.accumulate`` runs sequentially along the axis.

    The result equals, bit for bit, the sequential loop that keeps a running
    ``total`` and adds the rounding error of each step ``total + v`` to a
    running ``comp``, returning ``total + comp`` at every step. The partial
    sums ``s`` of that loop are exactly ``np.cumsum`` of the values, because
    numpy accumulates left to right in the same order. The error of each step
    depends only on the previous partial sum and the value, so Knuth's
    TwoSum computes all of them at once; it is exact, hence equal to the
    error the loop finds by branching on magnitudes. ``comp`` is then a
    left-to-right ``np.cumsum`` of the errors. Zeros agree in sign too:
    neither form ever returns -0.0.
    """
    s, err = _two_sum_steps(np.asarray(values, dtype=float))
    np.add.accumulate(err, axis=-1, out=err)
    err += s
    return err


def _two_sum_steps(v: np.ndarray):
    """The partial sums ``np.cumsum(v, axis=-1)`` and the exact rounding
    error of each step (Knuth's TwoSum), the first step's being zero."""
    sums = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))
    prev, s = sums[..., :-1], sums[..., 1:]
    np.add.accumulate(v, axis=-1, out=s)
    back = s - prev
    err = s - back
    np.subtract(prev, err, out=err)  # prev - (s - back)
    err += np.subtract(v, back, out=back)
    return s, err
