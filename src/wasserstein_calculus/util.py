"""Shared numerical plumbing: quadrature nodes, compensated running sums,
exactly rounded sums, canonical JSON and the one rule for JSON inputs.

``fsum_rows`` gives each row of a batch the bits of ``math.fsum`` by one of
three paths, chosen by the size of the batch and its values per row:

- the lists: ``math.fsum`` on one list per row, for small batches and flat
  rows of at most ``_FSUM_ROW_CUTOFF`` = 16 values on average;
- the bracket, for rows of 17 to ``_FSUM_BIN_CUTOFF`` = 512 values on average:
  ``np.cumsum`` along the rows and the exact error of each step bound each
  row's exact sum between two floats, and where both round to one float,
  that float is the row's correctly rounded sum, as ``math.fsum`` returns
  it (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005). The error of
  a floating-point sum of n errors is at most gamma_(n-1) times the sum of
  their absolute values, in any order of summation; the bracket is that
  bound, doubled and widened by one ulp, and rounding is monotone. Other
  rows go to ``math.fsum`` alone. 2-D batches of more than
  ``_FSUM_BATCH_CUTOFF`` = 1,024 values in rows of at most 16 take the
  bracket in the column layout: the batch transposed, so that the running
  sums are one vector add per column across all rows, and the error sums
  and maxima reduce along axis 0;
- the bins, for longer rows and one-row sums: each value's two exact halves
  are summed per (row, exponent) with ``np.bincount`` and ``math.fsum``
  rounds each row's few bin sums.

``fsum`` is the one-row case of ``fsum_rows``."""

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


# One array up to this size is summed by ``math.fsum`` on a list. Measured on
# probability weights and signed products, the bins of ``fsum`` tie with the
# list at 512 values and win from 576 (16-20 against 17-27 us).
_FSUM_CUTOFF = 512
# A batch of several rows up to this size is summed one list per row: at 600
# to 1,000 values in 4 to 10 rows the lists still win (21-37 against 28-51 us).
# Against the bracket (timeit medians here and below, on a shared 2-CPU Xeon)
# they tie at segment quadrature's 32 rows of 33 values (40-48 against 41-57
# us) and lose from 32 x 40 (50 against 44 us). Larger 2-D batches of rows of
# at most ``_FSUM_ROW_CUTOFF`` values take the bracket in the column layout.
# On the sweep's own batches the lists still win at 128 x 7 (48 against 53
# us) and 334 x 2 (62 against 70), tie at 100 x 12 (53 against 50) and
# 500 x 2 (107 against 103), and lose at 128 x 13 (101 against 71), 256 x 8
# (99 against 56) and a segment block's 1,024 x 13 (612 against 286 us).
_FSUM_BATCH_CUTOFF = 1024
# Batches whose rows hold up to this many values on average are summed by
# ``math.fsum`` one list per row, or in the column layout (above). On the
# sweep's own batches the bracket ties with the lists at 100 rows of 16
# values (94 against 95 us) and wins at 100 x 18 (95 against 104) and
# 100 x 35 (131 against 189); flat rows pay for their padding and lose at
# 100 x 12 (111 against 93 us). At 1,024 rows the column layout beats the
# row layout up to this many values (16: 369 against 557 us), ties at 17
# (546 against 571) and loses at 24 (744 against 702 us).
_FSUM_ROW_CUTOFF = 16
# Batches whose rows hold up to this many values on average, and more than
# ``_FSUM_ROW_CUTOFF``, take the bracket; longer rows take the bins. On
# segment quadrature's node rows the bracket beats the bins at 32 x 64 (75
# against 128 us), 32 x 129 (81 against 116), 32 x 256 (138 against 147)
# and 32 x 257 (145 against 169), ties from 32 x 384 to 32 x 768 (32 x 512:
# 194-261 against 198-237 us) and loses at 32 x 1,024 (400 against 348-391).
_FSUM_BIN_CUTOFF = 512


def fsum(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())`` of a 1-D float64 array, with its bits:
    the one-row case of ``fsum_rows``."""
    return fsum_rows(values[None, :])[0]


def fsum_rows(values: np.ndarray, rows: np.ndarray | None = None, count: int = 0) -> list:
    """``math.fsum`` of each row, with its bits and its errors.

    The rows are those of a 2-D float64 array, or ``count`` rows laid flat in
    a 1-D ``values``, row after row, with ``rows`` giving each entry's row.

    Each value splits exactly into an upper half, the value with the 26 low
    bits of its fraction cleared, and the rest. One ``np.bincount`` each sums
    the halves per row and biased exponent E, where subnormals count as
    E = 1 and zeros, which add nothing, may join any bin. A value of
    exponent E is a multiple of 2^(E-1075), so its upper half is a multiple
    of 2^(E-1049) below 2^(E-1022) and the rest a multiple of 2^(E-1075)
    below 2^(E-1049). With at most 2^26 values, every partial sum of a bin is
    a multiple of the same unit, and below 2^53 of them, so each bin sum is
    exact. The nonzero bin sums of a row are then exact parts of its total,
    and ``math.fsum`` of them rounds that total correctly, as it would round
    the row itself (Neal 2015, arXiv:1505.05571; Shewchuk 1997).

    ``math.fsum`` sums each row itself when the rows are short (at most
    ``_FSUM_ROW_CUTOFF`` values on average) or the input small (at most
    ``_FSUM_CUTOFF`` values in one row, ``_FSUM_BATCH_CUTOFF`` in several),
    and where its own errors must show: a NaN or an infinity, values so
    large that a partial sum could overflow ("intermediate overflow"), and
    more than 2^26 values.

    Rows of more than ``_FSUM_ROW_CUTOFF`` and at most ``_FSUM_BIN_CUTOFF``
    values on average take the bracket instead of the bins, flat rows padded
    with zeros to the longest unless that more than doubles the values; so
    do 2-D batches of more than ``_FSUM_BATCH_CUTOFF`` values in rows of at
    most ``_FSUM_ROW_CUTOFF``, instead of the lists, in the column layout
    (the transposed batch, summed along axis 0; the proof is the same).
    ``np.cumsum`` adds each row of n values left to right, so its partial
    sums are s_k = fl(s_{k-1} + x_k), and TwoSum gives the exact error
    e_k = s_{k-1} + x_k - s_k of each step: the row's exact sum is
    S = s_n + sum(e). Summed by numpy in any order, the errors give c with
    |c - sum(e)| <= gamma_(n-1) sum(|e|), where gamma_m = m u / (1 - m u)
    and u = 2^-53, and the computed w = n 2^-52 sum(|e|) exceeds that
    bound. (Where w underflows, every partial sum of the errors is below
    2^-1021, hence exact, and so is c.) So lo = nextafter(c - w, -inf) and
    hi = nextafter(c + w, inf), each one ulp outside the rounded end, bound
    sum(e), and S lies in [s_n + lo, s_n + hi]. Rounding to nearest is
    monotone, so where fl(s_n + lo) = fl(s_n + hi), that float is fl(S),
    the correctly rounded sum, which is ``math.fsum``'s. Every other row
    goes to ``math.fsum`` alone, from its own values: a sum at or next to a
    tie between two floats; a zero or subnormal sum, whose ends differ by
    at least the one-ulp widening; a NaN or an infinity, which makes the
    errors NaN; and partial sums above 2^1020, beyond which ``math.fsum``'s
    own exact partial sums could overflow where numpy's do not.
    """
    if rows is None:
        count = len(values)
    size = values.size
    small = _FSUM_CUTOFF if count == 1 else _FSUM_BATCH_CUTOFF
    if size <= small or size <= _FSUM_ROW_CUTOFF * count:
        if rows is None and size > small:  # many short rows: the column layout
            return _fsum_bracketed(values, None, count)
        return _fsum_each(values, rows, count)
    if size <= _FSUM_BIN_CUTOFF * count and (sums := _fsum_bracketed(values, rows, count)) is not None:
        return sums
    bits = values.view(np.int64)
    upper = (bits & -(1 << 26)).view(np.float64)
    keys = bits >> 52
    keys &= 2047
    top = int(keys.max())
    # |x| < 2^(E-1022) for the largest E, so the sum of |x| is below
    # 2^(E-1022+bit_length(size)). Under 2^1021, math.fsum's partial sums
    # stay below 2^1023 and it cannot overflow. E = 2047 holds inf and NaN.
    if top + size.bit_length() > 2043 or size > 1 << 26:
        return _fsum_each(values, rows, count)
    if count > 1:
        # zeros (exponent field 0) join the largest exponent's bin, so that
        # the bins of a row span only the exponents of nonzero values
        keys = np.where(values != 0.0, keys, top)
        low = int(keys.min())
        width = top - low + 1
        if 2 * width >= size // count:  # more bin sums than values per row
            return _fsum_each(values, rows, count)
        keys += (np.arange(count)[:, None] if rows is None else rows) * width - low
    else:
        width = top + 1
    keys = keys.ravel()
    parts = np.concatenate(
        (
            np.bincount(keys, upper.ravel(), count * width).reshape(count, width),
            np.bincount(keys, (values - upper).ravel(), count * width).reshape(count, width),
        ),
        axis=1,
    )
    if count == 1:  # one row's bins run from exponent 0: keep the used ones
        return [math.fsum(parts[parts != 0.0].tolist())]
    return [math.fsum(row) for row in parts.tolist()]


def _fsum_bracketed(values: np.ndarray, rows: np.ndarray, count: int) -> list | None:
    """``math.fsum`` of each row from a bracket proved in numpy (see
    ``fsum_rows``), in the column layout for rows of at most
    ``_FSUM_ROW_CUTOFF`` values, or None when padding flat rows with zeros to
    the longest would more than double the values."""
    padded, lengths = values, None
    if rows is not None:
        lengths = np.bincount(rows, minlength=count)
        width = int(lengths.max())
        if count * width > 2 * values.size:
            return None
        ends = np.cumsum(lengths)
        padded = np.zeros((count, width))
        padded[rows, np.arange(values.size) - (ends - lengths)[rows]] = values
    axis = 1
    if padded.shape[1] <= _FSUM_ROW_CUTOFF:  # the column layout
        padded, axis = np.ascontiguousarray(padded.T), 0
    with np.errstate(over="ignore", invalid="ignore"):  # rows with inf or NaN fail ``sure``
        s, err = _two_sum_steps(padded, axis)
        total, near = s.take(-1, axis), err.sum(axis=axis)
        wide = np.abs(err, out=err).sum(axis=axis)
        wide *= padded.shape[axis] * 2.0**-52
        low = total + np.nextafter(near - wide, -np.inf)
        sure = low == total + np.nextafter(near + wide, np.inf)
        sure &= np.abs(s, out=s).max(axis=axis) <= 2.0**1020
    sums = low.tolist()
    for r in np.flatnonzero(~sure).tolist():
        row = values[r] if lengths is None else values[ends[r] - lengths[r] : ends[r]]
        sums[r] = math.fsum(row.tolist())
    return sums


def _fsum_each(values: np.ndarray, rows: np.ndarray, count: int) -> list:
    """``math.fsum`` of each row, one list per row."""
    if values.ndim == 2:
        return [math.fsum(row) for row in values.tolist()]
    ends = np.cumsum(np.bincount(rows, minlength=count)).tolist()
    flat = values.tolist()
    return [math.fsum(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)]


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


def _two_sum_steps(v: np.ndarray, axis: int = -1):
    """The partial sums ``np.cumsum(v, axis)`` and the exact rounding error
    of each step (Knuth's TwoSum), the first step's being zero."""
    axis %= v.ndim
    shape = list(v.shape)
    shape[axis] += 1
    sums = np.zeros(shape)
    lead = (slice(None),) * axis
    prev, s = sums[lead + (slice(-1),)], sums[lead + (slice(1, None),)]
    np.add.accumulate(v, axis=axis, out=s)
    back = s - prev
    err = s - back
    np.subtract(prev, err, out=err)  # prev - (s - back)
    err += np.subtract(v, back, out=back)
    return s, err
