"""Shared numerical plumbing: quadrature nodes, compensated running sums,
exactly rounded sums, canonical JSON and the one rule for JSON inputs.

``fsum_rows`` gives each row of a batch the bits of ``math.fsum`` from
per-(row, exponent) bin sums in numpy, and ``fsum`` is its one-row case;
rows of at most ``_FSUM_ROW_CUTOFF`` = 64 values go to ``math.fsum``."""

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
_FSUM_BATCH_CUTOFF = 1024
# Batches whose rows hold up to this many values on average are summed by
# ``math.fsum`` one list per row. Measured on signed weight products (15-30
# exponents per row), the bins tie with the lists at 32 rows of 64 values,
# lose at 32 x 48 (102 against 88 us) and win at 32 x 128 (140 against 260).
_FSUM_ROW_CUTOFF = 64


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
    """
    if rows is None:
        count = len(values)
    size = values.size
    small = _FSUM_CUTOFF if count == 1 else _FSUM_BATCH_CUTOFF
    if size <= small or size <= _FSUM_ROW_CUTOFF * count:
        return _fsum_each(values, rows, count)
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
    v = np.asarray(values, dtype=float)
    sums = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))
    np.add.accumulate(v, axis=-1, out=sums[..., 1:])
    prev, s = sums[..., :-1], sums[..., 1:]
    back = s - prev
    err = prev - (s - back)
    err += v - back
    np.add.accumulate(err, axis=-1, out=err)
    err += s
    return err
