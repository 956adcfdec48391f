"""Independent checks of library results, and the tally they feed.

Every check is written with plain numpy or a closed form, never with the
library function it checks. An operation fails when any of its errors exceeds
its tolerance; the headroom of a passing check is log10(tolerance / error).
"""

from __future__ import annotations

import math

import numpy as np

DIGITS_CAP = 16.0


def headroom(error: float, tol: float) -> float:
    """log10(tol / error), capped at DIGITS_CAP; -DIGITS_CAP when not finite."""
    if error == 0.0:
        return DIGITS_CAP
    if not math.isfinite(error):
        return -DIGITS_CAP
    return min(DIGITS_CAP, math.log10(tol / error))


class Tally:
    """Operations attempted and failed, and the worst headroom per layer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digits = {}
        self.failures = []

    def check(self, layer: str, *bounds) -> bool:
        """Count one operation; it passes when every (error, tolerance) holds."""
        ok = True
        for error, tol in bounds:
            ok = ok and bool(error <= tol)  # NaN fails
            self.digits[layer] = min(self.digits.get(layer, DIGITS_CAP), headroom(error, tol))
        return self.verdict(layer, ok)

    def verdict(self, layer: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(layer)
        return ok

    def layer_digits(self, layer: str) -> float:
        """Minimum headroom over the layer's checks; the cap when none ran."""
        return self.digits.get(layer, DIGITS_CAP)


def quantile_w1(pos_a, w_a, pos_b, w_b) -> float:
    """W1 as the integral over u in (0, 1) of |F_a^-1(u) - F_b^-1(u)|.

    Both quantile functions are step functions of u, constant between
    consecutive cumulative weights, so the integral is an exact finite sum.
    """
    qa, ca = _quantile_steps(pos_a, w_a)
    qb, cb = _quantile_steps(pos_b, w_b)
    levels = np.unique(np.concatenate(([0.0], ca, cb)))
    mid = 0.5 * (levels[:-1] + levels[1:])
    ia = np.minimum(np.searchsorted(ca, mid), qa.size - 1)
    ib = np.minimum(np.searchsorted(cb, mid), qb.size - 1)
    return float(np.sum(np.abs(qa[ia] - qb[ib]) * np.diff(levels)))


def _quantile_steps(pos, w):
    pos = np.asarray(pos, dtype=float)
    w = np.asarray(w, dtype=float)
    order = np.argsort(pos, kind="stable")
    cum = np.cumsum(w[order])
    return pos[order], cum / cum[-1]


def grouped_difference(pos_a, w_a, pos_b, w_b):
    """Atoms of a - b when coinciding positions are exactly equal."""
    pos, inverse = np.unique(np.concatenate((pos_a, pos_b)), return_inverse=True)
    signed = np.bincount(inverse, weights=np.concatenate((w_a, -np.asarray(w_b))))
    keep = signed != 0.0
    return pos[keep], signed[keep]


def moment(pos, w, f) -> float:
    return math.fsum((np.asarray(w) * f(np.asarray(pos))).tolist())
