"""Acceptance battery: every guarantee the library makes, runnable as one sweep.

Each check returns a report dictionary containing only deterministic fields,
so two sweeps with the same seed serialize byte-identically. Timing is
returned separately.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .derivative import (
    DEFAULT_EPS,
    DEFAULT_QUAD_ORDER,
    DEFAULT_SEED,
    dawson_each,
    richardson,
    segment_integral_each,
    verify_deriv2,
)
from .ftc import (
    BASE_POINT,
    counterexample_field,
    counterexample_report,
    ftc_check,
    symmetry_residual,
)
from .functions import cos_fn, lift_to_field, lipschitz_probes, sin_fn, standard_battery
from .measures import _atom_rows, _w1_flat, dirac, kr_lower_bound_rows
from .partition import BUMP_MODES, _discretize_flat
from .sampling import _flat_draws, _passes, random_draws
from .util import check_samples, max_or_nan

__all__ = ["run_sweep", "CHECKS", "DEFAULT_SEED"]

MEASURES_PER_CASE = 100
DISCRETIZATION_BUDGET_S = 10.0
# cases per block of criterion 1: 3 measured faster, but its 1.1 MiB
# allocation peak raised the sweep's peak RSS
CASES_PER_BLOCK = 2


def discretization_case(seed: int, K: int, n: int) -> dict:
    """One (K, n) case of criterion 1: 100 seeded measures, both bump modes;
    the one-case block of ``_discretization_block``."""
    return _discretization_block(seed, [(K, n)])[0]


def _discretization_block(seed: int, cases: list) -> list:
    """The report rows of a block of (K, n) cases of criterion 1, each with
    the bits of its case alone: one call draws every case's measures laid
    out flat, and each bump mode makes one ``_discretize_flat`` call, each
    row on its case's grid, and one ``_w1_flat`` call."""
    streams = [f"discretize-K{K}-n{n}" for K, n in cases]
    originals = _flat_draws(seed, streams, range(MEASURES_PER_CASE), [K for K, _ in cases])
    row_K, row_n = (np.repeat(v, MEASURES_PER_CASE) for v in zip(*cases))
    ns = np.array([n for _, n in cases])[:, None]  # one row of distances per case
    violations, ratio_max = 0, np.zeros(len(cases))
    for mode in BUMP_MODES:
        grid = _discretize_flat(mode, row_n, row_K, *originals)
        dists = _w1_flat(originals, grid).reshape(len(cases), MEASURES_PER_CASE)
        violations += np.count_nonzero(~(dists <= 3.0 / ns + 1e-10), axis=1)  # NaN is one
        ratio_max = np.maximum(ratio_max, np.max(dists * ns / 3.0, axis=1))  # NaN stays
        if mode == "smooth_bump":
            w1_smooth_max = np.max(dists, axis=1)
            atoms_out_max = grid[2].reshape(len(cases), MEASURES_PER_CASE).max(axis=1)
    return [
        {"K": K, "n": n, "w1_bound": 3.0 / n, "w1_actual": float(w1), "atoms_out": int(atoms),
         "violations": int(bad), "ratio_max": float(ratio)}
        for (K, n), w1, atoms, bad, ratio in zip(cases, w1_smooth_max, atoms_out_max, violations, ratio_max)
    ]


def check_discretization(seed: int = DEFAULT_SEED):
    """Grid discretization stays within 3/n of the input, in both bump modes.

    A block of cases that raises runs again one case at a time, so the
    error is the first case's.
    """
    started = time.perf_counter()
    cases = [(K, n) for K in (1, 2) for n in range(K + 1, 65)]
    rows = []
    for i in range(0, len(cases), CASES_PER_BLOCK):
        block = cases[i : i + CASES_PER_BLOCK]
        try:
            rows += _discretization_block(seed, block)
        except Exception:
            rows += [discretization_case(seed, K, n) for K, n in block]
    elapsed = time.perf_counter() - started
    violations = sum(r["violations"] for r in rows)
    # wall-clock stays out of the report so reruns serialize byte-identically;
    # the acceptance suite asserts the runtime budget from the timings instead
    return {
        "criterion": 1,
        "name": "discretization_bound",
        "ok": violations == 0,
        "violations": int(violations),
        "empirical_ratio_max": float(max_or_nan(r["ratio_max"] for r in rows)),
        "cases": len(cases),
        "measures_per_case": MEASURES_PER_CASE,
        "modes": list(BUMP_MODES),
        "seed": int(seed),
        "per_n": [{key: r[key] for key in ("n", "K", "w1_bound", "w1_actual", "atoms_out")} for r in rows],
    }, elapsed


def check_dawson_linear(seed: int = DEFAULT_SEED, samples: int = 200):
    """The extrapolated quotient matches the exact derivative; order is one.

    Each draw pass makes one ``dawson_each`` call for every function, with
    the steps eps and eps/2 of the extrapolated quotient, then the raw
    quotient's step grid, and one ``derivatives`` batch per function.
    """
    check_samples(samples)
    started = time.perf_counter()
    battery = standard_battery()
    eps = 1e-3
    eps_grid = (1e-2, 5e-3, 2.5e-3)
    steps = (eps, 0.5 * eps) + eps_grid
    worst = np.zeros((len(battery), 1 + len(eps_grid)))  # extrapolated, then raw per step
    for chunk in _passes(random_draws(seed, "dawson-samples", range(samples), 1.0, points=1)):
        ms, xs = zip(*chunk)
        points = np.array(xs)[:, None]  # one point per row
        for F, q, errs in zip(battery, dawson_each(battery, ms, xs, steps), worst):
            estimates = np.column_stack((richardson(q[:, 0], q[:, 1]), q[:, 2:]))
            np.maximum(errs, np.abs(estimates - F.derivatives(ms).delta(points)).max(axis=0), out=errs)

    def one(F, errs):
        ext_err, raw_err = errs[0], errs[1:]
        degenerate = raw_err[0] <= 1e-10
        if degenerate:
            order = None
            order_ok = all(v <= 1e-10 for v in raw_err)
        else:
            order = float(np.polyfit(np.log(eps_grid), np.log(raw_err), 1)[0])
            order_ok = 0.9 <= order <= 1.1
        return {
            "label": F.label,
            "extrapolated_err_max": float(ext_err),
            "order": order,
            "degenerate": bool(degenerate),
            "ok": bool(ext_err <= 1e-5 and order_ok),
        }

    per_fn = [one(F, errs) for F, errs in zip(battery, worst)]
    return {
        "criterion": 2,
        "name": "dawson_matches_exact_derivative",
        "ok": all(r["ok"] for r in per_fn),
        "samples": samples,
        "eps": eps,
        "eps_grid": list(eps_grid),
        "seed": int(seed),
        "functions": per_fn,
    }, time.perf_counter() - started


def check_integral_identity(
    seed: int = DEFAULT_SEED, samples: int = 100, quad_order: int = DEFAULT_QUAD_ORDER
):
    """Matched (function, exact field) pairs satisfy the defining identity."""
    check_samples(samples)
    started = time.perf_counter()
    battery = standard_battery()

    def one(i: int, m, mu) -> float:
        F = battery[i % len(battery)]
        return verify_deriv2(F.evaluate, lift_to_field(F), m, mu, quad_order)

    pairs = random_draws(seed, "integral-identity", range(samples), 1.0, measures=2)
    residual_max = max_or_nan(one(i, m, mu) for i, (m, mu) in enumerate(pairs))
    return {
        "criterion": 3,
        "name": "derivative_integral_identity",
        "ok": residual_max <= 1e-9,
        "residual_max": float(residual_max),
        "quad_order": int(quad_order),
        "samples": samples,
        "seed": int(seed),
    }, time.perf_counter() - started


def check_canonical_normalization(seed: int = DEFAULT_SEED, samples: int = 25):
    """Exact and estimated derivatives both integrate to zero.

    Each draw pass makes one ``dawson_each`` call for every function at
    every (measure, atom) pair, with the steps eps and eps/2.
    """
    check_samples(samples)
    started = time.perf_counter()
    battery = standard_battery()
    exact, estimated = [], []
    for chunk in _passes(random_draws(seed, "canonical", range(samples), 1.0)):
        ms = [m for (m,) in chunk]
        pairs = [(m, x) for m in ms for x in m.positions.tolist()]
        q = dawson_each(battery, *zip(*pairs), (DEFAULT_EPS, 0.5 * DEFAULT_EPS))
        ends = np.cumsum([len(m) for m in ms]).tolist()
        for F, extrapolated in zip(battery, richardson(q[..., 0], q[..., 1])):
            for m, a, b in zip(ms, [0] + ends, ends):
                exact.append(abs(math.fsum((m.weights * F.exact_delta(m, m.positions)).tolist())))
                estimated.append(abs(math.fsum((m.weights * extrapolated[a:b]).tolist())))
    exact_max, estimated_max = max_or_nan(exact), max_or_nan(estimated)
    return {
        "criterion": 4,
        "name": "canonical_normalization",
        "ok": exact_max <= 1e-12 and estimated_max <= 1e-5,
        "exact_integral_max": float(exact_max),
        "estimated_integral_max": float(estimated_max),
        "samples": samples,
        "eps": DEFAULT_EPS,
        "seed": int(seed),
    }, time.perf_counter() - started


def check_ftc_soundness(seed: int = DEFAULT_SEED):
    """Antiderivatives of lifted fields differentiate back to the field."""
    started = time.perf_counter()
    battery = standard_battery()

    def one(F):
        H = lift_to_field(F)
        report = ftc_check(H, K=1.0, samples=30, seed=seed)
        base = F.evaluate(dirac(0.0))
        ms = [m for (m,) in random_draws(seed, "ftc-recovery", range(20), 1.0)]
        built = segment_integral_each(H, BASE_POINT, ms, DEFAULT_QUAD_ORDER)
        exact = F.evaluate_flat(*_atom_rows(ms))
        recovery = max_or_nan(np.abs(built - (exact - base)).tolist())
        return {
            "label": F.label,
            "mismatch_max": report["mismatch_max"],
            "symmetry_max": report["symmetry_max"],
            "verdict": report["verdict"],
            "recovery_err_max": float(recovery),
            "ok": bool(report["mismatch_max"] <= 1e-5 and report["verdict"] == "derivative" and recovery <= 1e-9),
        }

    per_fn = [one(F) for F in battery]
    return {
        "criterion": 5,
        "name": "antiderivative_soundness",
        "ok": all(r["ok"] for r in per_fn),
        "eps": DEFAULT_EPS,
        "quad_order": DEFAULT_QUAD_ORDER,
        "K": 1.0,
        "seed": int(seed),
        "fields": per_fn,
    }, time.perf_counter() - started


def check_counterexample(seed: int = DEFAULT_SEED):
    """The symmetry-violating field is detected and its gaps are as derived."""
    started = time.perf_counter()
    phi, psi = sin_fn(), cos_fn()
    K = math.pi
    report = counterexample_report(phi, psi, K, samples=200, seed=seed)
    H = counterexample_field(phi, psi)
    pinned = symmetry_residual(H, dirac(0.0), math.pi / 2.0, math.pi)
    pinned_ok = abs(pinned - (-2.0)) <= 1e-10
    ftc_report = ftc_check(H, K=K, samples=40, seed=seed)
    mismatch_floor = max(0.1, 0.25 * report["closed_derivative_vs_field_max"])
    ok = (
        report["ok"]
        and pinned_ok
        and report["verdict"] == "not-a-derivative"
        and ftc_report["verdict"] == "not-a-derivative"
        and ftc_report["mismatch_max"] >= mismatch_floor
    )
    return {
        "criterion": 6,
        "name": "counterexample",
        "ok": bool(ok),
        "report": report,
        "pinned_symmetry_residual": float(pinned),
        "ftc_mismatch_max": ftc_report["mismatch_max"],
        "ftc_mismatch_floor": float(mismatch_floor),
        "ftc_verdict": ftc_report["verdict"],
        "seed": int(seed),
    }, time.perf_counter() - started


def check_second_derivative_symmetry(seed: int = DEFAULT_SEED, samples: int = 1000):
    """Second derivatives of genuine functions satisfy the symmetry identity.

    Each curved function takes the derivatives of a whole draw pass at once
    and evaluates the four terms at every row's own pair of points.
    """
    check_samples(samples)
    started = time.perf_counter()
    curved = [F for F in standard_battery() if F.has_nontrivial_hessian()]
    worst = []
    for chunk in _passes(random_draws(seed, "symmetry", range(samples), 1.0, points=2)):
        ms, xs, ys = zip(*chunk)
        xs, ys = np.array(xs)[:, None], np.array(ys)[:, None]  # one point per row
        for F in curved:
            d = F.derivatives(ms)
            residual = d.delta2(xs, ys) - d.delta(xs) - d.delta2(ys, xs) + d.delta(ys)
            worst.append(float(np.max(np.abs(residual))))
    residual_max = max_or_nan(worst)
    return {
        "criterion": 7,
        "name": "second_derivative_symmetry",
        "ok": residual_max <= 1e-10,
        "residual_max": float(residual_max),
        "functions": [F.label for F in curved],
        "samples": samples,
        "seed": int(seed),
    }, time.perf_counter() - started


def check_metric_properties(seed: int = DEFAULT_SEED, samples: int = 1000):
    """Duality lower bounds never exceed the distance; triangle inequality.

    Each draw pass of triples (a, b, c) lays out its pairs' first and second
    measures flat once, makes one ``_w1_flat`` call for the three pairs of
    every triple and one ``kr_lower_bound_rows`` call per probe.
    """
    check_samples(samples)
    started = time.perf_counter()
    probes = lipschitz_probes()
    triangle, kr = [], []
    for chunk in _passes(random_draws(seed, "metric", range(samples), 2.0, measures=3), 3):
        a, b, c = zip(*chunk)
        firsts, seconds = (_atom_rows(ms) for ms in (a + b + a, b + c + c))
        d_ab, d_bc, d_ac = _w1_flat(firsts, seconds).reshape(3, -1)
        triangle.append(float(np.max(d_ac - d_ab - d_bc)))
        kr += [float(np.max(kr_lower_bound_rows(a, b, f) - d_ab)) for f in probes]
    triangle_max, kr_max = max_or_nan(triangle), max_or_nan(kr)
    return {
        "criterion": 8,
        "name": "metric_properties",
        "ok": triangle_max <= 1e-12 and kr_max <= 1e-12,
        "triangle_excess_max": float(triangle_max),
        "kr_excess_max": float(kr_max),
        "samples": samples,
        "lipschitz_probes": [f.name for f in probes],
        "seed": int(seed),
    }, time.perf_counter() - started


CHECKS = (
    check_discretization,
    check_dawson_linear,
    check_integral_identity,
    check_canonical_normalization,
    check_ftc_soundness,
    check_counterexample,
    check_second_derivative_symmetry,
    check_metric_properties,
)


def run_sweep(seed: int = DEFAULT_SEED):
    """Run the whole battery.

    Returns (report, timings): the report holds only deterministic values and
    serializes byte-identically for a fixed seed; timings are wall-clock
    seconds per criterion.
    """
    criteria = []
    timings = {}
    for check in CHECKS:
        report, elapsed = check(seed=seed)
        criteria.append(report)
        timings[report["name"]] = elapsed
    return (
        {
            "sweep": "acceptance",
            "seed": int(seed),
            "criteria": criteria,
            "all_ok": all(r["ok"] for r in criteria),
        },
        timings,
    )
