"""The benchmark's workloads.

Each workload has five parts:

- ``build(seed)``: inputs made from the seed alone (timed as set-up);
- ``run(inputs)``: one pass of fixed library work (timed as ``wall_s``);
- ``check(inputs, results, tally)``: the oracles, outside the timed pass;
- ``corrupt(inputs, results)``: deliberately wrong copies of a pass's
  results, one per check, each of which ``check`` must count as one failed
  operation;
- ``fingerprint(results)``: what must repeat exactly between passes.

Inputs are built with numpy from the seed; the library only receives them.
Derived fields and antiderivatives are built inside the pass: they are cheap
closures, and building them there lets the tracer see the calls they make.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

import wasserstein_calculus as wc
from wasserstein_calculus import cli

from oracles import grouped_difference, moment, quantile_w1

# ---------------------------------------------------------------- sweep

SWEEP_CRITERIA = 8


def sweep_build(seed):
    return SimpleNamespace(seed=seed)


def sweep_run(inputs):
    """``wcalc sweep --seed N --threads 1``, report written to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", "--seed", str(inputs.seed), "--threads", "1"])
    return SimpleNamespace(code=code, report=out.getvalue())


def sweep_check(inputs, results, tally):
    report = json.loads(results.report)
    criteria = report["criteria"]
    if report["seed"] != inputs.seed or len(criteria) != SWEEP_CRITERIA:
        tally.verdict("acceptance.report", False)
        return
    for criterion in criteria:
        tally.verdict(f"acceptance.{criterion['name']}", criterion["ok"] is True)
    tally.verdict("cli.exit_code", results.code == (0 if report["all_ok"] else 1))


def sweep_corrupt(inputs, results):
    report = json.loads(results.report)
    report["criteria"][3]["ok"] = False
    yield "criterion not ok", SimpleNamespace(code=results.code, report=json.dumps(report))
    yield "exit code", SimpleNamespace(code=1 - results.code, report=results.report)


def sweep_fingerprint(results):
    return (results.code, results.report)


# ---------------------------------------------------------------- bulk_exact

BULK_ATOMS = 1_000_000
BULK_SHARED = 0.1  # share of b's atoms placed exactly on atoms of a
DISC_ATOMS = 20_000
DISC_N = 256
DISC_K = 2
TOL_W1 = 1e-10
TOL_MASS = 1e-12
TOL_DIFF = 1e-12
DISC_SLACK = 1e-10  # same slack as acceptance criterion 1


def _jittered(rng, n, K, lo, hi):
    """One point per cell of a uniform n-cell grid on [-K, K], at a random
    offset in [lo, hi) of its cell, so atoms never come within MERGE_TOL."""
    cell = 2.0 * K / n
    return -K + (np.arange(n) + lo + (hi - lo) * rng.random(n)) * cell


def bulk_build(seed):
    """Two 1e6-atom measures sharing 10% of their positions, and a 2e4-atom
    measure for the grid.

    Within one measure, atoms sit on distinct halves of their grid cells, so
    construction never merges; b copies a's position for a fixed share of
    cells, so ``mix`` and ``signed_difference`` always meet coinciding atoms.
    """
    rng = np.random.default_rng([seed, 1])
    pos_a = _jittered(rng, BULK_ATOMS, DISC_K, 0.05, 0.45)
    pos_b = _jittered(rng, BULK_ATOMS, DISC_K, 0.55, 0.95)
    shared = rng.random(BULK_ATOMS) < BULK_SHARED
    pos_b[shared] = pos_a[shared]
    ones = np.ones(BULK_ATOMS)
    a = wc.DiscreteMeasure(pos_a, rng.dirichlet(ones))
    b = wc.DiscreteMeasure(pos_b, rng.dirichlet(ones))
    m = wc.DiscreteMeasure(
        rng.uniform(-DISC_K, DISC_K, DISC_ATOMS), rng.dirichlet(np.ones(DISC_ATOMS))
    )
    schemes = tuple(wc.PartitionScheme(n=DISC_N, K=DISC_K, bump_shape=mode) for mode in wc.BUMP_MODES)
    return SimpleNamespace(a=a, b=b, t=float(rng.uniform(0.2, 0.8)), m=m, schemes=schemes)


def bulk_run(inputs):
    a, b = inputs.a, inputs.b
    return SimpleNamespace(
        w1=wc.w1(a, b),
        mixed=wc.mix(a, b, inputs.t),
        difference=wc.signed_difference(a, b),
        grids=tuple(wc.discretize(scheme, inputs.m) for scheme in inputs.schemes),
    )


def bulk_check(inputs, results, tally):
    a, b, t = inputs.a, inputs.b, inputs.t
    if not hasattr(inputs, "exact_w1"):  # depends on the inputs only: once per run
        inputs.exact_w1 = quantile_w1(a.positions, a.weights, b.positions, b.weights)
    exact = inputs.exact_w1
    tally.check("measures.w1", (abs(results.w1 - exact), TOL_W1))

    # (1-t)a + tb differs from a by t(b - a), so its distance to a is t * w1(a, b)
    mixed = results.mixed
    to_a = quantile_w1(mixed.positions, mixed.weights, a.positions, a.weights)
    tally.check(
        "measures.mix",
        (abs(to_a - t * exact), TOL_W1),
        (abs(math.fsum(mixed.weights.tolist()) - 1.0), TOL_MASS),
    )

    pos, signed = results.difference
    ref_pos, ref_signed = grouped_difference(a.positions, a.weights, b.positions, b.weights)
    if np.array_equal(pos, ref_pos):
        tally.check("measures.signed_difference", (float(np.max(np.abs(signed - ref_signed))), TOL_DIFF))
    else:
        tally.verdict("measures.signed_difference", False)

    m = inputs.m
    for scheme, grid in zip(inputs.schemes, results.grids):
        on_grid = np.abs(grid.positions * scheme.n - np.rint(grid.positions * scheme.n))
        tally.check(
            "partition.discretize",
            (abs(math.fsum(grid.weights.tolist()) - 1.0), TOL_MASS),
            (quantile_w1(m.positions, m.weights, grid.positions, grid.weights), 3.0 / scheme.n + DISC_SLACK),
            (float(np.max(on_grid)), 1e-9),
        )


def bulk_corrupt(inputs, results):
    def replaced(**changes):
        return SimpleNamespace(**{**vars(results), **changes})

    yield "w1 off by 1e-6", replaced(w1=results.w1 + 1e-6)
    mixed = results.mixed
    swapped = mixed.weights.copy()
    swapped[[0, -1]] = swapped[[-1, 0]]
    yield "mix with two weights swapped", replaced(
        mixed=SimpleNamespace(positions=mixed.positions, weights=swapped)
    )
    pos, signed = results.difference
    bumped = signed.copy()
    bumped[len(bumped) // 2] += 1e-9
    yield "signed weight off by 1e-9", replaced(difference=(pos, bumped))
    scheme, grid = inputs.schemes[0], results.grids[0]
    # a shift by s moves the grid s away from itself, so at least s - 3/n from m
    shifted = SimpleNamespace(positions=grid.positions + 8.0 / scheme.n, weights=grid.weights)
    yield "discretization outside 3/n", replaced(grids=(shifted,) + results.grids[1:])


def bulk_fingerprint(results):
    arrays = (results.mixed.positions, results.mixed.weights) + results.difference
    arrays += tuple(g.weights for g in results.grids)
    digest = hashlib.sha256(repr(results.w1).encode())
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------- segment_calculus

SEGMENT_SIZES = (16, 32, 64, 128, 256)
SEGMENT_PER_SIZE = 2
EPS = 1e-3
TOL_RECOVERY = 1e-9
TOL_CLOSED = 1e-10
TOL_QUOTIENT = 1e-5
TOL_IDENTITY = 1e-9
TOL_SYMMETRY = 1e-10


def _measure(rng, n, K):
    return wc.DiscreteMeasure(rng.uniform(-K, K, n), rng.dirichlet(np.ones(n)))


def segment_build(seed):
    """Medium measures (16 to 256 atoms) for the battery and the sin/cos
    counterexample; the battery's own sweep never exceeds 12 atoms."""
    rng = np.random.default_rng([seed, 2])
    lifted, counter = [], []
    for n in SEGMENT_SIZES:
        for _ in range(SEGMENT_PER_SIZE):
            m, mu = _measure(rng, n, 1.0), _measure(rng, n, 1.0)
            x, y = rng.uniform(-1.0, 1.0, 2)
            lifted.append((m, mu, float(x), float(y)))
            x, y = rng.uniform(-math.pi, math.pi, 2)
            counter.append((_measure(rng, n, math.pi), float(x), float(y)))
    return SimpleNamespace(
        battery=wc.standard_battery(), phi=wc.sin_fn(), psi=wc.cos_fn(), lifted=lifted, counter=counter
    )


def segment_run(inputs):
    lifted = []
    for F in inputs.battery:
        H = wc.lift_to_field(F)
        built = wc.antiderivative(H)
        for m, mu, x, y in inputs.lifted:
            lifted.append(
                (
                    built(m),
                    wc.dawson_extrapolated(built, m, x, EPS),
                    wc.verify_deriv2(F.evaluate, H, m, mu),
                    wc.symmetry_residual(H, m, x, y),
                )
            )
    H = wc.counterexample_field(inputs.phi, inputs.psi)
    built = wc.antiderivative(H)
    counter = [
        (built(m), wc.dawson_extrapolated(built, m, x, EPS), wc.symmetry_residual(H, m, x, y))
        for m, x, y in inputs.counter
    ]
    return SimpleNamespace(lifted=lifted, counter=counter)


def segment_check(inputs, results, tally):
    rows = iter(results.lifted)
    origin = wc.dirac(0.0)
    for F in inputs.battery:
        base = F.evaluate(origin)
        for m, _mu, x, _y in inputs.lifted:
            value, quotient, residual, symmetry = next(rows)
            tally.check("ftc.antiderivative_eval", (abs(value - (F.evaluate(m) - base)), TOL_RECOVERY))
            tally.check("derivative.dawson_extrapolated", (abs(quotient - F.exact_delta(m, x)), TOL_QUOTIENT))
            tally.check("derivative.verify_deriv2", (residual, TOL_IDENTITY))
            tally.check("ftc.symmetry_residual", (abs(symmetry), TOL_SYMMETRY))

    # closed forms of the counterexample field (phi(x) - <phi>) <psi>
    phi, psi = np.sin, np.cos
    phi0, psi0 = 0.0, 1.0
    for (m, x, y), (value, quotient, symmetry) in zip(inputs.counter, results.counter):
        P = moment(m.positions, m.weights, phi)
        S = moment(m.positions, m.weights, psi)
        closed = 0.5 * (psi0 + S) * (P - phi0)
        delta = 0.5 * (psi(x) - S) * (P - phi0) + 0.5 * (psi0 + S) * (phi(x) - P)
        defect = (phi(x) - P) * (psi(y) - S) - (phi(y) - P) * (psi(x) - S)
        tally.check("ftc.antiderivative_eval", (abs(value - closed), TOL_CLOSED))
        tally.check("derivative.dawson_extrapolated", (abs(quotient - delta), TOL_QUOTIENT))
        tally.check("ftc.symmetry_residual", (abs(symmetry - defect), TOL_SYMMETRY))


def segment_corrupt(inputs, results):
    def with_row(table, column, delta):
        rows = [list(r) for r in getattr(results, table)]
        rows[-1][column] += delta
        return SimpleNamespace(**{**vars(results), table: [tuple(r) for r in rows]})

    yield "antiderivative shifted by 1e-8", with_row("lifted", 0, 1e-8)
    yield "quotient off by 1e-4", with_row("lifted", 1, 1e-4)
    yield "identity residual 1e-8", with_row("lifted", 2, 1e-8)
    yield "symmetry residual 1e-9", with_row("lifted", 3, 1e-9)
    yield "counterexample antiderivative shifted by 1e-8", with_row("counter", 0, 1e-8)
    yield "counterexample quotient off by 1e-4", with_row("counter", 1, 1e-4)
    yield "counterexample symmetry off by 1e-9", with_row("counter", 2, 1e-9)


def segment_fingerprint(results):
    return (tuple(results.lifted), tuple(results.counter))


class Workload(NamedTuple):
    build: Callable
    run: Callable
    check: Callable
    corrupt: Callable
    fingerprint: Callable


WORKLOADS = {
    "sweep": Workload(sweep_build, sweep_run, sweep_check, sweep_corrupt, sweep_fingerprint),
    "bulk_exact": Workload(bulk_build, bulk_run, bulk_check, bulk_corrupt, bulk_fingerprint),
    "segment_calculus": Workload(
        segment_build, segment_run, segment_check, segment_corrupt, segment_fingerprint
    ),
}
