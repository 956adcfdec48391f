"""Acceptance gate: every library guarantee at its stated tolerance.

One pass/fail line prints per criterion (run with ``pytest -s`` to see them
live). The first sweep feeds criteria 1-8; criterion 9 reruns the identical
sweep in this process and compares the serialized bytes, and a sweep in a
fresh interpreter must write the same bytes too.
"""

import inspect
import math
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import wasserstein_calculus
from wasserstein_calculus import acceptance, sampling
from wasserstein_calculus.acceptance import DISCRETIZATION_BUDGET_S, run_sweep
from wasserstein_calculus.util import canonical_json

ACCEPTANCE_SEED = 0


@pytest.fixture(scope="module")
def sweep():
    report, timings = run_sweep(seed=ACCEPTANCE_SEED)
    return report, timings


def _criterion(report, number):
    match = [c for c in report["criteria"] if c["criterion"] == number]
    assert len(match) == 1
    return match[0]


def _line(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_discretization_bound(sweep):
    report, timings = sweep
    c = _criterion(report, 1)
    ok = c["ok"] and timings["discretization_bound"] <= DISCRETIZATION_BUDGET_S
    _line(1, "discretization bound 3/n, both bump modes, runtime <= 10s", ok)
    assert c["violations"] == 0
    assert c["measures_per_case"] == 100
    assert set(c["modes"]) == {"smooth_bump", "linear_hat"}
    assert {(r["K"], r["n"]) for r in c["per_n"]} == {
        (K, n) for K in (1, 2) for n in range(K + 1, 65)
    }
    assert timings["discretization_bound"] <= DISCRETIZATION_BUDGET_S


def test_criterion_2_dawson_matches_exact(sweep):
    report, _ = sweep
    c = _criterion(report, 2)
    _line(2, "extrapolated quotient within 1e-5 of exact, order ~1", c["ok"])
    assert c["samples"] == 200
    assert len(c["functions"]) >= 6
    for entry in c["functions"]:
        assert entry["extrapolated_err_max"] <= 1e-5
        if not entry["degenerate"]:
            assert 0.9 <= entry["order"] <= 1.1
    assert c["eps_grid"] == [1e-2, 5e-3, 2.5e-3]


def test_criterion_3_integral_identity(sweep):
    report, _ = sweep
    c = _criterion(report, 3)
    _line(3, "defining-integral residual <= 1e-9 at quadrature order 32", c["ok"])
    assert c["samples"] == 100
    assert c["quad_order"] == 32
    assert c["residual_max"] <= 1e-9


def test_criterion_4_canonical_normalization(sweep):
    report, _ = sweep
    c = _criterion(report, 4)
    _line(4, "derivatives integrate to zero (exact 1e-12, estimated 1e-5)", c["ok"])
    assert c["exact_integral_max"] <= 1e-12
    assert c["estimated_integral_max"] <= 1e-5


def test_criterion_5_antiderivative_soundness(sweep):
    report, _ = sweep
    c = _criterion(report, 5)
    _line(5, "antiderivative differentiates back to the field", c["ok"])
    assert c["eps"] == 1e-3 and c["quad_order"] == 32 and c["K"] == 1.0
    for entry in c["fields"]:
        assert entry["mismatch_max"] <= 1e-5
        assert entry["verdict"] == "derivative"
        assert entry["recovery_err_max"] <= 1e-9


def test_criterion_6_counterexample(sweep):
    report, _ = sweep
    c = _criterion(report, 6)
    _line(6, "symmetry-violating field reproduced and detected", c["ok"])
    inner = c["report"]
    assert inner["phi"] == "sin" and inner["psi"] == "cos"
    assert inner["K"] == pytest.approx(math.pi)
    assert inner["quadrature_vs_closed_max"] <= 1e-10
    assert inner["built_derivative_vs_closed_max"] <= 1e-5
    assert inner["closed_derivative_vs_field_max"] >= 0.1
    assert c["pinned_symmetry_residual"] == pytest.approx(-2.0, abs=1e-10)
    assert inner["verdict"] == "not-a-derivative"
    assert c["ftc_verdict"] == "not-a-derivative"
    assert c["ftc_mismatch_max"] >= c["ftc_mismatch_floor"] >= 0.1


def test_criterion_7_second_derivative_symmetry(sweep):
    report, _ = sweep
    c = _criterion(report, 7)
    _line(7, "second-derivative symmetry residual <= 1e-10", c["ok"])
    assert c["samples"] == 1000
    assert len(c["functions"]) >= 1
    assert c["residual_max"] <= 1e-10


def test_criterion_8_metric_properties(sweep):
    report, _ = sweep
    c = _criterion(report, 8)
    _line(8, "duality bounds below w1 and triangle inequality (1e-12)", c["ok"])
    assert c["samples"] == 1000
    assert c["triangle_excess_max"] <= 1e-12
    assert c["kr_excess_max"] <= 1e-12


def test_criterion_9_determinism(sweep):
    report, _ = sweep
    rerun, _ = run_sweep(seed=ACCEPTANCE_SEED)
    identical = canonical_json(report) == canonical_json(rerun)
    _line(9, "sweep reports byte-identical for fixed seed", identical)
    assert identical
    assert report["all_ok"] is True


def test_sweep_bytes_from_a_fresh_process(sweep, tmp_path):
    # a new interpreter starts with no cached values or module state, which
    # a rerun inside this process cannot rule out
    report, _ = sweep
    out = tmp_path / "report.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(wasserstein_calculus.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    argv = ["-m", "wasserstein_calculus.cli", "sweep", "--seed", str(ACCEPTANCE_SEED), "--out", str(out)]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == canonical_json(report).encode("utf-8")
    # stderr holds the timing of each criterion and nothing else, such as a
    # numpy warning from an array path
    timings = "".join(rf"{c['name']}: \d+\.\d\ds\n" for c in report["criteria"])
    assert re.fullmatch(timings, proc.stderr), proc.stderr


SAMPLED_CHECKS = [check for check in acceptance.CHECKS if "samples" in inspect.signature(check).parameters]


def test_every_sampled_check_is_covered():
    assert len(SAMPLED_CHECKS) == 5


@pytest.mark.parametrize("samples", [0, -3, 2.5, True])
@pytest.mark.parametrize("check", SAMPLED_CHECKS, ids=lambda check: check.__name__)
def test_sample_counts_below_one_or_not_integers_are_refused(check, samples):
    with pytest.raises(ValueError, match="^samples must be at least 1$"):
        check(seed=1, samples=samples)


def test_a_nan_residual_after_finite_ones_is_kept():
    with mock.patch.object(acceptance, "verify_deriv2", side_effect=[0.0, math.nan, 0.0]):
        report, _ = acceptance.check_integral_identity(seed=1, samples=3)
    assert math.isnan(report["residual_max"]) and report["ok"] is False


def test_a_nan_distance_is_kept_and_fails_criterion_1():
    core = acceptance._w1_flat

    def nan_in_second_row(first, second):
        dists = core(first, second)
        dists[1] = math.nan
        return dists

    with mock.patch.object(acceptance, "_w1_flat", nan_in_second_row):
        case = acceptance.discretization_case(1, 1, 2)
    assert math.isnan(case["ratio_max"]) and math.isnan(case["w1_actual"])
    assert case["violations"] == 2  # one per bump mode


FLAT_DRAWS = acceptance._flat_draws
DRAW_PASSES = sampling._draw_passes


def planted_draws(seed, streams, indices, Ks):
    """Criterion 1's draws, with an atom at 1.5 in every measure of case
    (1, 64), inside the bound of K = 2 but not of its own, and all-zero
    exponentials in every measure of case (2, 3)."""
    row_streams = np.repeat(streams, len(indices))

    def draw_passes(*args):
        # one pass holds every row of the block
        for positions, exps, counts, points in DRAW_PASSES(*args):
            planted = np.flatnonzero(row_streams == "discretize-K1-n64")
            positions[planted, counts[planted] - 1] = 1.5
            exps[row_streams == "discretize-K2-n3"] = 0.0
            yield positions, exps, counts, points

    with mock.patch.object(sampling, "_draw_passes", draw_passes):
        return FLAT_DRAWS(seed, streams, indices, Ks)


def test_a_block_that_raises_runs_its_cases_one_at_a_time():
    """The block of (1, 64) and (2, 3) raises the draw error of its second
    case first; criterion 1 raises the bound error of the first case, as its
    cases one at a time do."""
    bound = "^measure support bound 1.5 exceeds the scheme bound K=1$"
    with mock.patch.object(acceptance, "_flat_draws", planted_draws):
        with pytest.raises(ValueError, match="^positions and weights must be finite$"):
            acceptance._discretization_block(1, [(1, 64), (2, 3)])
        with pytest.raises(ValueError, match=bound):
            acceptance.discretization_case(1, 1, 64)
        with pytest.raises(ValueError, match=bound):
            acceptance.check_discretization(seed=1)


def test_criterion_1_makes_one_call_per_bump_mode_per_block():
    """One draw call per block, then one ``_discretize_flat`` and one
    ``_w1_flat`` call per bump mode, each on at most the block's measures."""
    counts = {"_flat_draws": [], "_discretize_flat": [], "_w1_flat": []}

    def spy(name, count_of):
        core = getattr(acceptance, name)

        def counted(*args):
            out = core(*args)
            counts[name].append(count_of(args, out))
            return out

        return mock.patch.object(acceptance, name, counted)

    with spy("_flat_draws", lambda args, out: out[3]), spy("_discretize_flat", lambda args, out: args[6]), spy(
        "_w1_flat", lambda args, out: args[0][3]
    ):
        report, _ = acceptance.check_discretization(seed=1)
    blocks = -(-report["cases"] // acceptance.CASES_PER_BLOCK)
    assert blocks == 63
    assert len(counts["_flat_draws"]) == blocks
    assert len(counts["_discretize_flat"]) == len(counts["_w1_flat"]) == 2 * blocks
    most = acceptance.CASES_PER_BLOCK * acceptance.MEASURES_PER_CASE
    assert max(max(c) for c in counts.values()) == most


def test_a_nan_metric_excess_is_kept():
    core = acceptance._w1_flat

    def nan_in_last_pass(first, second):
        dists = core(first, second)
        if len(dists) < 99:  # the last, short pass
            dists[0] = math.nan
        return dists

    with mock.patch.object(acceptance, "_w1_flat", nan_in_last_pass):
        report, _ = acceptance.check_metric_properties(seed=1, samples=40)
    assert math.isnan(report["triangle_excess_max"]) and math.isnan(report["kr_excess_max"])
    assert report["ok"] is False
