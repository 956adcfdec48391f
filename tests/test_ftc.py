"""Antiderivative construction, the symmetry condition, and its counterexample."""

import math

import numpy as np
import pytest

from wasserstein_calculus import (
    BASE_POINT,
    DerivativeField,
    DiscreteMeasure,
    affine,
    antiderivative,
    cos_fn,
    counterexample_closed_antiderivative,
    counterexample_closed_delta,
    counterexample_field,
    counterexample_report,
    dawson_extrapolated,
    dirac,
    field_from_dict,
    ftc_check,
    integrate,
    lift_to_field,
    sin_fn,
    standard_battery,
    symmetry_residual,
    zero_field,
    random_measure,
    random_point,
    stream_rng,
)
from wasserstein_calculus.ftc import ESTIMATED_SYMMETRY_TOL, _verdict


class TestAntiderivative:
    def test_single_moment_field(self):
        # the constant part of the field integrates to zero against m - base,
        # leaving <sin, m> - sin(0)
        H = lift_to_field(standard_battery()[1])
        F = antiderivative(H, 32)
        assert F(dirac(1.0)) == pytest.approx(math.sin(1.0), abs=1e-12)
        m = DiscreteMeasure([-0.8, 0.3], [0.25, 0.75])
        assert F(m) == pytest.approx(integrate(m, sin_fn()), abs=1e-12)

    def test_zero_at_base_point(self):
        for F in standard_battery():
            built = antiderivative(lift_to_field(F), 32)
            assert built(BASE_POINT) == 0.0
        assert antiderivative(zero_field(), 32)(dirac(2.0)) == 0.0

    def test_counterexample_closed_form(self):
        phi, psi = sin_fn(), cos_fn()
        F = antiderivative(counterexample_field(phi, psi), 32)
        # (1/2)(psi(0) + <psi, m>)(<phi, m> - phi(0)) at a point mass at 1,
        # about 0.64806
        expected = 0.5 * (1.0 + math.cos(1.0)) * math.sin(1.0)
        assert F(dirac(1.0)) == pytest.approx(expected, abs=1e-10)

    def test_recovers_up_to_constant(self):
        for F in standard_battery():
            built = antiderivative(lift_to_field(F), 32)
            base = F.evaluate(BASE_POINT)
            for i in range(10):
                m = random_measure(stream_rng(13, "recovery", i), 1.0)
                assert abs(built(m) - (F.evaluate(m) - base)) <= 1e-9

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            antiderivative(zero_field(), 1)


class TestSymmetryResidual:
    def test_zero_for_lifted_fields(self):
        for F in standard_battery():
            H = lift_to_field(F)
            for i in range(20):
                rng = stream_rng(13, "sym-lifted", i)
                m = random_measure(rng, 1.0)
                x, y = random_point(rng, 1.0), random_point(rng, 1.0)
                assert abs(symmetry_residual(H, m, x, y)) <= 1e-10

    def test_diagonal_is_exactly_zero(self):
        H = counterexample_field(sin_fn(), cos_fn())
        m = DiscreteMeasure([-0.4, 0.6], [0.5, 0.5])
        assert symmetry_residual(H, m, 0.37, 0.37) == 0.0

    def test_counterexample_pinned_value(self):
        # at a point mass at 0: sin(x)(cos(y)-1) - sin(y)(cos(x)-1) = -2
        H = counterexample_field(sin_fn(), cos_fn())
        r = symmetry_residual(H, dirac(0.0), math.pi / 2.0, math.pi)
        assert r == pytest.approx(-2.0, abs=1e-10)

    def test_estimated_mode(self):
        exact = counterexample_field(sin_fn(), cos_fn())
        blind = DerivativeField(value=exact.value, dx=exact.dx, label="blind")
        r = symmetry_residual(blind, dirac(0.0), math.pi / 2.0, math.pi, eps=1e-3)
        assert r == pytest.approx(-2.0, abs=1e-3)

    def test_estimation_requires_eps(self):
        blind = DerivativeField(value=lambda m, x: 0.0, dx=lambda m, x: 0.0)
        with pytest.raises(ValueError):
            symmetry_residual(blind, dirac(0.0), 0.1, 0.2)


class TestFtcCheck:
    def test_lifted_field_passes(self):
        H = lift_to_field(standard_battery()[2])
        report = ftc_check(H, K=1.0, quad_order=32, eps=1e-3, samples=25, seed=5)
        assert report["mismatch_max"] <= 1e-5
        assert report["symmetry_max"] <= 1e-10
        assert report["verdict"] == "derivative"
        assert report["symmetry_mode"] == "exact"

    def test_zero_field_trivial(self):
        report = ftc_check(zero_field(), K=1.0, samples=5, seed=5)
        assert report["mismatch_max"] == 0.0
        assert report["verdict"] == "derivative"

    def test_counterexample_detected(self):
        H = counterexample_field(sin_fn(), cos_fn())
        report = ftc_check(H, K=math.pi, quad_order=32, eps=1e-3, samples=25, seed=5)
        assert report["mismatch_max"] >= 0.1
        assert report["verdict"] == "not-a-derivative"

    def test_rejects_non_canonical(self):
        bad = DerivativeField(
            value=lambda m, x: np.asarray(x, dtype=float) + 0.0,
            dx=lambda m, x: np.ones(np.shape(x)) if np.ndim(x) else 1.0,
        )
        with pytest.raises(ValueError):
            ftc_check(bad, K=1.0, samples=5, seed=5)

    def test_estimated_symmetry_mode(self):
        exact = lift_to_field(standard_battery()[1])
        blind = DerivativeField(value=exact.value, dx=exact.dx, label="blind-sin")
        report = ftc_check(blind, K=1.0, samples=10, seed=5)
        assert report["symmetry_mode"] == "estimated"
        assert report["symmetry_max"] <= 1e-3
        assert report["verdict"] == "derivative"

    def test_exact_mode_verdict_uses_exact_threshold(self):
        # exact residual 0.074: below the estimated-mode 0.1, far above exact noise
        H = counterexample_field(affine(0.01, 0.0), cos_fn())
        report = ftc_check(H, K=math.pi, samples=30)
        assert report["symmetry_mode"] == "exact"
        assert 1e-3 < report["symmetry_max"] < 100.0 * ESTIMATED_SYMMETRY_TOL
        assert report["verdict"] == "not-a-derivative"

    def test_deterministic(self):
        H = lift_to_field(standard_battery()[3])
        a = ftc_check(H, K=1.0, samples=12, seed=5)
        b = ftc_check(H, K=1.0, samples=12, seed=5)
        assert a == b


def nan_off_atoms(nan_at=lambda x: True):
    """Zero on the atoms of m, so that it passes the canonical gate and
    integrates to zero, and NaN at the other points where ``nan_at`` holds."""

    def value(m, x):
        x = np.asarray(x, dtype=float)
        out = np.where(np.isin(x, m.positions) | np.logical_not(nan_at(x)), 0.0, math.nan)
        return float(out) if out.ndim == 0 else out

    return DerivativeField(value=value, dx=value, label="nan-off-atoms")


class TestNotANumber:
    @pytest.mark.parametrize("estimated", [False, True])
    def test_nan_residual_is_no_derivative(self, estimated):
        assert _verdict(math.nan, estimated=estimated, field_max=1.0) == "not-a-derivative"
        assert _verdict(0.0, estimated=estimated, field_max=math.nan) == "derivative"

    def test_nan_everywhere_fails_the_canonical_gate(self):
        # its integral against every probe is NaN, which no comparison with
        # the gate's tolerance lets through
        nan = DerivativeField(value=lambda m, x: np.full(np.shape(x), math.nan) + 0.0,
                              dx=lambda m, x: np.zeros(np.shape(x)) + 0.0, label="nan")
        with pytest.raises(ValueError, match="^field integrates to nan against a probe measure; canonicalize"):
            ftc_check(nan, K=1.0, samples=3, seed=5)

    def test_field_nan_off_the_atoms(self):
        report = ftc_check(nan_off_atoms(), K=1.0, samples=5, seed=5)
        assert math.isnan(report["symmetry_max"]) and math.isnan(report["mismatch_max"])
        assert report["verdict"] == "not-a-derivative"

    def test_a_nan_after_finite_residuals_is_kept(self):
        # NaN only at points above 0.5: most samples are finite, a few are not
        report = ftc_check(nan_off_atoms(lambda x: x > 0.5), K=1.0, samples=20, seed=5)
        assert math.isnan(report["symmetry_max"]) and math.isnan(report["mismatch_max"])
        assert report["verdict"] == "not-a-derivative"


class TestCounterexampleReport:
    def test_full_report(self):
        report = counterexample_report(sin_fn(), cos_fn(), K=math.pi, samples=100, seed=5)
        assert report["quadrature_vs_closed_max"] <= 1e-10
        assert report["built_derivative_vs_closed_max"] <= 1e-5
        assert report["closed_derivative_vs_field_max"] >= 0.1
        assert report["verdict"] == "not-a-derivative"
        assert report["ok"] is True

    def test_exact_verdict_on_weak_counterexample(self):
        report = counterexample_report(affine(0.01, 0.0), cos_fn(), K=math.pi, samples=30)
        assert report["symmetry_max"] < 100.0 * ESTIMATED_SYMMETRY_TOL
        assert report["verdict"] == "not-a-derivative"

    def test_closed_delta_differs_from_field(self):
        phi, psi = sin_fn(), cos_fn()
        H = counterexample_field(phi, psi)
        delta = counterexample_closed_delta(phi, psi)
        m = dirac(math.pi / 2.0)
        gap = abs(delta(m, math.pi / 4.0) - H.value(m, math.pi / 4.0))
        assert gap == pytest.approx(0.5 * (math.sqrt(2.0) - 1.0), abs=1e-12)

    def test_closed_antiderivative_at_base(self):
        F = counterexample_closed_antiderivative(sin_fn(), cos_fn())
        assert F(BASE_POINT) == 0.0

    def test_field_linear_delta_is_canonical(self):
        H = counterexample_field(sin_fn(), cos_fn())
        for i in range(20):
            rng = stream_rng(13, "counter-canonical", i)
            m = random_measure(rng, math.pi)
            x = random_point(rng, math.pi)
            total = math.fsum((m.weights * H.linear_delta(m, x, m.positions)).tolist())
            assert abs(total) <= 1e-10


class TestFieldFromDict:
    def test_lifted(self):
        H = field_from_dict(
            {
                "kind": "lifted",
                "cylinder": {
                    "inner": [{"kind": "sin"}],
                    "outer": {"kind": "linear", "weights": [1.0], "offset": 0.0},
                },
            }
        )
        assert H.value(dirac(0.0), math.pi / 2.0) == 1.0

    def test_counterexample(self):
        H = field_from_dict(
            {"kind": "counterexample", "phi": {"kind": "sin"}, "psi": {"kind": "cos"}}
        )
        assert symmetry_residual(H, dirac(0.0), math.pi / 2.0, math.pi) == pytest.approx(-2.0)

    def test_zero(self):
        H = field_from_dict({"kind": "zero"})
        assert H.value(dirac(0.0), 1.0) == 0.0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            field_from_dict({"kind": "mystery"})
        with pytest.raises(ValueError):
            field_from_dict({})
