"""Difference-quotient estimators, the integral identity, canonicalization."""

import math

import numpy as np
import pytest

from wasserstein_calculus import (
    CylinderFunction,
    DerivativeField,
    DiscreteMeasure,
    canonicalize,
    dawson,
    dawson_extrapolated,
    dirac,
    identity_fn,
    integrate,
    lift_to_field,
    outer_polynomial,
    sin_fn,
    standard_battery,
    uniform_dawson_modulus,
    verify_deriv2,
    zero_field,
    random_measure,
    random_point,
    segment_integral_each,
    stream_rng,
)
from wasserstein_calculus.derivative import MIN_STEP
from wasserstein_calculus.util import MAX_QUAD_ORDER, gauss_legendre_01


def x_field():
    """H(m, x) = x: smooth but not canonical."""
    return DerivativeField(
        value=lambda m, x: np.asarray(x, dtype=float) + 0.0,
        dx=lambda m, x: np.ones(np.shape(x)) if np.ndim(x) else 1.0,
        label="coordinate",
    )


class TestDawson:
    def test_mean_functional_is_exact(self):
        # the quotient of a linear moment telescopes to x - mean(m) exactly
        F = standard_battery()[0]
        m = DiscreteMeasure([-0.5, 0.3], [0.4, 0.6])
        mean = integrate(m, identity_fn())
        for eps in (0.5, 0.1, 1e-3):
            assert dawson(F.evaluate, m, 0.9, eps) == pytest.approx(0.9 - mean, abs=1e-12)

    def test_constant_is_flat(self):
        m = dirac(0.3)
        assert dawson(lambda _: 4.2, m, 1.0, 0.1) == 0.0

    def test_squared_moment_at_origin(self):
        # F = <sin, .>^2 at a point mass at 0: quotient is exactly eps
        F = CylinderFunction((sin_fn(),), outer_polynomial([(1.0, (2,))]))
        eps = 1e-3
        q = dawson(F.evaluate, dirac(0.0), math.pi / 2.0, eps)
        assert q == pytest.approx(eps, abs=1e-12)
        assert abs(dawson_extrapolated(F.evaluate, dirac(0.0), math.pi / 2.0, eps)) <= 1e-12

    def test_step_bounds(self):
        m = dirac(0.0)
        with pytest.raises(ValueError):
            dawson(lambda _: 0.0, m, 1.0, 0.0)
        with pytest.raises(ValueError):
            dawson(lambda _: 0.0, m, 1.0, 0.6)
        with pytest.raises(ValueError):
            dawson_extrapolated(lambda _: 0.0, m, 1.0, 0.3)

    @pytest.mark.parametrize(
        "eps", [1e-320, 1e-300, 1e-17, 2.0**-54, 2.0**-52, 2.3e-16, 1e-10, np.nextafter(MIN_STEP, 0.0)]
    )
    def test_step_the_mixture_cannot_carry(self, eps):
        # up to 2^-54, 1 - eps rounds to 1: the mixture would hold mass
        # 1 + eps on paper; above, up to MIN_STEP, the quotient is still
        # mostly amplified rounding noise (2.3e-16 gave dawson_extrapolated
        # 0.121 against exact 0.269)
        F = standard_battery()[2]
        m = DiscreteMeasure([-0.8, 0.1, 0.6], [0.3, 0.4, 0.3])
        with pytest.raises(ValueError):
            dawson(F.evaluate, m, 0.5, eps)
        with pytest.raises(ValueError):
            dawson_extrapolated(F.evaluate, m, 0.5, eps)

    def test_smallest_carried_step(self):
        eps = 2.0 * MIN_STEP  # the half step of the extrapolation is the bound
        F = standard_battery()[0]
        m = DiscreteMeasure([-0.5, 0.3], [0.4, 0.6])
        assert math.isfinite(dawson(F.evaluate, m, 0.9, MIN_STEP))
        assert math.isfinite(dawson_extrapolated(F.evaluate, m, 0.9, eps))


class TestExtrapolated:
    def test_identical_to_plain_for_linear(self):
        F = standard_battery()[0]
        m = DiscreteMeasure([-0.5, 0.3], [0.4, 0.6])
        a = dawson(F.evaluate, m, 0.9, 1e-2)
        b = dawson_extrapolated(F.evaluate, m, 0.9, 1e-2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_product_case_accuracy(self):
        F = standard_battery()[2]
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        err = abs(dawson_extrapolated(F.evaluate, m, 2.0, 1e-3) - F.exact_delta(m, 2.0))
        assert err <= 1e-6

    def test_second_order_convergence(self):
        F = standard_battery()[5]  # exp_mix has a smooth non-quadratic profile
        m = DiscreteMeasure([-0.7, 0.2, 0.9], [0.25, 0.5, 0.25])
        x = 1.4
        exact = F.exact_delta(m, x)
        e1 = abs(dawson_extrapolated(F.evaluate, m, x, 1e-2) - exact)
        e2 = abs(dawson_extrapolated(F.evaluate, m, x, 5e-3) - exact)
        assert 3.5 <= e1 / e2 <= 4.5

    def test_battery_matches_exact(self):
        for i in range(50):
            rng = stream_rng(9, "ext-battery", i)
            m = random_measure(rng, 1.0)
            x = random_point(rng, 1.0)
            for F in standard_battery():
                err = abs(dawson_extrapolated(F.evaluate, m, x, 1e-3) - F.exact_delta(m, x))
                assert err <= 1e-5


class TestUniformModulus:
    def test_constant_against_zero_field(self):
        assert uniform_dawson_modulus(lambda _: 1.0, zero_field(), 1.0, 1e-2, 20, seed=4) == 0.0

    def test_sin_moment_small_modulus(self):
        F = standard_battery()[1]
        mod = uniform_dawson_modulus(F.evaluate, lift_to_field(F), 1.0, 1e-2, 50, seed=4)
        assert mod <= 0.05

    def test_modulus_halves_with_eps(self):
        # for <sin,.>^2 the quotient error is exactly eps * d^2
        F = CylinderFunction((sin_fn(),), outer_polynomial([(1.0, (2,))]))
        H = lift_to_field(F)
        m1 = uniform_dawson_modulus(F.evaluate, H, 1.0, 1e-2, 50, seed=4)
        m2 = uniform_dawson_modulus(F.evaluate, H, 1.0, 5e-3, 50, seed=4)
        assert 1.8 <= m1 / m2 <= 2.2

    def test_reproducible(self):
        F = standard_battery()[2]
        H = lift_to_field(F)
        a = uniform_dawson_modulus(F.evaluate, H, 1.0, 1e-3, 30, seed=12)
        b = uniform_dawson_modulus(F.evaluate, H, 1.0, 1e-3, 30, seed=12)
        assert a == b

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            uniform_dawson_modulus(lambda _: 0.0, zero_field(), 1.0, 1e-3, 0)

    @pytest.mark.parametrize("samples", [-3, 2.5, True])
    def test_rejects_sample_counts_below_one_or_not_integers(self, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            uniform_dawson_modulus(lambda _: 0.0, zero_field(), 1.0, 1e-3, samples)

    def test_nan_gaps_are_kept(self):
        # the oracle is NaN right of -0.4: 14 of the 20 sampled points
        oracle = DerivativeField(value=lambda m, x: math.nan if x > -0.4 else 0.0, dx=lambda m, x: 0.0)
        assert math.isnan(uniform_dawson_modulus(lambda _: 1.0, oracle, 1.0, 1e-2, 20, seed=4))


class TestQuadratureOrder:
    def test_orders_up_to_the_cap(self):
        nodes, weights = gauss_legendre_01(MAX_QUAD_ORDER)
        assert nodes.size == MAX_QUAD_ORDER and abs(math.fsum(weights.tolist()) - 1.0) <= 1e-14

    @pytest.mark.parametrize("order", [1, MAX_QUAD_ORDER + 1, 100_000])
    def test_orders_outside_are_refused(self, order):
        with pytest.raises(ValueError, match="quadrature order must lie in"):
            gauss_legendre_01(order)

    @pytest.mark.parametrize("order", [1, MAX_QUAD_ORDER + 1])
    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_segment_passes_refuse_orders_outside(self, order, count):
        H = lift_to_field(standard_battery()[2])
        measures = [DiscreteMeasure([-0.4, 0.2], [0.5, 0.5])] * count
        with pytest.raises(ValueError, match="quadrature order must lie in"):
            segment_integral_each(H, dirac(0.0), measures, quad_order=order)


class TestVerifyDeriv2:
    def test_matched_pair_tiny_residual(self):
        F = standard_battery()[2]
        m = DiscreteMeasure([-0.4, 0.2, 0.7], [0.3, 0.5, 0.2])
        mu = dirac(0.1)
        assert verify_deriv2(F.evaluate, lift_to_field(F), m, mu, 32) <= 1e-10

    def test_equal_measures(self):
        F = standard_battery()[3]
        m = DiscreteMeasure([0.0, 0.5], [0.5, 0.5])
        assert verify_deriv2(F.evaluate, lift_to_field(F), m, m, 32) == 0.0

    def test_sin_between_diracs(self):
        # the t-integrand telescopes: the quadrature must equal sin(1)
        F = standard_battery()[1]
        r = verify_deriv2(F.evaluate, lift_to_field(F), dirac(1.0), dirac(0.0), 32)
        assert r <= 1e-12

    def test_seeded_battery(self):
        battery = standard_battery()
        worst = 0.0
        for i in range(50):
            rng = stream_rng(9, "deriv2-battery", i)
            F = battery[i % len(battery)]
            m = random_measure(rng, 1.0)
            mu = random_measure(rng, 1.0)
            worst = max(worst, verify_deriv2(F.evaluate, lift_to_field(F), m, mu, 32))
        assert worst <= 1e-9

    def test_rejects_low_order(self):
        F = standard_battery()[0]
        with pytest.raises(ValueError):
            verify_deriv2(F.evaluate, lift_to_field(F), dirac(0.0), dirac(1.0), 1)

    def test_wrong_field_leaves_residual(self):
        # mismatched pair: sin moment against the cos field
        Fs, Fc = standard_battery()[1], standard_battery()[2]
        r = verify_deriv2(Fs.evaluate, lift_to_field(Fc), dirac(1.0), dirac(0.0), 32)
        assert r > 1e-3


class TestCanonicalize:
    def test_subtracts_the_mean(self):
        H = canonicalize(x_field())
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        assert H.value(m, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert H.value(m, 0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_output_is_canonical(self):
        H = canonicalize(x_field())
        for i in range(20):
            m = random_measure(stream_rng(9, "canonical-out", i), 1.0)
            total = math.fsum(m.weights[j] * H.value(m, float(p)) for j, p in enumerate(m.positions))
            assert abs(total) <= 1e-12

    def test_idempotent(self):
        H1 = canonicalize(x_field())
        H2 = canonicalize(H1)
        m = DiscreteMeasure([-0.3, 0.4, 0.9], [0.2, 0.5, 0.3])
        for x in (-1.0, 0.2, 2.0):
            assert abs(H1.value(m, x) - H2.value(m, x)) <= 1e-12

    def test_already_canonical_unchanged(self):
        F = standard_battery()[2]
        H = lift_to_field(F)
        HC = canonicalize(H)
        m = DiscreteMeasure([-0.3, 0.6], [0.5, 0.5])
        for x in (-0.5, 0.0, 0.8):
            assert abs(H.value(m, x) - HC.value(m, x)) <= 1e-12
            assert abs(H.linear_delta(m, x, 0.3) - HC.linear_delta(m, x, 0.3)) <= 1e-12

    def test_constant_field_becomes_zero(self):
        flat = DerivativeField(
            value=lambda m, x: np.full(np.shape(x), 3.0) if np.ndim(x) else 3.0,
            dx=lambda m, x: np.zeros(np.shape(x)) if np.ndim(x) else 0.0,
        )
        H = canonicalize(flat)
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        assert H.value(m, 0.7) == 0.0

    def test_derived_linear_delta_matches_quotient(self):
        # the corrected second derivative must agree with differentiating
        # the canonicalized value directly
        base = x_field()
        with_ld = DerivativeField(
            value=base.value,
            dx=base.dx,
            linear_delta=lambda m, x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
            if (np.ndim(x) or np.ndim(y))
            else 0.0,
            label="coordinate",
        )
        H = canonicalize(with_ld)
        m = DiscreteMeasure([-0.5, 0.1, 0.7], [0.3, 0.4, 0.3])
        x, y = 0.4, -0.2
        est = dawson_extrapolated(lambda mm: H.value(mm, x), m, y, 1e-3)
        assert abs(H.linear_delta(m, x, y) - est) <= 1e-5
        # and the corrected second derivative is itself canonical
        total = math.fsum(
            m.weights[j] * H.linear_delta(m, x, float(p)) for j, p in enumerate(m.positions)
        )
        assert abs(total) <= 1e-10
