"""Scalar catalog and the cylinder-function derivative oracle."""

import math

import numpy as np
import pytest

from wasserstein_calculus import (
    CylinderFunction,
    OuterMap,
    ScalarFunction,
    DiscreteMeasure,
    affine,
    cos_fn,
    cylinder_from_dict,
    cylinder_to_dict,
    dirac,
    gaussian,
    identity_fn,
    integrate,
    lift_to_field,
    outer_exp,
    outer_linear,
    outer_polynomial,
    outer_product,
    outer_sin,
    polynomial,
    random_measure,
    random_point,
    scalar_from_dict,
    scalar_to_dict,
    sin_fn,
    smooth_abs,
    standard_battery,
    stream_rng,
    tanh_fn,
    dawson_extrapolated,
)

CATALOG = (
    sin_fn(),
    cos_fn(),
    tanh_fn(),
    polynomial((1.0, -0.5, 0.25, 0.125)),
    gaussian(0.3, 0.7),
    affine(-1.5, 2.0),
    smooth_abs(0.1),
)

FD_STEP = 1e-5


class TestScalarCatalog:
    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
    def test_derivative_matches_central_difference(self, f):
        for x in np.linspace(-3.0, 3.0, 25):
            fd = (f(x + FD_STEP) - f(x - FD_STEP)) / (2.0 * FD_STEP)
            assert abs(f.derivative(x) - fd) <= 50.0 * FD_STEP**2

    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
    def test_lipschitz_bound_by_dense_sampling(self, f):
        xs = np.linspace(-10.0, 10.0, 4001)
        assert np.max(np.abs(f.derivative(xs))) <= f.lipschitz_bound + 1e-9

    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
    def test_defined_everywhere(self, f):
        xs = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])
        assert np.all(np.isfinite(f(xs)))
        assert np.all(np.isfinite(f.derivative(xs)))

    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
    def test_json_round_trip(self, f):
        assert scalar_from_dict(scalar_to_dict(f)) == f

    def test_vector_and_scalar_agree(self):
        f = gaussian(0.0, 1.0)
        xs = np.array([-1.0, 0.5])
        assert f(xs)[1] == f(0.5)
        assert isinstance(f(0.5), float)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            smooth_abs(-1.0)
        with pytest.raises(ValueError):
            polynomial(())

    @pytest.mark.parametrize("kind", ["sin", "cos", "tanh"])
    def test_kind_without_parameters_refuses_them(self, kind):
        # they were dropped: tanh(3) went to JSON as {"kind": "tanh"}
        with pytest.raises(ValueError, match=f"^{kind} takes no parameters$"):
            ScalarFunction(kind, (3.0,))
        assert ScalarFunction(kind, ()) == ScalarFunction(kind)

    def test_parameter_count_checked_for_every_kind(self):
        for kind, params in [("gaussian", (0.0, 1.0, 2.0)), ("affine", (1.0,)), ("smooth_abs", (0.1, 0.2))]:
            with pytest.raises(ValueError, match=f"^{kind} needs "):
                ScalarFunction(kind, params)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("sin", 5, r"^sin takes \(\), not 5$"),
            ("gaussian", (0.0, None), r"^gaussian takes \(center, width\), not \(0.0, None\)$"),
            ("gaussian", 0.5, r"^gaussian takes \(center, width\), not 0.5$"),
            ("affine", (1.0, "b"), r"^affine takes \(a, b\), not \(1.0, 'b'\)$"),
            ("affine", "12", r"^affine takes \(a, b\), not '12'$"),
            ("smooth_abs", ([0.1],), r"^smooth_abs takes \(eps\), not \(\[0.1\],\)$"),
            ("polynomial", 2.0, r"^polynomial takes \(coeffs\), not 2.0$"),
            ("polynomial", (1.0, {}), r"^polynomial takes \(coeffs\), not \(1.0, \{\}\)$"),
        ],
    )
    def test_parameters_of_the_wrong_type_or_shape_refused(self, kind, params, message):
        # the message names the parameters of the kind, as OuterMap's does
        with pytest.raises(ValueError, match=message):
            ScalarFunction(kind, params)

    def test_parameters_as_list_or_tuple_alike(self):
        assert ScalarFunction("gaussian", [0.5, 2]) == gaussian(0.5, 2.0)


class TestEvaluate:
    def test_sin_moment_at_origin(self):
        F = standard_battery()[1]
        assert F.evaluate(dirac(0.0)) == 0.0

    def test_product_at_dirac(self):
        F = standard_battery()[2]
        assert F.evaluate(dirac(1.0)) == pytest.approx(math.sin(1.0) * math.cos(1.0), abs=1e-15)

    def test_constant_outer(self):
        F = CylinderFunction((sin_fn(),), outer_linear((0.0,), offset=2.5))
        m = DiscreteMeasure([-0.4, 0.7], [0.5, 0.5])
        assert F.evaluate(m) == 2.5
        assert F.exact_delta(m, 0.3) == 0.0

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CylinderFunction((sin_fn(),), outer_product(2))


class TestExactDelta:
    def test_single_moment_formula(self):
        # canonical derivative of <phi, m> is phi(x) - <phi, m>
        F = standard_battery()[1]
        m = DiscreteMeasure([-0.4, 0.1, 0.6], [0.2, 0.5, 0.3])
        s = integrate(m, sin_fn())
        for x in (-1.0, 0.0, 2.0):
            assert F.exact_delta(m, x) == pytest.approx(math.sin(x) - s, abs=1e-15)

    def test_value_at_pinned_point(self):
        F = standard_battery()[1]
        assert F.exact_delta(dirac(0.0), math.pi / 2.0) == 1.0

    def test_integrates_to_zero(self):
        for i in range(50):
            rng = stream_rng(3, "delta-zero", i)
            m = random_measure(rng, 1.0)
            for F in standard_battery():
                total = math.fsum((m.weights * F.exact_delta(m, m.positions)).tolist())
                assert abs(total) <= 1e-12

    def test_product_rule(self):
        F1 = CylinderFunction((sin_fn(),), outer_linear((1.0,)))
        F2 = CylinderFunction((cos_fn(),), outer_linear((1.0,)))
        F12 = CylinderFunction((sin_fn(), cos_fn()), outer_product(2))
        for i in range(20):
            rng = stream_rng(3, "product-rule", i)
            m = random_measure(rng, 1.0)
            x = random_point(rng, 1.0)
            expect = F1.evaluate(m) * F2.exact_delta(m, x) + F2.evaluate(m) * F1.exact_delta(m, x)
            assert abs(F12.exact_delta(m, x) - expect) <= 1e-12

    def test_linearity(self):
        alpha, beta = 1.75, -0.6
        F1 = CylinderFunction((sin_fn(),), outer_linear((1.0,)))
        F2 = CylinderFunction((cos_fn(),), outer_linear((1.0,)))
        combo = CylinderFunction((sin_fn(), cos_fn()), outer_linear((alpha, beta)))
        for i in range(20):
            rng = stream_rng(3, "linearity", i)
            m = random_measure(rng, 1.0)
            x = random_point(rng, 1.0)
            expect = alpha * F1.exact_delta(m, x) + beta * F2.exact_delta(m, x)
            assert abs(combo.exact_delta(m, x) - expect) <= 1e-12


class TestExactDelta2:
    def test_linear_outer_reduces_to_negative_delta(self):
        F = standard_battery()[1]
        m = DiscreteMeasure([-0.2, 0.5], [0.5, 0.5])
        for x, y in ((0.1, 0.9), (-1.0, 0.3)):
            assert F.exact_delta2(m, x, y) == pytest.approx(-F.exact_delta(m, y), abs=1e-15)

    def test_symmetry_identity(self):
        curved = [F for F in standard_battery() if F.has_nontrivial_hessian()]
        assert len(curved) >= 4
        for i in range(100):
            rng = stream_rng(3, "delta2-symmetry", i)
            m = random_measure(rng, 1.0)
            x = random_point(rng, 1.0)
            y = random_point(rng, 1.0)
            for F in curved:
                residual = (
                    F.exact_delta2(m, x, y)
                    - F.exact_delta(m, x)
                    - F.exact_delta2(m, y, x)
                    + F.exact_delta(m, y)
                )
                assert abs(residual) <= 1e-10

    def test_matches_difference_quotient_of_delta(self):
        # independent route: differentiate m -> exact_delta(m, x) numerically
        F = standard_battery()[5]  # exp_mix
        m = DiscreteMeasure([-0.5, 0.2, 0.8], [0.3, 0.4, 0.3])
        x, y = 0.4, -0.7
        est = dawson_extrapolated(lambda mm: F.exact_delta(mm, x), m, y, 1e-3)
        assert abs(F.exact_delta2(m, x, y) - est) <= 1e-5

    def test_constant_function_is_flat(self):
        F = CylinderFunction((sin_fn(),), outer_linear((0.0,), offset=3.0))
        m = dirac(0.2)
        assert F.exact_delta2(m, 0.5, -0.5) == 0.0

    def test_canonical_in_second_argument(self):
        # the derivative of m -> exact_delta(m, x) is itself canonical
        for i in range(20):
            rng = stream_rng(3, "delta2-canonical", i)
            m = random_measure(rng, 1.0)
            x = random_point(rng, 1.0)
            for F in standard_battery():
                total = math.fsum((m.weights * F.exact_delta2(m, x, m.positions)).tolist())
                assert abs(total) <= 1e-10


class TestOuterMaps:
    def test_polynomial_gradient_hessian(self):
        # g(v) = v1*v2 + 0.5*v2^2 by hand
        g = outer_polynomial([(1.0, (1, 1)), (0.5, (0, 2))])
        v = np.array([2.0, 3.0])
        assert g.value(v) == pytest.approx(6.0 + 4.5)
        assert np.allclose(g.gradient(v), [3.0, 2.0 + 3.0])
        assert np.allclose(g.hessian(v), [[0.0, 1.0], [1.0, 1.0]])

    def test_sin_outer(self):
        g = outer_sin((2.0,))
        v = np.array([0.25])
        assert g.value(v) == pytest.approx(math.sin(0.5))
        assert np.allclose(g.gradient(v), [2.0 * math.cos(0.5)])
        assert np.allclose(g.hessian(v), [[-4.0 * math.sin(0.5)]])

    def test_product_gradient_no_division(self):
        # leave-one-out products must survive zero coordinates
        g = outer_product(3)
        v = np.array([0.0, 2.0, 5.0])
        assert np.allclose(g.gradient(v), [10.0, 0.0, 0.0])
        assert g.hessian(v)[1, 2] == 0.0
        assert g.hessian(v)[0, 1] == 5.0


class TestOuterMapChecks:
    """An ``OuterMap`` built directly is checked as its helper checks it."""

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("linear", (), "linear outer map takes"),
            ("linear", ((1.0,), 0.0, 2.0), "linear outer map takes"),
            ("linear", ((), 0.0), "^linear outer map needs at least one weight$"),
            ("product", (0,), "^product outer map needs arity >= 1$"),
            ("product", (2.7,), "^product arity must be an integer, not 2.7$"),
            ("product", (math.nan,), "^product arity must be an integer, not nan$"),
            ("product", (math.inf,), "^product arity must be an integer, not inf$"),
            ("polynomial", ((),), "^polynomial outer map needs at least one term$"),
            ("polynomial", (((1.0, (1,)), (1.0, (1, 2))),), "^all terms must share the same arity$"),
            ("polynomial", (((1.0, (-1,)),),), "^polynomial exponents must be non-negative$"),
            ("polynomial", (((1.0, (1.5,)),),), "^polynomial exponent must be an integer, not 1.5$"),
            ("sin_of_sum", ((),), "^sin_of_sum needs at least one weight$"),
            ("exp_of_sum", ((),), "^exp_of_sum needs at least one weight$"),
            ("linear", 5, "^linear outer map takes"),
            ("product", 3, "^product outer map takes"),
            ("linear", (5, 0.0), r"^linear outer map takes \(weights, offset\), not \(5, 0.0\)$"),
            ("sin_of_sum", (2.0,), r"^sin_of_sum outer map takes \(weights\), not \(2.0,\)$"),
            ("linear", ((1.0, math.nan), 0.0), "^linear outer map weights must be finite, not nan$"),
            ("linear", ((math.inf,), 0.0), "^linear outer map weights must be finite, not inf$"),
            ("linear", ((1.0,), math.nan), "^linear offset must be finite, not nan$"),
            ("linear", ((1.0,), -math.inf), "^linear offset must be finite, not -inf$"),
            ("polynomial", (((math.inf, (1,)),),), "^polynomial coefficient must be finite, not inf$"),
            ("polynomial", (((1.0, (1,)), (math.nan, (2,))),), "^polynomial coefficient must be finite, not nan$"),
            ("sin_of_sum", ((math.nan,),), "^sin_of_sum weights must be finite, not nan$"),
            ("exp_of_sum", ((1.0, -math.inf),), "^exp_of_sum weights must be finite, not -inf$"),
            ("linear", ((1.0, None), 0.0), "^linear outer map takes"),
            ("product", ("2",), "^product outer map takes"),
            ("polynomial", ((5,),), "^polynomial outer map takes"),
            ("polynomial", ([(1.0, 5)],), "^polynomial outer map takes"),
        ],
    )
    def test_refused_at_construction(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            OuterMap(kind, params)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: outer_linear((math.nan,)),
            lambda: outer_linear((1.0,), offset=math.inf),
            lambda: outer_polynomial([(math.inf, (1,))]),
            lambda: outer_sin(np.array([1.0, np.nan])),
            lambda: outer_exp([np.float32("inf")]),
        ],
        ids=["linear-weight", "linear-offset", "polynomial", "sin", "exp"],
    )
    def test_helpers_refuse_non_finite_parameters(self, build):
        with pytest.raises(ValueError, match="must be finite"):
            build()

    def test_cylinder_of_a_bad_map_raises_value_error(self):
        with pytest.raises(ValueError):
            CylinderFunction((sin_fn(),), OuterMap("linear", ()))

    def test_helper_refuses_a_fractional_arity(self):
        with pytest.raises(ValueError):
            outer_product(2.7)

    def test_built_directly_equals_the_helper(self):
        assert OuterMap("linear", ([1, np.float32(0.5)], 0)) == outer_linear((1.0, 0.5))
        assert OuterMap("product", (np.int64(2),)) == outer_product(2)
        assert OuterMap("polynomial", ([(1, [np.int64(2), 0])],)) == outer_polynomial([(1.0, (2, 0))])
        assert OuterMap("sin_of_sum", ([np.float64(2.0)],)) == outer_sin((2.0,))
        assert OuterMap("exp_of_sum", ((1,),)) == outer_exp((1.0,))

    def test_what_was_accepted_stays_accepted(self):
        assert outer_product(np.int64(3)).arity == 3
        assert outer_product(2.0).params == (2,)
        assert outer_linear([np.int64(1), 2], offset=np.float64(0.5)).params == ((1.0, 2.0), 0.5)
        g = outer_polynomial([(np.float32(0.5), [np.int64(2)]), (2, (1.0,))])
        assert g.params == (((0.5, (2,)), (2.0, (1,))),)
        assert outer_polynomial([(2.0, ())]).arity == 0


class TestLift:
    def test_value_is_exact_delta(self):
        F = standard_battery()[2]
        H = lift_to_field(F)
        m = DiscreteMeasure([0.1, 0.9], [0.5, 0.5])
        assert H.value(m, 0.3) == F.exact_delta(m, 0.3)
        assert H.linear_delta(m, 0.3, -0.2) == F.exact_delta2(m, 0.3, -0.2)

    def test_dx_matches_central_difference(self):
        h = 1e-5
        for F in standard_battery():
            H = lift_to_field(F)
            m = DiscreteMeasure([-0.6, 0.4], [0.5, 0.5])
            for x in (-0.9, 0.0, 1.1):
                fd = (H.value(m, x + h) - H.value(m, x - h)) / (2.0 * h)
                assert abs(H.dx(m, x) - fd) <= 1e-8

    def test_cylinder_json_round_trip(self):
        for F in standard_battery():
            again = cylinder_from_dict(cylinder_to_dict(F))
            assert again == F
