"""Measure construction, integration, and the exact distance."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wasserstein_calculus import (
    DiscreteMeasure,
    dirac,
    mix,
    integrate,
    w1,
    kr_lower_bound,
    signed_difference,
    measure_from_dict,
    measure_from_json,
    measure_to_json,
    affine,
    identity_fn,
    lipschitz_probes,
    polynomial,
    sin_fn,
    smooth_abs,
    random_measure,
    random_point,
    stream_rng,
)

TOL = 1e-12


def w1_quantile_oracle(a, b):
    """Independent oracle: integrate |Qa - Qb| du over quantile levels.

    Uses the inverse-CDF coupling, a different formulation from the
    CDF-difference integral the library computes.
    """
    cum_a = np.cumsum(a.weights)
    cum_b = np.cumsum(b.weights)
    levels = np.unique(np.concatenate(([0.0], cum_a, cum_b, [1.0])))
    total = []
    for u0, u1 in zip(levels[:-1], levels[1:]):
        if u1 <= u0:
            continue
        umid = 0.5 * (u0 + u1)
        # cumsum can land just below 1.0; the top quantile is the last atom
        ia = min(np.searchsorted(cum_a, umid, side="left"), len(a) - 1)
        ib = min(np.searchsorted(cum_b, umid, side="left"), len(b) - 1)
        qa, qb = a.positions[ia], b.positions[ib]
        total.append(abs(qa - qb) * (u1 - u0))
    return math.fsum(total)


@st.composite
def measures(draw, max_atoms=6, bound=1.0):
    n = draw(st.integers(1, max_atoms))
    finite = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    positions = draw(st.lists(finite, min_size=n, max_size=n))
    raws = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    total = math.fsum(raws)
    return DiscreteMeasure(np.array(positions), np.array(raws) / total)


class TestConstruction:
    def test_dirac(self):
        m = dirac(0.0)
        assert m.atoms == [(0.0, 1.0)]
        assert m.total_mass == 1.0

    def test_dirac_support_bound(self):
        assert dirac(0.5).support_bound == 0.5
        assert dirac(-2.5).support_bound == 2.5

    def test_dirac_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dirac(float("inf"))
        with pytest.raises(ValueError):
            dirac(float("nan"))

    def test_sorts_positions(self):
        m = DiscreteMeasure([1.0, -1.0, 0.0], [0.2, 0.3, 0.5])
        assert list(m.positions) == [-1.0, 0.0, 1.0]
        assert list(m.weights) == [0.3, 0.5, 0.2]

    def test_merges_close_positions(self):
        m = DiscreteMeasure([0.0, 5e-13, 1.0], [0.25, 0.25, 0.5])
        assert len(m) == 2
        assert m.weights[0] == pytest.approx(0.5, abs=TOL)

    def test_drops_zero_weights(self):
        m = DiscreteMeasure([0.0, 1.0, 2.0], [0.5, 0.0, 0.5])
        assert len(m) == 2
        assert 1.0 not in m.positions

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([0.0, 1.0], [1.5, -0.5])

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([0.0, 1.0], [0.5, 0.6])

    def test_immutable(self):
        m = dirac(0.0)
        with pytest.raises(ValueError):
            m.positions[0] = 1.0


class TestMix:
    def test_identity_at_zero(self):
        assert mix(dirac(0.0), dirac(1.0), 0.0) == dirac(0.0)

    def test_quarter(self):
        m = mix(dirac(0.0), dirac(1.0), 0.25)
        assert m.atoms == [(0.0, 0.75), (1.0, 0.25)]

    def test_idempotent(self):
        m = DiscreteMeasure([-0.5, 0.25, 0.75], [0.2, 0.3, 0.5])
        for t in (0.1, 0.5, 0.9):
            assert mix(m, m, t).allclose(m, atol=TOL)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mix(dirac(0.0), dirac(1.0), 1.5)
        with pytest.raises(ValueError):
            mix(dirac(0.0), dirac(1.0), -0.1)


class TestIntegrate:
    def test_dirac_sin(self):
        assert integrate(dirac(0.0), sin_fn()) == 0.0

    def test_symmetric_identity(self):
        m = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        assert integrate(m, identity_fn()) == 0.0

    def test_weighted_sum(self):
        # direct weighted sum: 0.5*sin(0) + 0.5*sin(1)
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        assert integrate(m, sin_fn()) == pytest.approx(0.5 * math.sin(1.0), abs=TOL)

    def test_plain_callable(self):
        m = DiscreteMeasure([0.0, 2.0], [0.5, 0.5])
        assert integrate(m, lambda x: x * x) == pytest.approx(2.0, abs=TOL)

    def test_non_finite_rejected(self):
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            with np.errstate(divide="ignore"):
                integrate(m, lambda x: np.log(x))

    @given(measures(), measures(), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_linear_in_measure(self, a, b, t):
        f = sin_fn()
        lhs = integrate(mix(a, b, t), f)
        rhs = (1.0 - t) * integrate(a, f) + t * integrate(b, f)
        assert abs(lhs - rhs) <= TOL


class TestW1:
    def test_unit_move(self):
        assert w1(dirac(0.0), dirac(1.0)) == 1.0

    def test_self_distance_zero(self):
        m = DiscreteMeasure([-0.5, 0.5], [0.4, 0.6])
        assert w1(m, m) == 0.0
        assert w1(m, DiscreteMeasure([-0.5, 0.5], [0.4, 0.6])) == 0.0

    def test_split_pair(self):
        # CDF gap is 0.5 on [-1,0) and 0.5 on [0,1): total 1
        m = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        assert w1(m, dirac(0.0)) == pytest.approx(1.0, abs=TOL)

    def test_symmetry(self):
        a = DiscreteMeasure([-0.3, 0.8], [0.7, 0.3])
        b = DiscreteMeasure([-1.0, 0.1, 0.5], [0.2, 0.5, 0.3])
        assert w1(a, b) == w1(b, a)

    def test_against_quantile_oracle(self):
        for i in range(200):
            rng = stream_rng(2024, "w1-oracle", i)
            a = random_measure(rng, 2.0)
            b = random_measure(rng, 2.0)
            assert abs(w1(a, b) - w1_quantile_oracle(a, b)) <= TOL

    def test_dirac_scaling_exact(self):
        # quantile coupling makes this exact for point masses
        a, b = dirac(-0.7), dirac(1.3)
        base = w1(a, b)
        for t in (0.125, 0.5, 0.875):
            assert abs(w1(mix(a, b, t), b) - (1.0 - t) * base) <= 1e-15

    @given(measures(), measures(), measures())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_triangle_inequality(self, a, b, c):
        assert w1(a, c) <= w1(a, b) + w1(b, c) + TOL

    @given(measures(), measures(), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_mixture_contraction(self, a, b, t):
        assert w1(mix(a, b, t), b) <= (1.0 - t) * w1(a, b) + TOL


class Declared:
    """A function with the Lipschitz bound and radius it declares."""

    def __init__(self, f, lipschitz_bound, lipschitz_radius=math.inf):
        self.f, self.lipschitz_bound, self.lipschitz_radius = f, lipschitz_bound, lipschitz_radius

    def __call__(self, x):
        return self.f(x)


class TestKRLowerBound:
    def test_identity_is_tight_for_diracs(self):
        v = kr_lower_bound(dirac(1.0), dirac(0.0), identity_fn())
        assert v == w1(dirac(1.0), dirac(0.0)) == 1.0

    def test_zero_on_equal(self):
        m = DiscreteMeasure([-0.2, 0.4], [0.5, 0.5])
        assert kr_lower_bound(m, m, sin_fn()) == 0.0

    def test_smooth_abs_below_w1(self):
        a = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        b = dirac(0.0)
        assert kr_lower_bound(a, b, smooth_abs(0.1)) <= w1(a, b) + TOL

    def test_rejects_steep_functions(self):
        with pytest.raises(ValueError):
            kr_lower_bound(dirac(0.0), dirac(1.0), affine(2.0, 0.0))
        with pytest.raises(ValueError):
            kr_lower_bound(dirac(0.0), dirac(1.0), lambda x: x)

    def test_rejects_atoms_outside_bound_interval(self):
        # 0.05 x^2 has Lipschitz bound 1 on [-10, 10] only; at 30 and 20 the
        # pairing would read 25 against a distance of 10
        f = polynomial((0.0, 0.0, 0.05))
        assert f.lipschitz_bound == 1.0
        assert kr_lower_bound(dirac(10.0), dirac(-10.0), f) == 0.0
        with pytest.raises(ValueError):
            kr_lower_bound(dirac(30.0), dirac(20.0), f)
        with pytest.raises(ValueError):
            kr_lower_bound(dirac(0.0), DiscreteMeasure([-10.5, 1.0], [0.5, 0.5]), f)

    @pytest.mark.parametrize(
        "f, a, b",
        [
            # a slope of 5 would read 5.0 at a distance of 1
            (Declared(affine(5.0, 0.0), math.nan), dirac(1.0), dirac(0.0)),
            # bound 1 on [-10, 10] only: 124.95 at a distance of 49
            (Declared(polynomial((0.0, 0.0, 0.05)), 1.0, math.nan), dirac(50.0), dirac(1.0)),
        ],
        ids=["nan-bound", "nan-radius"],
    )
    def test_rejects_a_nan_bound_or_radius(self, f, a, b):
        """NaN fails every comparison, so it must not pass for a bound."""
        with pytest.raises(ValueError, match="Lipschitz"):
            kr_lower_bound(a, b, f)

    @given(measures(), measures())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_never_exceeds_w1(self, a, b):
        d = w1(a, b)
        for f in lipschitz_probes():
            assert kr_lower_bound(a, b, f) <= d + TOL


class TestSignedDifference:
    def test_cancels_exactly(self):
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        pos, sw = signed_difference(m, m)
        assert pos.size == 0

    def test_dirac_pair(self):
        pos, sw = signed_difference(dirac(1.0), dirac(0.0))
        assert list(pos) == [0.0, 1.0]
        assert list(sw) == [-1.0, 1.0]

    def test_total_signed_mass_zero(self):
        rng = stream_rng(7, "signed-diff", 0)
        a = random_measure(rng, 1.0)
        b = random_measure(rng, 1.0)
        _, sw = signed_difference(a, b)
        assert abs(math.fsum(sw.tolist())) <= TOL


class TestJson:
    def test_round_trip(self):
        m = DiscreteMeasure([-0.5, 0.25], [0.4, 0.6])
        again = measure_from_json(measure_to_json(m))
        assert again == m

    def test_positions_ascending_in_output(self):
        m = DiscreteMeasure([0.9, -0.9], [0.5, 0.5])
        data = json.loads(measure_to_json(m))
        positions = [p for p, _ in data["atoms"]]
        assert positions == sorted(positions)

    def test_renormalizes_small_defect(self):
        text = json.dumps({"atoms": [[0.0, 0.5 + 2e-10], [1.0, 0.5]]})
        m = measure_from_json(text)
        assert abs(m.total_mass - 1.0) <= TOL

    def test_rejects_large_defect(self):
        text = json.dumps({"atoms": [[0.0, 0.5], [1.0, 0.6]]})
        with pytest.raises(ValueError):
            measure_from_json(text)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            measure_from_json(json.dumps({"atoms": []}))
        with pytest.raises(ValueError):
            measure_from_json(json.dumps({"atoms": [[0.0, 0.5, 0.5]]}))
        with pytest.raises(ValueError):
            measure_from_json(json.dumps({"nope": 1}))
        with pytest.raises(ValueError):
            measure_from_json(json.dumps({"atoms": [[0.0, -0.5], [1.0, 1.5]]}))


    @pytest.mark.parametrize(
        "atoms",
        [
            [(0.0, 0.25), (1.5, 0.75)],
            [[0, 0.25], [1.5, 0.75]],
            [[np.int64(0), np.float32(0.25)], (np.float64(1.5), 0.75)],
        ],
        ids=["tuples", "int-leaf", "numpy-leaves"],
    )
    def test_python_atoms_load_as_float_lists(self, atoms):
        """Tuple atoms, int leaves and numpy numbers give the bits of the
        lists of floats they stand for."""
        m = measure_from_dict({"atoms": atoms})
        expected = measure_from_dict({"atoms": [[0.0, 0.25], [1.5, 0.75]]})
        assert m.positions.tobytes() == expected.positions.tobytes()
        assert m.weights.tobytes() == expected.weights.tobytes()


    @pytest.mark.parametrize("atoms", [[[0.0, 1.0, 5.0]], [[1.0]], [1.0], [[0.0, 0.5], (1.0, 0.5, 0.0)]])
    def test_rejects_atoms_that_are_not_pairs(self, atoms):
        with pytest.raises(ValueError, match="pairs"):
            measure_from_dict({"atoms": atoms})

    @pytest.mark.parametrize(
        "atom, what",
        [([math.nan, 1.0], "position"), ([0.5, math.inf], "weight"), ((0.5, "1"), "weight"), ([True, 1.0], "position")],
    )
    def test_leaf_errors_name_the_leaf(self, atom, what):
        with pytest.raises(ValueError, match=f"atom {what} must be a finite number"):
            measure_from_dict({"atoms": [atom]})


class TestSamplingBounds:
    """A sampling box [-K, K] needs a finite K >= 0 whose width 2K is finite."""

    @pytest.mark.parametrize("K", [math.inf, -math.inf, math.nan, 1e308, -1.0])
    def test_rejects_bad_half_width(self, K):
        with pytest.raises(ValueError, match="K"):
            random_measure(stream_rng(0, "bounds", 0), K)
        with pytest.raises(ValueError, match="K"):
            random_point(stream_rng(0, "bounds", 0), K)

    @pytest.mark.parametrize("K", [0.0, 1.0, 8.9e307])
    def test_accepts_finite_width(self, K):
        rng = stream_rng(0, "bounds", 0)
        assert random_measure(rng, K).support_bound <= K
        assert abs(random_point(rng, K)) <= K
