"""Partition-of-unity bumps, the grid discretization guarantee and the mass
screen of its checks (``util.fsum_near_one``) against ``math.fsum``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wasserstein_calculus import (
    BUMP_MODES,
    DiscreteMeasure,
    PartitionScheme,
    bump_weight,
    dirac,
    discretize,
    w1,
    random_measure,
    stream_rng,
)
from wasserstein_calculus.measures import MASS_TOL
from wasserstein_calculus.util import fsum_near_one

SUM_TOL = 1e-10


@pytest.fixture(params=BUMP_MODES)
def mode(request):
    return request.param


class TestScheme:
    def test_requires_resolution_above_bound(self):
        with pytest.raises(ValueError):
            PartitionScheme(n=1, K=1)
        with pytest.raises(ValueError):
            PartitionScheme(n=2, K=2)
        PartitionScheme(n=2, K=1)
        PartitionScheme(n=3, K=2)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            PartitionScheme(n=4, K=0)
        with pytest.raises(ValueError):
            PartitionScheme(n=4, K=1, bump_shape="cubic")

    def test_grid_layout(self):
        s = PartitionScheme(n=2, K=1)
        assert list(s.indices) == [-2, -1, 0, 1, 2]
        assert list(s.grid) == [-1.0, -0.5, 0.0, 0.5, 1.0]


class TestBumpWeight:
    def test_grid_points_get_full_weight(self, mode):
        s = PartitionScheme(n=4, K=1, bump_shape=mode)
        for k in s.indices:
            assert bump_weight(s, int(k), k / s.n) == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_at_open_support_boundary(self, mode):
        s = PartitionScheme(n=4, K=1, bump_shape=mode)
        assert bump_weight(s, 0, 1.0 / s.n) == 0.0
        assert bump_weight(s, 0, -1.0 / s.n) == 0.0

    def test_zero_outside_support(self, mode):
        s = PartitionScheme(n=4, K=1, bump_shape=mode)
        n, N = s.n, s.edge_index
        for k in range(-N + 1, N):
            for x in ((k - 1.2) / n, (k + 1.7) / n, (k - 3.0) / n):
                assert bump_weight(s, k, x) == 0.0
        # tails vanish on the wrong side and saturate beyond the edge
        assert bump_weight(s, N, (N - 1.5) / n) == 0.0
        assert bump_weight(s, N, (N + 2.0) / n) == 1.0
        assert bump_weight(s, -N, (-N + 1.5) / n) == 0.0
        assert bump_weight(s, -N, (-N - 2.0) / n) == 1.0

    def test_partition_of_unity(self, mode):
        s = PartitionScheme(n=5, K=1, bump_shape=mode)
        rng = stream_rng(11, f"pou-{mode}", 0)
        xs = rng.uniform(-s.K - 1.0, s.K + 1.0, size=1000)
        psi = s.weight_matrix(xs)
        assert np.all(psi >= 0.0)
        assert np.max(np.abs(psi.sum(axis=1) - 1.0)) <= SUM_TOL

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, mode, x):
        s = PartitionScheme(n=3, K=1, bump_shape=mode)
        with pytest.raises(ValueError, match=f"must be finite, not {x!r}"):
            bump_weight(s, 0, x)
        with pytest.raises(ValueError, match=f"must be finite, not {x!r}"):
            s.weight_matrix([0.25, x, 0.5])

    def test_out_of_range_index_rejected(self, mode):
        s = PartitionScheme(n=3, K=1, bump_shape=mode)
        with pytest.raises(ValueError):
            bump_weight(s, 4, 0.0)
        with pytest.raises(ValueError):
            bump_weight(s, -4, 0.0)


class TestDiscretize:
    def test_grid_dirac_reproduces(self, mode):
        s = PartitionScheme(n=2, K=1, bump_shape=mode)
        out = discretize(s, dirac(0.5))
        assert out.atoms == [(0.5, 1.0)]

    def test_all_grid_diracs_reproduce(self, mode):
        s = PartitionScheme(n=3, K=2, bump_shape=mode)
        for k in s.indices:
            out = discretize(s, dirac(k / s.n))
            assert out.atoms == [(k / s.n, 1.0)]

    def test_mass_preserved(self, mode):
        rng = stream_rng(11, f"mass-{mode}", 0)
        s = PartitionScheme(n=7, K=1, bump_shape=mode)
        for _ in range(20):
            m = random_measure(rng, 1.0)
            out = discretize(s, m)
            assert abs(out.total_mass - 1.0) <= SUM_TOL

    def test_output_on_grid(self, mode):
        s = PartitionScheme(n=6, K=1, bump_shape=mode)
        m = random_measure(stream_rng(11, f"grid-{mode}", 0), 1.0)
        out = discretize(s, m)
        grid = set(s.grid.tolist())
        assert all(p in grid for p in out.positions)

    def test_idempotent(self, mode):
        s = PartitionScheme(n=9, K=1, bump_shape=mode)
        for i in range(10):
            m = random_measure(stream_rng(11, f"idem-{mode}", i), 1.0)
            once = discretize(s, m)
            twice = discretize(s, once)
            assert np.array_equal(once.positions, twice.positions)
            assert np.max(np.abs(once.weights - twice.weights)) <= 1e-12

    def test_rejects_wide_support(self, mode):
        s = PartitionScheme(n=4, K=1, bump_shape=mode)
        wide = DiscreteMeasure([-1.5, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            discretize(s, wide)

    def test_boundary_atoms_allowed(self, mode):
        s = PartitionScheme(n=4, K=1, bump_shape=mode)
        edge = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        out = discretize(s, edge)
        assert out.atoms == [(-1.0, 0.5), (1.0, 0.5)]


class TestConvergenceBound:
    def test_three_over_n(self, mode):
        # spot-check of the full acceptance sweep, both K values
        for K in (1, 2):
            for n in (K + 1, 8, 23, 64):
                s = PartitionScheme(n=n, K=K, bump_shape=mode)
                for i in range(25):
                    m = random_measure(stream_rng(5, f"bound-{mode}-{K}-{n}", i), K)
                    assert w1(m, discretize(s, m)) <= 3.0 / n + 1e-10

    def test_bound_not_grossly_loose_interior(self):
        # a measure concentrated mid-cell moves about half a cell
        s = PartitionScheme(n=8, K=1)
        m = dirac(1.0 / 16.0)
        d = w1(m, discretize(s, m))
        assert 0.0 < d <= 3.0 / 8.0 + 1e-10
        assert d == pytest.approx(1.0 / 16.0, rel=1e-6)


# ------------------------------------------------------------ the mass screen


def near_one_oracle(rows, tol):
    """``abs(math.fsum(row) - 1.0) <= tol`` row by row, or the first error."""
    try:
        return [abs(math.fsum(row) - 1.0) <= tol for row in rows]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def near_one_outcomes(rows, tol):
    """``fsum_near_one`` of the rows laid flat, and as a 2-D batch when they
    are equally long: each its verdicts or its error."""
    layouts = [(np.array(sum(rows, []), dtype=float), np.repeat(np.arange(len(rows)), [len(r) for r in rows]), len(rows))]
    if len({len(r) for r in rows}) <= 1:
        layouts.append((np.array(rows, dtype=float).reshape(len(rows), -1), None, 0))
    outcomes = []
    for values, rows_of, count in layouts:
        try:
            verdicts = fsum_near_one(values, tol, rows_of, count)
            assert verdicts.dtype == bool and verdicts.shape == (len(rows),)
            outcomes.append(verdicts.tolist())
        except (ValueError, OverflowError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def row_summing_to(total, n):
    """n values whose exact sum is the float ``total`` (near one): n - 1
    copies of 2^-10 and the rest, which is exact."""
    return [total - (n - 1) * 2.0**-10] + [2.0**-10] * (n - 1)


def ulps_from(x, k):
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


SCREEN_TOLS = [0.0, 5e-324, 1e-15, MASS_TOL, 1e-10, 0.5, 1.0]
SPECIALS = [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.0, -0.0]


@st.composite
def screen_row(draw, tol, size):
    """A row of ``size`` values: its sum at 1 +- tol +- a few ulp, with a
    large canceling pair or not, arbitrary floats, or special values."""
    kind = draw(st.sampled_from(["near", "cancel", "special", "any"]))
    if size == 0:
        return []
    if kind == "any":
        return draw(st.lists(st.floats(width=64), min_size=size, max_size=size))
    if kind == "special":
        row = draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size))
        for i in draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=2)):
            row[i] = draw(st.sampled_from(SPECIALS))
        return row
    target = ulps_from(1.0 + draw(st.sampled_from([-1.0, 1.0])) * tol, draw(st.integers(-4, 4)))
    parts = draw(st.lists(st.floats(0.0, 1.0), min_size=size - 1, max_size=size - 1))
    rest = [p / (size * max(1.0, sum(parts))) for p in parts]
    row = rest + [target - math.fsum(rest)]  # an exact sum within an ulp of target
    if kind == "cancel" and size >= 3:
        big = draw(st.sampled_from([1e3, 1e6, 2.0**40, 1e15]))
        row[0], row[1] = row[0] + big, row[1] - big
    return draw(st.permutations(row))


@st.composite
def screen_batches(draw):
    """A tolerance and one to five rows: of 0-24 values each, or all of one
    length from 1 to 24."""
    tol = draw(st.sampled_from(SCREEN_TOLS))
    count = draw(st.integers(1, 5))
    if draw(st.booleans()):
        size = draw(st.integers(1, 24))
        sizes = [size] * count
    else:
        sizes = draw(st.lists(st.integers(0, 24), min_size=count, max_size=count))
    return tol, [draw(screen_row(tol, n)) for n in sizes]


class TestMassScreen:
    """``util.fsum_near_one`` is ``abs(math.fsum(row) - 1.0) <= tol`` of each
    row, decision for decision and error for error, in both layouts."""

    @given(screen_batches())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_verdicts_and_errors_of_math_fsum(self, batch):
        tol, rows = batch
        expected = near_one_oracle(rows, tol)
        assert all(outcome == expected for outcome in near_one_outcomes(rows, tol))

    @pytest.mark.parametrize("tol", [MASS_TOL, 1e-10])
    def test_rows_at_the_bounds(self, tol):
        """Exact sums at 1 +- tol +- k ulp, k <= 4, of 1 to 24 values, one
        row per call and all in one call."""
        rows = [
            row_summing_to(ulps_from(1.0 + sign * tol, k), n)
            for sign in (-1.0, 1.0)
            for k in range(-4, 5)
            for n in (1, 2, 12, 24)
        ]
        for row in rows:
            assert near_one_outcomes([row], tol) == [near_one_oracle([row], tol)] * 2
        padded = [row + [0.0] * (24 - len(row)) for row in rows]
        assert near_one_outcomes(padded, tol) == [near_one_oracle(rows, tol)] * 2
        assert near_one_outcomes(rows, tol) == [near_one_oracle(rows, tol)]

    def test_empty_rows_and_special_values(self):
        empty = np.zeros(0)
        assert fsum_near_one(empty, 0.5, np.zeros(0, dtype=int), 3).tolist() == [False] * 3
        assert fsum_near_one(empty, 1.0, np.zeros(0, dtype=int), 2).tolist() == [True] * 2
        assert fsum_near_one(np.zeros((0, 4)), 0.5).tolist() == []
        for rows, expected in [
            ([[math.nan, 1.0], [1.0, 0.0]], [False, True]),
            ([[math.inf, 1.0], [1.0, -0.0]], [False, True]),
            ([[1.0, 0.0], [math.inf, -math.inf]], (ValueError, "-inf + inf in fsum")),
            ([[1e308, 1e308], [1.0, 0.0]], (OverflowError, "intermediate overflow in fsum")),
            ([[5e-324, 1.0], [-5e-324, 1.0]], [True, True]),
        ]:
            assert near_one_oracle(rows, 1e-12) == expected
            assert near_one_outcomes(rows, 1e-12) == [expected] * 2
