"""Partition-of-unity bumps and the grid discretization guarantee."""

import math

import numpy as np
import pytest

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
