"""Vectorised exact core against loop references and rational oracles.

The loop references are the library's former sequential implementations:
the Neumaier running sum, the former validating constructor with its
per-group atom merge (and the merge of ``signed_difference``), the dense
partition-of-unity weight matrix, the per-node segment quadrature (one
``mix`` and one field evaluation per Gauss node), the per-measure
``discretize`` and ``w1`` that criterion 1 called once per measure, the
per-step difference quotients (one ``mix`` per step), the per-call
cylinder derivatives (one moment pass per call) and the per-point outer-map
value, gradient and Hessian, with the criterion 2, 4, 7 and 8 loops and the
per-draw ``uniform_dawson_modulus`` built on them (criterion 8 on
``integrate`` pairs per probe and ``w1`` per pair), the per-draw
antiderivative and quotient loops of criteria 5 and 6 and ``ftc_check``
(each segment of a padded block alone on the node loop), and the former
sampled draws (a ``dirichlet`` weight draw), which
``random_measure`` and every value ``random_draws`` yields must reproduce. The vectorised code must reproduce the loops bit
for bit (and the private trusted constructor the validating one), and the
banded grid weights must match the dense reference within ``GRID_TOL``. The rational
oracles recompute ``w1`` and ``linear_hat`` discretization exactly with
``fractions.Fraction`` on dyadic inputs. The exact sums ``util.fsum``
and ``util.fsum_rows`` must give the bits and errors of ``math.fsum``, row
by row, and measures and rows wider than their cutoffs must still match the
former constructor, per-pair ``w1`` and per-measure ``discretize``.
"""

import contextlib
import math
import re
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wasserstein_calculus import (
    BASE_POINT,
    affine,
    BUMP_MODES,
    CylinderFunction,
    DerivativeField,
    DiscreteMeasure,
    PartitionScheme,
    antiderivative,
    canonicalize,
    cos_fn,
    counterexample_field,
    dawson,
    dawson_each,
    dawson_extrapolated,
    dawson_extrapolated_each,
    dawson_rows,
    dirac,
    discretize,
    discretize_rows,
    gaussian,
    integrate,
    integrate_each,
    kr_lower_bound,
    kr_lower_bound_rows,
    lift_to_field,
    lipschitz_probes,
    measure_from_dict,
    mix,
    outer_exp,
    outer_linear,
    outer_polynomial,
    outer_product,
    outer_sin,
    polynomial,
    segment_integral,
    segment_integral_each,
    signed_difference,
    sin_fn,
    smooth_abs,
    standard_battery,
    tanh_fn,
    uniform_dawson_modulus,
    w1,
    w1_rows,
    zero_field,
)
from wasserstein_calculus import acceptance as acceptance_module
from wasserstein_calculus import ftc as ftc_module
from wasserstein_calculus.acceptance import (
    MEASURES_PER_CASE,
    check_canonical_normalization,
    check_counterexample,
    check_dawson_linear,
    check_ftc_soundness,
    check_metric_properties,
    check_second_derivative_symmetry,
    discretization_case,
)
from wasserstein_calculus.derivative import BLOCK_VALUES, MIN_STEP, SEGMENT_BLOCK
from wasserstein_calculus.functions import CylinderDerivatives
from wasserstein_calculus.measures import JSON_MASS_TOL, MASS_TOL, MERGE_TOL, _flat_atoms, _values_at, _w1_flat, mix_rows
from wasserstein_calculus import partition as partition_module
from wasserstein_calculus.partition import GRID_SNAP, WEIGHT_FLOOR, _discretize_flat, _mollifier, _smoothstep
from wasserstein_calculus import sampling
from wasserstein_calculus.sampling import (
    _DRAW_CHUNK,
    MAX_ATOMS,
    _check_half_width,
    random_draws,
    random_measure,
    random_point,
    stream_rng,
)
from wasserstein_calculus import util as util_module
from wasserstein_calculus.util import _FSUM_BATCH_CUTOFF as BATCH_CUTOFF
from wasserstein_calculus.util import _FSUM_CUTOFF as FSUM_CUTOFF
from wasserstein_calculus.util import _FSUM_ROW_CUTOFF as ROW_CUTOFF
from wasserstein_calculus.util import canonical_json, compensated_cumsum, fsum, fsum_rows, gauss_legendre_01

# One row of more than this many values takes the bins of fsum. Fixed here,
# not read from util, so that the test ids built from it stay put.
BIN_CUTOFF = 512

# Banded against dense grid weights, absolute; fixed before measuring.
GRID_TOL = 1e-15

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


# ------------------------------------------------------------ loop references


def neumaier_loop(values) -> np.ndarray:
    out = np.empty(len(values))
    total = 0.0
    comp = 0.0
    for i, value in enumerate(values):
        v = float(value)
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out[i] = total + comp
    return out


def merge_loop(pos, w):
    """Per-group merge of sorted atoms, as construction did it."""
    if pos.size == 1 or np.all(np.diff(pos) > MERGE_TOL):
        return pos.copy(), w.copy()
    breaks = np.flatnonzero(np.diff(pos) > MERGE_TOL) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [pos.size]))
    out_p = np.empty(starts.size)
    out_w = np.empty(starts.size)
    for g, (i, j) in enumerate(zip(starts, ends)):
        if j - i == 1:
            out_p[g], out_w[g] = pos[i], w[i]
            continue
        ww = math.fsum(w[i:j].tolist())
        out_w[g] = ww
        if pos[j - 1] == pos[i]:
            out_p[g] = pos[i]
        elif ww > 0.0:
            out_p[g] = math.fsum((pos[i:j] * w[i:j]).tolist()) / ww
        else:
            out_p[g] = float(pos[i:j].mean())
    return out_p, out_w


def construct_loop(positions, weights):
    """The former ``DiscreteMeasure.__post_init__``, every check and message
    included, with the per-group merge loop; returns the stored arrays."""
    pos = np.asarray(positions, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if pos.size == 0 or pos.shape != w.shape:
        raise ValueError("positions and weights must be equal-length and non-empty")
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(w))):
        raise ValueError("positions and weights must be finite")
    if np.any(w < 0.0):
        raise ValueError("weights must be non-negative")
    total = math.fsum(w.tolist())
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    order = np.argsort(pos, kind="stable")
    pos, w = merge_loop(pos[order], w[order])
    keep = w > 0.0
    pos, w = pos[keep], w[keep]
    if pos.size == 0:
        raise ValueError("measure has no atom with positive weight")
    return pos, w


def signed_difference_loop(a, b):
    pos = np.concatenate((a.positions, b.positions))
    signed = np.concatenate((a.weights, -b.weights))
    order = np.argsort(pos, kind="stable")
    pos, signed = pos[order], signed[order]
    breaks = np.flatnonzero(np.diff(pos) > MERGE_TOL) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [pos.size]))
    out_p = np.empty(starts.size)
    out_w = np.empty(starts.size)
    for g, (i, j) in enumerate(zip(starts, ends)):
        if j - i == 1:
            out_p[g], out_w[g] = pos[i], signed[i]
        else:
            out_p[g] = pos[i] if pos[j - 1] == pos[i] else float(pos[i:j].mean())
            out_w[g] = math.fsum(signed[i:j].tolist())
    keep = out_w != 0.0
    return out_p[keep], out_w[keep]


def dense_weight_matrix(scheme, xs) -> np.ndarray:
    """Every bump at every point: the full (len(xs), 2nK+1) evaluation."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    u = scheme.n * xs[:, None] - scheme.indices[None, :]
    nearest = np.rint(u)
    snap = np.abs(u - nearest) <= GRID_SNAP
    u = np.where(snap, nearest, u)
    N = scheme.edge_index
    if scheme.bump_shape == "smooth_bump":
        raw = _mollifier(u)
        raw[:, 0] = _smoothstep((-N + 1) - scheme.n * xs)
        raw[:, -1] = _smoothstep(scheme.n * xs - (N - 1))
    else:
        raw = np.clip(1.0 - np.abs(u), 0.0, None)
        raw[:, 0] = np.clip((-N + 1) - scheme.n * xs, 0.0, 1.0)
        raw[:, -1] = np.clip(scheme.n * xs - (N - 1), 0.0, 1.0)
    totals = raw.sum(axis=1)
    return raw / totals[:, None]


def dense_chunks(scheme, xs, rows=256):
    """(start, dense rows) in blocks, so large grids stay small in memory."""
    for i in range(0, len(xs), rows):
        yield i, dense_weight_matrix(scheme, xs[i : i + rows])


def discretize_one(scheme, m):
    """The former per-measure ``discretize``: one band and one bincount."""
    if m.support_bound > scheme.K:
        raise ValueError("support outside [-K, K]")
    cols, band = scheme._band(m.positions)
    weights = np.bincount(
        (cols[:, None] + np.array([0, 1])).ravel(),
        (m.weights[:, None] * band).ravel(),
        minlength=scheme.indices.size,
    )
    assert abs(math.fsum(weights.tolist()) - 1.0) <= 1e-10
    keep = weights > WEIGHT_FLOOR
    kept = weights[keep]
    return DiscreteMeasure(scheme.grid[keep], kept / math.fsum(kept.tolist()))


def w1_one(a, b) -> float:
    """The former per-pair ``w1``, with the Neumaier loop for the running sums."""
    pos = np.concatenate((a.positions, b.positions))
    signed = np.concatenate((a.weights, -b.weights))
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    cdf_gap = neumaier_loop(signed[order])
    return math.fsum((np.abs(cdf_gap[:-1]) * np.diff(pos)).tolist())


def discretization_case_loop(seed, K, n):
    """Criterion 1's former per-measure loop for one (K, n) case."""
    schemes = {mode: PartitionScheme(n=n, K=K, bump_shape=mode) for mode in BUMP_MODES}
    bound = 3.0 / n
    violations, ratio_max, w1_smooth_max, atoms_out_max = 0, 0.0, 0.0, 0
    for i in range(MEASURES_PER_CASE):
        m = random_measure_former(stream_rng(seed, f"discretize-K{K}-n{n}", i), K)
        for mode in BUMP_MODES:
            mn = discretize_one(schemes[mode], m)
            dist = w1_one(m, mn)
            if dist > bound + 1e-10:
                violations += 1
            ratio_max = max(ratio_max, dist * n / 3.0)
            if mode == "smooth_bump":
                w1_smooth_max = max(w1_smooth_max, dist)
                atoms_out_max = max(atoms_out_max, len(mn))
    return {
        "K": K,
        "n": n,
        "w1_bound": bound,
        "w1_actual": w1_smooth_max,
        "atoms_out": atoms_out_max,
        "violations": violations,
        "ratio_max": ratio_max,
    }


def discretize_dense(scheme, m):
    weights = sum(m.weights[i : i + psi.shape[0]] @ psi for i, psi in dense_chunks(scheme, m.positions))
    keep = weights > WEIGHT_FLOOR
    kept = weights[keep]
    return scheme.grid[keep], kept / math.fsum(kept.tolist())


# ------------------------------------------------------------ input strategies

# mantissa x 10^e, e in [-30, 30], plus both zeros
mixed_floats = st.one_of(
    st.builds(
        lambda m, e: m * 10.0**e,
        st.floats(-10.0, 10.0, allow_nan=False),
        st.integers(-30, 30),
    ),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300]),
)

BASES = (-2.5, -1.0, -0.1, 0.0, 1e-13, 0.1, 1.0 / 3.0, 1.0, 1e3)
# 0 makes exact coincidences, the sub-MERGE_TOL steps make chains of any
# length, 2e-12 ends a chain just past the tolerance
STEPS = (0.0, 0.0, 3e-13, 6e-13, MERGE_TOL, 2e-12, 0.25)
RAWS = (0.0, 0.0, 1e-18, 1e-9, 0.3, 1.0, 7.0)


@st.composite
def clustered_positions(draw, max_clusters=5, max_run=5):
    positions = []
    for _ in range(draw(st.integers(1, max_clusters))):
        x = draw(st.sampled_from(BASES))
        for _ in range(draw(st.integers(1, max_run))):
            positions.append(x)
            x += draw(st.sampled_from(STEPS))
    return draw(st.permutations(positions))


@st.composite
def clustered_atoms(draw):
    """Positions with coincidences and chains; weights of mixed magnitude,
    zeros included, normalized to unit mass."""
    positions = draw(clustered_positions())
    raws = draw(st.lists(st.sampled_from(RAWS), min_size=len(positions), max_size=len(positions)))
    raws[draw(st.integers(0, len(raws) - 1))] = 1.0  # at least one positive atom
    return np.array(positions), np.array(raws) / math.fsum(raws)


@st.composite
def dyadic_measure(draw, positions):
    """Weights in multiples of 1/16 summing to exactly one."""
    cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=len(positions) - 1, max_size=len(positions) - 1)))
    parts = np.diff([0] + cuts + [16])
    if not np.any(parts):
        parts[0] = 16
    return DiscreteMeasure(np.array(positions, dtype=float), parts / 16.0)


@st.composite
def difference_pairs(draw):
    """Two measures whose atoms coincide or chain within MERGE_TOL; with
    weights in sixteenths, coinciding atoms often cancel exactly."""
    pos_a = draw(clustered_positions(max_clusters=4, max_run=2))
    offsets = st.sampled_from([0.0, 0.0, 0.0, 6e-13, -6e-13, 0.5])
    pos_b = [p + draw(offsets) for p in pos_a[: draw(st.integers(1, len(pos_a)))]]
    return draw(dyadic_measure(pos_a)), draw(dyadic_measure(pos_b))


# ------------------------------------------------------------ bit equality with the loops


class TestCompensatedCumsum:
    @given(st.lists(mixed_floats, min_size=1, max_size=80))
    @SETTINGS
    @example([-0.0, -0.0, 1.0, -1.0, -0.0])
    @example([1e30, 1.0, -1e30, 1e-30])
    def test_bit_identical_to_neumaier_loop(self, values):
        assert same_bits(compensated_cumsum(np.array(values)), neumaier_loop(values))

    def test_long_input_bit_identical(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(200_000) * 10.0 ** rng.uniform(-30, 30, 200_000)
        assert same_bits(compensated_cumsum(values), neumaier_loop(values))

    def test_empty(self):
        assert compensated_cumsum(np.array([])).size == 0


class TestAtomGrouping:
    @given(clustered_atoms())
    @SETTINGS
    def test_construction_bit_identical_to_merge_loop(self, atoms):
        pos, w = atoms
        m = DiscreteMeasure(pos, w)
        ref_p, ref_w = construct_loop(pos, w)
        assert same_bits(m.positions, ref_p)
        assert same_bits(m.weights, ref_w)

    @given(clustered_atoms(), clustered_atoms(), st.sampled_from([0.25, 0.5, 1.0 / 3.0]))
    @SETTINGS
    def test_mix_bit_identical_to_merge_loop(self, a, b, t):
        a, b = DiscreteMeasure(*a), DiscreteMeasure(*b)
        mixed = mix(a, b, t)
        ref_p, ref_w = construct_loop(
            np.concatenate((a.positions, b.positions)),
            np.concatenate(((1.0 - t) * a.weights, t * b.weights)),
        )
        assert same_bits(mixed.positions, ref_p)
        assert same_bits(mixed.weights, ref_w)

    @given(difference_pairs())
    @SETTINGS
    def test_signed_difference_bit_identical_to_loop(self, pair):
        a, b = pair
        pos, signed = signed_difference(a, b)
        ref_p, ref_w = signed_difference_loop(a, b)
        assert same_bits(pos, ref_p)
        assert same_bits(signed, ref_w)

    def test_chain_of_three_and_zero_weight_group(self):
        pos = np.array([0.0, 6e-13, 1.2e-12, 0.5, 0.5 + 5e-13, 1.0])
        w = np.array([0.25, 0.25, 0.125, 0.0, 0.0, 0.375])
        m = DiscreteMeasure(pos, w)
        ref_p, ref_w = construct_loop(pos, w)
        assert len(m) == 2
        assert same_bits(m.positions, ref_p) and same_bits(m.weights, ref_w)

    def test_negative_zero_moment(self):
        # both products are -0.0; fsum of them is +0.0
        pos = np.array([-5e-13, -0.0, 1.0])
        w = np.array([0.0, 0.5, 0.5])
        ref_p, ref_w = construct_loop(pos, w)
        m = DiscreteMeasure(pos, w)
        assert same_bits(m.positions, ref_p) and same_bits(m.weights, ref_w)

    def test_exact_cancellation_dropped(self):
        a = DiscreteMeasure([0.0, 0.5, 1.0], [0.25, 0.5, 0.25])
        b = DiscreteMeasure([0.0, 0.5 + 6e-13, 1.0], [0.5, 0.5, 0.0])
        pos, signed = signed_difference(a, b)
        assert list(pos) == [0.0, 1.0]
        assert list(signed) == [-0.25, 0.25]


# ------------------------------------------------------------ banded against dense


def grid_points(scheme):
    """Grid points, points within GRID_SNAP of them, edge cells, and +-K."""
    n, K, N = scheme.n, scheme.K, scheme.edge_index
    k = np.arange(-N, N + 1)
    near = GRID_SNAP / n
    return np.concatenate(
        (
            k / n,
            k / n + 0.5 * near,
            k / n - 0.5 * near,
            k / n + 2.0 * near,
            (-N + np.array([0.01, 0.5, 0.99])) / n,
            (N - np.array([0.01, 0.5, 0.99])) / n,
            [-K, K, -K - 1.5, K + 1.5],
        )
    )


SCHEMES = [
    PartitionScheme(n=n, K=K, bump_shape=mode)
    for mode in BUMP_MODES
    for n, K in ((2, 1), (3, 2), (256, 2), (1024, 1))
]


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: f"{s.bump_shape}-n{s.n}-K{s.K}")
class TestBandedGridWeights:
    def test_weight_matrix_matches_dense(self, scheme):
        rng = np.random.default_rng(scheme.n)
        xs = np.concatenate((grid_points(scheme), rng.uniform(-scheme.K, scheme.K, 500)))
        for i, dense in dense_chunks(scheme, xs):
            band = scheme.weight_matrix(xs[i : i + dense.shape[0]])
            assert band.shape == dense.shape
            assert np.max(np.abs(band - dense)) <= GRID_TOL

    def test_discretize_matches_dense(self, scheme):
        rng = np.random.default_rng(scheme.n + 1)
        K = scheme.K
        for xs in (grid_points(scheme), rng.uniform(-K, K, 2000)):
            xs = xs[np.abs(xs) <= K]
            m = DiscreteMeasure(xs, rng.dirichlet(np.ones(xs.size)))
            out = discretize(scheme, m)
            ref_p, ref_w = discretize_dense(scheme, m)
            assert np.array_equal(out.positions, ref_p)
            assert np.max(np.abs(out.weights - ref_w)) <= GRID_TOL

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_random_points_match_dense(self, scheme, xs):
        xs = np.array(xs) * scheme.K
        assert np.max(np.abs(scheme.weight_matrix(xs) - dense_weight_matrix(scheme, xs))) <= GRID_TOL


# ------------------------------------------------------------ row-batched discretize and w1 against the per-measure loop

# Atom weights around WEIGHT_FLOOR: an atom alone on a grid point gives that
# point its own weight, so these put grid weights on both sides of the floor.
FLOOR_RAWS = (0.9e-15, 1e-15, 1.05e-15, 1.1e-15, 2e-15)
# Cell fractions where a smooth bump's share is near 1e-15 (exp(-1/(1-u^2))
# at u = 0.985 is about 2.6e-15).
FLOOR_FRACTIONS = (0.984, 0.985, 0.986)
POSITION_KINDS = ("uniform", "grid", "snap", "edge", "bound", "floor")


@st.composite
def grid_schemes(draw):
    K = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(K + 1, 64))
    return PartitionScheme(n=n, K=K, bump_shape=draw(st.sampled_from(BUMP_MODES)))


@st.composite
def grid_measure(draw, scheme):
    """1 to 12 atoms inside [-K, K]: uniform, on grid points, within
    GRID_SNAP of them, in the edge cells, at +-K, or where a bump's share is
    near WEIGHT_FLOOR; weights of mixed size, some near WEIGHT_FLOOR."""
    n, K, N = scheme.n, scheme.K, scheme.edge_index
    positions, raws = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(POSITION_KINDS))
        k = draw(st.integers(-N, N))
        if kind == "uniform":
            x = draw(st.floats(-K, K, allow_nan=False))
        elif kind == "grid":
            x = k / n
        elif kind == "snap":
            x = k / n + draw(st.sampled_from([-2.0, -0.5, 0.5, 1.0, 2.0])) * GRID_SNAP / n
        elif kind == "edge":
            f = draw(st.sampled_from([0.0, 0.01, 0.5, 0.99]))
            x = draw(st.sampled_from([-1.0, 1.0])) * (N - f) / n
        elif kind == "bound":
            x = draw(st.sampled_from([-1.0, 1.0])) * K
        else:
            x = (min(k, N - 1) + draw(st.sampled_from(FLOOR_FRACTIONS))) / n
        positions.append(min(max(x, -K), K))
        raws.append(draw(st.sampled_from(FLOOR_RAWS + (0.3, 1.0, 7.0))))
    raws[draw(st.integers(0, len(raws) - 1))] = 1.0
    return DiscreteMeasure(np.array(positions), np.array(raws) / math.fsum(raws))


@st.composite
def grid_batches(draw):
    scheme = draw(grid_schemes())
    return scheme, draw(st.lists(grid_measure(scheme), min_size=1, max_size=6))


def rows_of(measures):
    return [(m.positions, m.weights) for m in measures]


def assert_rows_match_loop(scheme, measures):
    rows = discretize_rows(scheme, measures)
    dists = w1_rows(rows_of(measures), rows)
    assert len(rows) == len(measures) and dists.shape == (len(measures),)
    for m, (positions, weights), dist in zip(measures, rows, dists):
        ref = discretize_one(scheme, m)
        assert same_bits(positions, ref.positions) and same_bits(weights, ref.weights)
        assert same_bits(dist, w1_one(m, ref))
        one = discretize(scheme, m)
        assert same_bits(one.positions, ref.positions) and same_bits(one.weights, ref.weights)
        assert same_bits(w1(m, one), dist)


class TestRowBatches:
    @given(grid_batches())
    @SETTINGS
    def test_discretize_and_w1_rows_bit_identical_to_loop(self, batch):
        assert_rows_match_loop(*batch)

    @pytest.mark.parametrize("mode", BUMP_MODES)
    def test_long_row_among_short_ones(self, mode):
        scheme = PartitionScheme(n=64, K=2, bump_shape=mode)
        rng = np.random.default_rng(11)
        xs = np.concatenate((rng.uniform(-2.0, 2.0, 12_000), scheme.grid))
        long = DiscreteMeasure(xs, rng.dirichlet(np.ones(xs.size)))
        assert_rows_match_loop(scheme, [dirac(0.5), long, DiscreteMeasure([-2.0, 1.0 / 64], [0.25, 0.75])])

    @pytest.mark.parametrize("mode", BUMP_MODES)
    def test_weights_straddling_floor(self, mode):
        scheme = PartitionScheme(n=4, K=1, bump_shape=mode)
        # alone on its grid point, an atom gives that point exactly its weight
        below, at, above = 0.9e-15, WEIGHT_FLOOR, 1.1e-15
        m = DiscreteMeasure([-0.5, -0.25, 0.25, 0.5], [below, at, above, 1.0 - below - at - above])
        (positions, weights), = discretize_rows(scheme, [m])
        assert list(positions) == [0.25, 0.5]  # weights at or below the floor are dropped
        assert_rows_match_loop(scheme, [m, dirac(0.25)])

    @given(st.lists(st.tuples(clustered_atoms(), clustered_atoms()), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_w1_rows_of_any_pairs(self, pairs):
        a = [DiscreteMeasure(*p) for p, _ in pairs]
        b = [DiscreteMeasure(*q) for _, q in pairs]
        dists = w1_rows(rows_of(a), rows_of(b))
        for x, y, d in zip(a, b, dists):
            assert same_bits(d, w1_one(x, y))
            assert same_bits(w1(x, y), d)

    def test_empty_batches(self):
        scheme = PartitionScheme(n=2, K=1)
        assert discretize_rows(scheme, []) == []
        assert w1_rows([], []).size == 0

    def test_every_row_is_checked(self):
        scheme = PartitionScheme(n=4, K=1)
        with pytest.raises(ValueError, match="exceeds the scheme bound"):
            discretize_rows(scheme, [dirac(0.0), dirac(1.5), dirac(0.5)])

    @pytest.mark.parametrize("K, n", [(1, 2), (2, 37), (1, 64)])
    def test_criterion_1_cases_match_loop(self, K, n):
        case = discretization_case(0, K, n)
        assert canonical_json(case) == canonical_json(discretization_case_loop(0, K, n))


# ------------------------------------------------------------ flat layouts against the measures alone


def discretize_rows_former(scheme, measures):
    """The former ``discretize_rows``: support bounds per measure, one
    bincount, then one verdict and one output pair per row in a loop."""
    measures = list(measures)
    if not measures:
        return []
    for m in measures:
        if m.support_bound > scheme.K:
            raise ValueError(f"measure support bound {m.support_bound:g} exceeds the scheme bound K={scheme.K}")
    size = scheme.indices.size
    cols, band = scheme._band(np.concatenate([m.positions for m in measures]))
    cols += np.repeat(np.arange(len(measures)) * size, [len(m) for m in measures])
    masses = np.concatenate([m.weights for m in measures])
    grid_weights = np.bincount(
        (cols[:, None] + np.array([0, 1])).ravel(), (masses[:, None] * band).ravel(), minlength=len(measures) * size
    ).reshape(len(measures), size)
    rows, cols = np.nonzero(grid_weights)
    values = grid_weights[rows, cols]
    totals = partition_module.fsum_rows(values, rows, len(measures))
    keep = values > WEIGHT_FLOOR
    rows, kept = rows[keep], values[keep]
    kept /= np.array(partition_module.fsum_rows(kept, rows, len(measures)))[rows]
    kept_masses = partition_module.fsum_rows(kept, rows, len(measures))
    ends = np.cumsum(np.bincount(rows, minlength=len(measures))).tolist()
    positions = scheme.grid[cols[keep]]
    out = []
    for total, mass, a, b in zip(totals, kept_masses, [0] + ends[:-1], ends):
        if abs(total - 1.0) > 1e-10:
            raise RuntimeError(f"partition of unity leaked mass: total {total!r}")
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"weights sum to {mass!r}, not 1")
        out.append((positions[a:b], kept[a:b]))
    return out


@st.composite
def flat_batches(draw):
    """A scheme and none to six measures inside its bound."""
    scheme = draw(grid_schemes())
    return scheme, draw(st.lists(grid_measure(scheme), max_size=6))


def flat_rows(layout):
    """The (positions, weights) rows of a flat layout."""
    positions, weights, rows, count = layout
    ends = np.cumsum(np.bincount(rows, minlength=count)).tolist()
    return [(positions[a:b], weights[a:b]) for a, b in zip([0] + ends[:-1], ends)]


# How a row of a batch goes bad: an atom beyond the scheme bound, a mass
# that leaks from the partition of unity, or kept weights whose mass is off
# (planted in the third row sum, which only a tampered sum can make).
BAD_ROWS = ("good", "outside", "leak", "mass")


def tampered_mass_sums(bad):
    """Patch ``partition.fsum_rows`` so that every third call, the kept
    weights' masses, reads 1.5 in the rows of ``bad``."""
    calls = []

    def tampered(values, rows=None, count=0):
        out = fsum_rows(values, rows, count)
        calls.append(count)
        return [1.5 if len(calls) % 3 == 0 and r in bad else v for r, v in enumerate(out)]

    return mock.patch.object(partition_module, "fsum_rows", tampered)


def discretize_outcome(discretize_batch, scheme, measures, bad_mass):
    """The rows' bits, or the error's type and message."""
    with tampered_mass_sums(bad_mass):
        try:
            rows = discretize_batch(scheme, measures)
        except (ValueError, RuntimeError) as exc:
            return type(exc), str(exc)
    return [(positions.tobytes(), weights.tobytes()) for positions, weights in rows]


class TestFlatLayouts:
    @given(flat_batches())
    @SETTINGS
    def test_rows_are_the_measures_alone(self, batch):
        scheme, measures = batch
        layout = _flat_atoms((m.positions, m.weights) for m in measures)
        grid = _discretize_flat(scheme, *layout)
        dists = _w1_flat(layout, grid)
        assert grid[3] == len(measures) and dists.shape == (len(measures),)
        for m, (positions, weights), dist in zip(measures, flat_rows(grid), dists):
            one, ref = discretize(scheme, m), discretize_one(scheme, m)
            for stored in (one, ref):
                assert same_bits(positions, stored.positions) and same_bits(weights, stored.weights)
            assert same_bits(dist, w1(m, one)) and same_bits(dist, w1_one(m, ref))

    @given(st.lists(st.tuples(clustered_atoms(), clustered_atoms()), max_size=6))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_w1_of_rows_of_unequal_length(self, pairs):
        a = [DiscreteMeasure(*p) for p, _ in pairs]
        b = [DiscreteMeasure(*q) for _, q in pairs]
        dists = _w1_flat(*(_flat_atoms((m.positions, m.weights) for m in ms) for ms in (a, b)))
        assert dists.shape == (len(pairs),)
        for x, y, d in zip(a, b, dists):
            assert same_bits(d, w1(x, y)) and same_bits(d, w1_one(x, y))

    @given(flat_batches(), st.lists(st.sampled_from(BAD_ROWS), min_size=6, max_size=6))
    @SETTINGS
    def test_first_bad_row_raises_the_former_error(self, batch, kinds):
        scheme, measures = batch
        rows = []
        for m, kind in zip(measures, kinds):
            if kind == "outside":
                m = DiscreteMeasure._trusted(np.append(m.positions[:-1], scheme.K + 0.25), m.weights)
            elif kind == "leak":
                m = DiscreteMeasure._trusted(m.positions, m.weights * 0.5)
            rows.append(m)
        bad_mass = {r for r, kind in enumerate(kinds) if kind == "mass"}
        former = discretize_outcome(discretize_rows_former, scheme, rows, bad_mass)
        assert discretize_outcome(discretize_rows, scheme, rows, bad_mass) == former

    def test_every_kind_of_bad_row_is_reached(self):
        scheme = PartitionScheme(n=4, K=1)
        good, leak = dirac(0.5), DiscreteMeasure._trusted(np.array([0.25]), np.array([0.5]))
        outside = DiscreteMeasure._trusted(np.array([0.0, 1.5]), np.array([0.5, 0.5]))
        cases = [
            ([good, leak, outside], set(), (ValueError, "measure support bound 1.5 exceeds the scheme bound K=1")),
            ([good, good, leak], {1}, (ValueError, "weights sum to 1.5, not 1")),
            ([good, leak, good], {1, 2}, (RuntimeError, "partition of unity leaked mass: total 0.5")),
        ]
        for rows, bad_mass, error in cases:
            assert discretize_outcome(discretize_rows, scheme, rows, bad_mass) == error
            assert discretize_outcome(discretize_rows_former, scheme, rows, bad_mass) == error


# ------------------------------------------------------------ the validating and the trusted constructor

CONSTRUCTOR_KINDS = ("valid", "nonfinite", "negative", "mass", "signed-zero", "shape", "empty")
# weight totals near MASS_TOL, in its units; the largest is far outside
MASS_SCALES = (-2.0, -1.01, -1.0, -0.99, 0.5, 0.99, 1.0, 1.01, 2.0, 1e6)


@st.composite
def constructor_inputs(draw):
    """Positions and weights as a caller may pass them: clustered atoms
    (coincidences, MERGE_TOL chains, zero weights) made invalid in one way or
    not, as arrays, lists or columns."""
    pos, w = draw(clustered_atoms())
    kind = draw(st.sampled_from(CONSTRUCTOR_KINDS))
    i = draw(st.integers(0, pos.size - 1))
    if kind == "nonfinite":
        (pos if draw(st.booleans()) else w)[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "negative":
        w[i] = -draw(st.sampled_from([5e-324, 1e-18, 0.25]))
    elif kind == "mass":
        w = w * (1.0 + draw(st.sampled_from(MASS_SCALES)) * MASS_TOL)
    elif kind == "signed-zero":
        w[w == 0.0] = -0.0
    elif kind == "shape":
        w = w[:-1] if draw(st.booleans()) else np.append(w, 0.0)
    elif kind == "empty":
        pos, w = pos[:0], w[:0]
    form = draw(st.sampled_from(["array", "list", "column"]))
    if form == "list":
        return pos.tolist(), w.tolist()
    if form == "column":
        return pos[:, None], w[:, None]
    return pos, w


def outcome(build, pos, w):
    """The stored arrays' bits, or the exception's type and message."""
    try:
        positions, weights = build(pos, w)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return positions.shape, positions.tobytes(), weights.tobytes()


def stored(pos, w):
    m = DiscreteMeasure(pos, w)
    assert not (m.positions.flags.writeable or m.weights.flags.writeable)
    assert same_bits(m.total_mass, math.fsum(m.weights.tolist()))
    return m.positions, m.weights


# point masses: both zeros, subnormals, the largest doubles, ordinary points
dirac_points = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1.7e308, -1.7e308, 1.7976931348623157e308, -1.5]
) | st.floats(allow_nan=False, allow_infinity=False)


def assert_same_measure(trusted, validated):
    assert type(trusted) is DiscreteMeasure
    assert same_bits(trusted.positions, validated.positions)
    assert same_bits(trusted.weights, validated.weights)
    assert same_bits(trusted.total_mass, validated.total_mass)
    assert not (trusted.positions.flags.writeable or trusted.weights.flags.writeable)


class TestConstruction:
    @given(constructor_inputs())
    @SETTINGS
    @example(([0.0, 0.5], [0.5, 0.5 + 1.01 * MASS_TOL]))
    @example(([0.0, 0.5], [0.5, 0.5 + 0.99 * MASS_TOL]))
    @example(([0.0, math.nan], [0.5, 0.5]))
    @example(([0.0, 0.5], [1.0, -0.0]))
    # the screen's edges: zero weights, NaN sorting last and -inf first,
    # weights whose fsum fails or overflows, masses exactly at +-MASS_TOL
    @example(([0.0, 0.5], [1.0, 0.0]))
    @example(([0.5, 0.0, 0.5], [0.5, -0.0, 0.5]))
    @example(([0.0, 0.0], [0.0, 1.0]))
    @example(([math.nan, 0.0], [0.5, 0.5]))
    @example(([0.5, -math.inf], [0.5, 0.5]))
    @example(([math.inf, 0.5], [0.5, 0.5]))
    @example(([0.0, 0.5], [math.inf, -math.inf]))
    @example(([0.0, 0.5], [math.nan, 1.0]))
    @example(([0.0, 0.5], [1e308, 1e308]))
    @example(([0.0, 0.5, 1.0], [1e308, 1e308, -1e308]))
    @example(([0.0, 0.5, 1.0], [1e308, -1e308, 1.0]))
    @example(([0.0, 0.5], [0.5, 0.5 + MASS_TOL]))
    @example(([0.0, 0.5], [0.5, 0.5 - MASS_TOL]))
    @example(([0.0, 0.5], [1.0 + MASS_TOL, -0.0]))
    @example(([0.0, 0.5], [1.0 - MASS_TOL, 0.0]))
    @example(([0.0, 0.5], [1.5, -0.5]))
    def test_lean_constructor_matches_former(self, inputs):
        pos, w = inputs
        assert outcome(stored, pos, w) == outcome(construct_loop, pos, w)

    @given(dirac_points)
    @SETTINGS
    def test_trusted_dirac_is_the_validated_one(self, x):
        assert_same_measure(dirac(x), DiscreteMeasure(np.array([x]), np.array([1.0])))

    @given(grid_batches())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_trusted_discretize_rows_are_the_validated_ones(self, batch):
        scheme, measures = batch
        for m, (pos, w) in zip(measures, discretize_rows(scheme, measures)):
            validated = DiscreteMeasure(pos, w)
            assert_same_measure(DiscreteMeasure._trusted(pos.copy(), w.copy()), validated)
            assert_same_measure(discretize(scheme, m), validated)

    def test_total_mass_is_cached_per_instance(self):
        m = DiscreteMeasure([0.3, -0.2, 0.3], [0.1, 0.2, 0.7])
        assert m.total_mass is m.total_mass
        assert same_bits(m.total_mass, math.fsum(m.weights.tolist()))
        assert mix(m, dirac(0.0), 0.25).total_mass == 1.0

    def test_trusted_path_is_private(self):
        import wasserstein_calculus
        from wasserstein_calculus import measures

        assert "_trusted" not in wasserstein_calculus.__all__ and "_trusted" not in measures.__all__
        assert not hasattr(wasserstein_calculus, "_trusted")
        assert not hasattr(measures, "_trusted")
        # JSON input is validated: unsorted atoms come back sorted, bad ones raise
        m = measure_from_dict({"atoms": [[1.0, 0.5], [0.0, 0.5]]})
        assert list(m.positions) == [0.0, 1.0]
        with pytest.raises(ValueError, match="finite"):
            measure_from_dict({"atoms": [[math.inf, 1.0]]})


# ------------------------------------------------------------ sampled draws


def random_measure_former(rng, K, max_atoms=MAX_ATOMS):
    """The former ``random_measure``, weights from ``rng.dirichlet``."""
    _check_half_width(K)
    n = int(rng.integers(1, max_atoms + 1))
    positions = rng.uniform(-K, K, size=n)
    weights = rng.dirichlet(np.ones(n))
    return DiscreteMeasure(positions, weights)


def draws(sample, seed, stream, index, K, max_atoms):
    """A measure and a point drawn from one stream, then the generator's next
    draws; an exception's type and message in place of what it stopped."""
    rng = stream_rng(seed, stream, index)
    out = []
    for draw in (lambda: sample(rng, K, max_atoms), lambda: random_point(rng, K)):
        try:
            value = draw()
        except ValueError as exc:
            out.append((type(exc), str(exc)))
        else:
            if isinstance(value, DiscreteMeasure):
                value = (value.positions.tobytes(), value.weights.tobytes())
            out.append(np.float64(value).tobytes() if isinstance(value, float) else value)
    return out, rng.random(3).tobytes(), rng.integers(0, 2**63, 2).tobytes()


seeds = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96]) | st.integers(0, 2**80)
half_widths = st.sampled_from([0.0, 5e-324, 1e-300, 1e-8, 1.0, math.pi, 1e300, 8.9e307, 9e307]) | st.floats(
    0.0, 1e6
)


class TestSampledDraws:
    @given(
        seeds,
        st.sampled_from(["symmetry", "metric", "discretize-K2-n64", ""]) | st.text(max_size=8),
        st.integers(0, 2**40) | st.sampled_from([0, 2**32 - 1, 2**32]),
        half_widths,
        st.sampled_from([MAX_ATOMS, 1, 2]),
    )
    @SETTINGS
    def test_equal_to_the_former_draws(self, seed, stream, index, K, max_atoms):
        """The exponential weights give the former bits, the generator's next
        draws included."""
        new = draws(random_measure, seed, stream, index, K, max_atoms)
        assert new == draws(random_measure_former, seed, stream, index, K, max_atoms)

    def test_all_zero_draws_are_rejected_as_not_finite(self):
        """Exponential draws that are all zero sum to zero; dirichlet then
        returns NaN weights, and so must the exponential form."""
        with pytest.raises(ValueError, match="must be finite"):
            random_measure(ZeroDraws(), 1.0)


class ZeroDraws:
    """A generator whose exponential draws are zero on the calls ``zero``
    names (all by default), and numpy's draws otherwise."""

    def __init__(self, zero=None):
        self.rng = np.random.default_rng(0)
        self.zero = zero
        self.calls = 0

    def integers(self, low, high):
        return self.rng.integers(low, high)

    def uniform(self, low, high, size=None):
        return self.rng.uniform(low, high, size)

    def standard_exponential(self, n):
        self.calls += 1
        zero = self.zero is None or self.calls in self.zero
        return np.zeros(n) if zero else self.rng.standard_exponential(n)


class FirstWeightZero(ZeroDraws):
    """Draws at least two atoms, the first of weight zero."""

    def integers(self, low, high):
        return self.rng.integers(max(low, 2), high)

    def standard_exponential(self, n):
        draws = self.rng.standard_exponential(n)
        draws[0] = 0.0
        return draws


class DriftingDraws(ZeroDraws):
    """100,001 atoms; after a first exponential of 1.0, every one is 0.75
    ulp of 1.0, which each step of the sum rounds up to a whole ulp."""

    def integers(self, low, high):
        return 100_001

    def standard_exponential(self, n):
        return np.array([1.0] + [1.5 * 2.0**-53] * (n - 1))


class StreamSpy:
    """Stands in for ``sampling.stream_rngs``: counts its calls and, when
    ``random_draws`` asks for the next generator, keeps the previous one's
    next draws, which follow the draws ``random_draws`` made from it."""

    def __init__(self):
        self.calls = 0
        self.after = []

    def __call__(self, seed, stream, indices):
        self.calls += 1
        for rng in STREAM_RNGS(seed, stream, indices):
            yield rng
            self.after.append(next_draws(rng))


STREAM_RNGS = sampling.stream_rngs
MEASURES = sampling._measures


def next_draws(rng):
    return rng.random(3).tobytes(), rng.integers(0, 2**63, 2).tobytes()


def value_bits(value):
    if isinstance(value, DiscreteMeasure):
        return value.positions.tobytes(), value.weights.tobytes()
    assert type(value) is float
    return np.float64(value).tobytes()


def former_draws(seed, stream, indices, K, measures, points):
    """Each index's draws by ``random_measure_former`` and ``random_point``
    on its own ``stream_rng``, with the generator's next draws."""
    out, after = [], []
    for index in indices:
        rng = stream_rng(seed, stream, index)
        values = [random_measure_former(rng, K) for _ in range(measures)]
        values += [random_point(rng, K) for _ in range(points)]
        out.append([value_bits(v) for v in values])
        after.append(next_draws(rng))
    return out, after


# index lists on both sides of a pass boundary, and across two of them: a
# pass takes _DRAW_CHUNK // measures indices, so 99 and 100 are multiples too
INDEX_LISTS = st.sampled_from([0, 1, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 250]).flatmap(
    lambda n: st.lists(st.integers(0, 2**33) | st.sampled_from([0, 2**32 - 1, 2**32]), min_size=n, max_size=n)
)


class TestRandomDraws:
    """``random_draws`` against the former draws of each index alone."""

    @given(
        seeds,
        st.sampled_from(["symmetry", "metric", ""]) | st.text(max_size=8),
        INDEX_LISTS,
        half_widths,
        st.integers(1, 3),
        st.integers(0, 2),
    )
    @example(seed=0, stream="metric", indices=list(range(250)), K=5e-324, measures=3, points=2)
    @example(seed=2**32, stream="s", indices=list(range(_DRAW_CHUNK + 1)), K=0.0, measures=1, points=2)
    @example(seed=7, stream="", indices=list(range(_DRAW_CHUNK)), K=1.0, measures=2, points=0)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equal_to_the_former_draws(self, seed, stream, indices, K, measures, points):
        """Every measure and point has the former bits, and every generator
        the former state after them; K = 0.0 and 5e-324 merge every atom."""
        spy = StreamSpy()
        draws = random_draws(seed, stream, indices, K, measures=measures, points=points)
        with mock.patch.object(sampling, "stream_rngs", spy):
            try:
                _check_half_width(K)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    next(draws)
                assert spy.calls == 0
                return
            got = [[value_bits(v) for v in values] for values in draws]
        assert (got, spy.after) == former_draws(seed, stream, indices, K, measures, points)
        assert spy.calls == 1

    @pytest.mark.parametrize("zero", [None, {2}, {_DRAW_CHUNK + 7}])
    def test_all_zero_draws_are_rejected_as_not_finite(self, zero):
        """A row of zero exponentials raises the constructor's error, in a
        chunk of rows that pass and in the second chunk."""
        rng = ZeroDraws(zero)
        with mock.patch.object(sampling, "stream_rngs", lambda *args: iter([rng] * 250)):
            with pytest.raises(ValueError, match="must be finite"):
                list(random_draws(0, "s", range(250), 1.0))

    def test_zero_weight_atoms_are_dropped(self):
        """A row with one zero exponential goes through the constructor,
        which drops that atom, as it does for the former draws."""
        with mock.patch.object(sampling, "stream_rngs", lambda *args: iter([FirstWeightZero()] * 150)):
            drawn = list(random_draws(0, "s", range(150), 1.0, measures=2))
        rng = FirstWeightZero()
        for ms in drawn:
            for m in ms:
                n = int(rng.integers(1, MAX_ATOMS + 1))
                positions, draws = rng.uniform(-1.0, 1.0, n), rng.standard_exponential(n)
                expected = DiscreteMeasure(positions, draws * (1.0 / sum(draws.tolist())))
                assert len(m) == n - 1 and value_bits(m) == value_bits(expected)

    def test_mass_off_by_rounding_is_rejected(self):
        """100,001 exponentials, each sum step rounding up by a quarter ulp:
        the weights sum 5.6e-12 short of one, past ``MASS_TOL``, so the row
        goes through the constructor, which raises."""
        message = "^weights sum to 0.9999999999944489, not 1$"
        with pytest.raises(ValueError, match=message):
            random_measure(DriftingDraws(), 1.0, 200_000)
        with mock.patch.object(sampling, "stream_rngs", lambda *args: iter([DriftingDraws()])):
            with pytest.raises(ValueError, match=message):
                list(random_draws(0, "s", [0], 1.0))

    @pytest.mark.parametrize("K", [-1.0, math.nan, 9e307])
    def test_bad_K_raises_before_any_draw(self, K):
        spy = StreamSpy()
        with mock.patch.object(sampling, "stream_rngs", spy):
            with pytest.raises(ValueError, match="^K must be"):
                next(random_draws(0, "s", range(5), K, points=1))
        assert spy.calls == 0

    @pytest.mark.parametrize("measures, count", [(1, 250), (2, 250), (3, 250), (150, 3)])
    def test_a_pass_holds_a_chunk_of_measures_and_frees_its_draws(self, measures, count):
        """Each ``_measures`` pass takes at most ``_DRAW_CHUNK`` rows, or one
        index's, and its draw arrays are gone before its measures are used."""
        passes, alive = [], []

        def spy(rows):
            passes.append(len(rows))
            alive.append([weakref.ref(array) for draw in rows for array in draw])
            return MEASURES(rows)

        with mock.patch.object(sampling, "_measures", spy):
            for _ in random_draws(3, "s", range(count), 1.0, measures=measures):
                assert not any(ref() for ref in alive[-1])
        per_pass = max(1, _DRAW_CHUNK // measures) * measures
        assert passes == [per_pass] * (count * measures // per_pass) + [count * measures % per_pass] * (
            count * measures % per_pass > 0
        )
        assert max(passes) <= max(_DRAW_CHUNK, measures)

    def test_one_stream_rngs_call(self):
        spy = StreamSpy()
        with mock.patch.object(sampling, "stream_rngs", spy):
            drawn = list(random_draws(3, "s", range(250), 1.0, measures=2, points=1))
        assert spy.calls == 1 and len(spy.after) == len(drawn) == 250
        assert all(len(d) == 3 for d in drawn)


# ------------------------------------------------------------ exactly rounded sums

# array sizes on both sides of the cutoff, and far above it
FSUM_SIZES = (1, 2, 5, FSUM_CUTOFF - 1, FSUM_CUTOFF, FSUM_CUTOFF + 1, FSUM_CUTOFF + 2, 3 * FSUM_CUTOFF + 7)
FSUM_KINDS = ("wide", "weights", "cancel", "zeros", "subnormal", "ints")
# planted values: the largest doubles, subnormals, both zeros, and the
# non-finite ones that make math.fsum return NaN or raise
PLANT_VALUES = [1.7976931348623157e308, -1.7976931348623157e308, 2.0**1023, 5e-324, -5e-324, 2.2e-308, 0.0, -0.0,
                math.inf, -math.inf, math.nan]
FSUM_PLANTS = st.floats(width=64) | st.sampled_from(PLANT_VALUES)


def fsum_outcome(sum_of, values):
    """The sum's bits (so -0.0 differs from 0.0 and every NaN is alike), a
    list of them for a list of sums, or the exception's type and message."""
    try:
        total = sum_of(values)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return [sum_bits(t) for t in total] if isinstance(total, list) else sum_bits(total)


def sum_bits(total):
    return "nan" if math.isnan(total) else np.float64(total).tobytes()


def fsum_former(values):
    return math.fsum(values.tolist())


@st.composite
def fsum_arrays(draw, sizes=FSUM_SIZES, kinds=FSUM_KINDS, plants=3):
    """Arrays of a drawn size: exponents over the whole double range,
    probability weights, x beside -x, signed zeros, subnormals or small
    integers; a few drawn values planted anywhere."""
    size = draw(st.sampled_from(sizes))
    kind = draw(st.sampled_from(kinds))
    if size == 0:
        return np.zeros(0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "wide":
        top = draw(st.sampled_from([-1000, 0, 1000, 1010]))
        x = rng.standard_normal(size) * 2.0 ** rng.integers(-1074, top, size, endpoint=True)
    elif kind == "weights":
        x = rng.dirichlet(np.ones(size))
    elif kind == "cancel":
        half = rng.standard_normal(size // 2 + 1) * 2.0 ** rng.integers(-60, 60, size // 2 + 1)
        x = np.stack((half, -half), axis=1).ravel()[:size]
        x[rng.integers(0, size)] += draw(st.sampled_from([0.0, 5e-324, 1e-300, 2.0**-52]))
        if draw(st.booleans()):
            x = rng.permutation(x)
    elif kind == "zeros":
        x = np.where(rng.random(size) < 0.5, -0.0, 0.0)
    elif kind == "subnormal":  # small multiples of 2^-1074 sum to a subnormal
        bound = 2 ** draw(st.sampled_from([3, 30, 52]))
        x = rng.integers(-bound, bound, size) * 5e-324
    else:
        x = rng.integers(-(2**53), 2**53, size).astype(float)
    for value in draw(st.lists(FSUM_PLANTS, max_size=plants)):
        x[draw(st.integers(0, size - 1))] = value
    return x


class TestFsum:
    @given(fsum_arrays())
    @SETTINGS
    def test_bits_and_errors_of_math_fsum(self, values):
        assert fsum_outcome(fsum, values) == fsum_outcome(fsum_former, values)

    @pytest.mark.parametrize("size", [FSUM_CUTOFF - 1, FSUM_CUTOFF + 1])
    @pytest.mark.parametrize(
        "plant, expected",
        [
            ([math.inf, -math.inf], (ValueError, "-inf + inf in fsum")),
            ([1.7e308, 1.7e308], (OverflowError, "intermediate overflow in fsum")),
            ([math.nan], "nan"),
            ([math.inf], np.float64(math.inf).tobytes()),
        ],
        ids=["inf-inf", "intermediate-overflow", "nan", "inf"],
    )
    def test_the_errors_of_math_fsum(self, size, plant, expected):
        values = np.full(size, 0.5)
        values[: len(plant)] = plant
        assert fsum_outcome(fsum, values) == fsum_outcome(fsum_former, values) == expected

    @pytest.mark.parametrize("size", [FSUM_CUTOFF + 1, 200_000])
    def test_never_negative_zero(self, size):
        rng = np.random.default_rng(size)
        half = rng.standard_normal(size // 2) * 2.0 ** rng.integers(-1074, 1000, size // 2)
        for values in (np.full(size, -0.0), rng.permutation(np.concatenate((half, -half, [-0.0])))):
            assert fsum_outcome(fsum, values) == np.float64(0.0).tobytes()

    def test_long_input_bit_identical(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(200_000) * 10.0 ** rng.uniform(-300, 300, 200_000)
        assert fsum_outcome(fsum, values) == fsum_outcome(fsum_former, values)
        # the largest values one bin takes without the math.fsum fallback
        values = rng.random(200_000) * 2.0 ** (1021 - (200_000).bit_length())
        assert fsum_outcome(fsum, values) == fsum_outcome(fsum_former, values)


# row lengths on both sides of the row cutoff and of 512, and far above
# them; with enough rows, 2-D batches take the bracket, one row of more than
# 512 values the bins of fsum, and flat rows the lists
ROW_LENGTHS = (
    0, 1, ROW_CUTOFF - 1, ROW_CUTOFF, ROW_CUTOFF + 1, 2 * ROW_CUTOFF + 5, BIN_CUTOFF, BIN_CUTOFF + 1, 300, 700
)


def fsum_rows_former(values, rows=None, count=0):
    """``math.fsum`` of each row, one list per row, in row order."""
    if rows is None:
        return [math.fsum(row) for row in values.tolist()]
    return [math.fsum(values[rows == r].tolist()) for r in range(count)]


@st.composite
def fsum_row_batches(draw):
    """1 to 40 rows of the ``fsum_arrays`` kinds, mostly all of one kind,
    else each of its own, with values planted in one row or none: a 2-D
    array of rows of one drawn length, or ragged rows laid flat with their
    row ids, empty rows included."""
    count = draw(st.sampled_from([1, 2, 17, 40]))
    kinds = FSUM_KINDS if draw(st.integers(0, 3)) == 0 else (draw(st.sampled_from(FSUM_KINDS)),)
    planted = draw(st.integers(0, count))  # a row, or count for none
    if draw(st.booleans()):
        length = (draw(st.sampled_from(ROW_LENGTHS)),)
        rows = [draw(fsum_arrays(length, kinds, 3 if r == planted else 0)) for r in range(count)]
        return np.array(rows).reshape(count, length[0]), None
    parts = [draw(fsum_arrays(ROW_LENGTHS, kinds, 3 if r == planted else 0)) for r in range(count)]
    return np.concatenate(parts), np.repeat(np.arange(count), [x.size for x in parts])


def short_rows(rng, kind, count, length):
    """``count`` rows of ``length`` values of one ``fsum_arrays`` kind, drawn
    with numpy; "cancel" rows pair x with -x over 2^240 and add one small
    value."""
    shape = (count, length)
    if kind == "wide":
        return rng.standard_normal(shape) * 2.0 ** rng.integers(-1074, 1000, shape)
    if kind == "weights":
        return rng.dirichlet(np.ones(length), count)
    if kind == "cancel":
        half = rng.standard_normal(shape) * 2.0 ** rng.integers(-120, 120, shape)
        x = np.where(np.arange(length) % 2, -np.roll(half, 1, axis=1), half)
        x[np.arange(count), rng.integers(0, length, count)] += rng.choice([0.0, 5e-324, 2.0**-52, 1.0], count)
        return rng.permuted(x, axis=1)
    if kind == "zeros":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    if kind == "subnormal":
        return rng.integers(-(2**30), 2**30, shape) * 5e-324
    return rng.integers(-(2**53), 2**53, shape).astype(float)


def sparse_rows(rng, count, length, nonzero):
    """``count`` rows of mostly zeros, each holding a few ``nonzero()``
    values."""
    x = np.zeros((count, length))
    for row in x:
        row[rng.integers(0, length, 3)] = nonzero(3)
    return x


# rows the bracket of fsum_rows cannot settle, or must not: exact ties,
# sums far below their terms, zero sums, one value, subnormals, partial sums
# around the overflow guard, and last a row on which math.fsum raises
BRACKET_KINDS = ("half-ulp", "cancel", "zeros", "one-value", "subnormal", "largest", "intermediate-overflow")


def bracket_rows(rng, kind, count=40, length=BIN_CUTOFF // 4):
    """``count`` rows of ``length`` values of one kind, mostly zeros for the
    kinds with few terms, each row shuffled."""
    x = np.zeros((count, length))
    if kind == "half-ulp":  # a + b an exact tie, or a tie moved by a far smaller c
        a = np.concatenate((rng.dirichlet(np.ones(3), count // 2)[:, 0], np.ones(count - count // 2)))
        x[:, 0] = a
        x[:, 1] = np.spacing(a) / 2 * rng.choice([1, -1, 3, -3], count)
        x[:, 2] = np.where(rng.random(count) < 0.25, np.spacing(a) * 2.0**-60 * rng.choice([1, -1], count), 0.0)
    elif kind == "cancel":  # x beside -x over 2^120, and one small value
        half = rng.standard_normal((count, length // 2)) * 2.0 ** rng.integers(-60, 60, (count, length // 2))
        x[:, : 2 * half.shape[1]] = np.concatenate((half, -half), axis=1)
        x[:, -1] += rng.choice([5e-324, 1e-300, 2.0**-52, 1.0], count)
    elif kind == "zeros":  # x beside -x; all +0.0; all -0.0
        half = rng.standard_normal((count, length // 2)) * 2.0 ** rng.integers(-60, 60, (count, length // 2))
        x[:, : 2 * half.shape[1]] = np.concatenate((half, -half), axis=1)
        x[: count // 4] = 0.0
        x[count // 4 : count // 2] = -0.0
    elif kind == "one-value":
        x[:, 0] = rng.standard_normal(count) * 2.0 ** rng.integers(-1074, 1020, count)
        x[:4, 0] = (-0.0, 5e-324, 2.0**-1022, 1.7976931348623157e308)
    elif kind == "subnormal":
        x = rng.integers(-(2**40), 2**40, (count, length)) * 5e-324
    elif kind == "largest":  # partial sums on both sides of 2^1020
        x = rng.random((count, length)) * 2.0 ** (1021 - length.bit_length() + 1) * rng.choice([1.0, -1.0], (count, 1))
    else:  # finite partial sums, but math.fsum's exact ones overflow
        x[:] = 0.5
        x[7, :5] = (1.7976931348623157e308, 2.0**969, 2.0**969, -1.7976931348623157e308, 2.0**1000)
        return x
    return rng.permuted(x, axis=1)


def spy(name):
    """A spy on ``util``'s function ``name``, which it still calls."""
    return mock.patch.object(util_module, name, wraps=getattr(util_module, name))


class TestFsumRows:
    @given(fsum_row_batches())
    @SETTINGS
    def test_bits_and_errors_of_math_fsum_per_row(self, batch):
        values, rows = batch
        if rows is None:
            assert fsum_outcome(fsum_rows, values) == fsum_outcome(fsum_rows_former, values)
        else:
            count = int(rows.max(initial=-1)) + 1 + 2  # two empty rows at the end
            got = fsum_outcome(lambda v: fsum_rows(v, rows, count), values)
            assert got == fsum_outcome(lambda v: fsum_rows_former(v, rows, count), values)

    # in 40 rows: the lists, the bracket; laid flat, the lists
    @pytest.mark.parametrize("length", [ROW_CUTOFF, 64, 65, 256, 257, 300, BIN_CUTOFF, BIN_CUTOFF + 1])
    @pytest.mark.parametrize(
        "plant, expected",
        [
            ([math.inf, -math.inf], (ValueError, "-inf + inf in fsum")),
            ([1.7e308, 1.7e308], (OverflowError, "intermediate overflow in fsum")),
            ([math.nan], "nan"),
            ([math.inf], np.float64(math.inf).tobytes()),
        ],
        ids=["inf-inf", "intermediate-overflow", "nan", "inf"],
    )
    def test_the_errors_of_math_fsum_in_one_row(self, length, plant, expected):
        rng = np.random.default_rng(length)
        values = rng.dirichlet(np.ones(length), 40)
        values[7, : len(plant)] = plant
        former = fsum_outcome(fsum_rows_former, values)
        assert fsum_outcome(fsum_rows, values) == former
        assert (former if isinstance(former, tuple) else former[7]) == expected
        rows = np.repeat(np.arange(40), length)
        assert fsum_outcome(lambda v: fsum_rows(v, rows, 40), values.ravel()) == former

    @pytest.mark.parametrize(
        "nonzero",
        [
            lambda rng, n: rng.integers(-(2**40), 2**40, n) * 5e-324,  # subnormals
            lambda rng, n: rng.random(n) * 2.0 ** (1021 - 14),  # the largest one bin of 12,000 takes
            lambda rng, n: rng.random(n) * 2.0**1021,  # beyond: math.fsum, which may raise
        ],
        ids=["subnormal", "largest-binned", "near-2^1021"],
    )
    def test_zeros_beside_extreme_values(self, nonzero):
        rng = np.random.default_rng(5)
        values = sparse_rows(rng, 40, 300, lambda n: nonzero(rng, n))  # 12,000 values: bit length 14
        values[3] = 0.0
        values[4] = -0.0
        former = fsum_outcome(fsum_rows_former, values)
        assert fsum_outcome(fsum_rows, values) == former
        rows = np.repeat(np.arange(40), 300)
        assert fsum_outcome(lambda v: fsum_rows(v, rows, 40), values.ravel()) == former

    @pytest.mark.parametrize("kind", BRACKET_KINDS)
    def test_rows_the_bracket_leaves_to_math_fsum(self, kind):
        values = bracket_rows(np.random.default_rng(BRACKET_KINDS.index(kind)), kind)
        count, length = values.shape
        assert ROW_CUTOFF < length <= BIN_CUTOFF and values.size > BATCH_CUTOFF
        former = fsum_outcome(fsum_rows_former, values)
        rows = np.repeat(np.arange(count), length)
        with spy("_fsum_bracketed") as bracket:
            assert fsum_outcome(fsum_rows, values) == former
            assert fsum_outcome(lambda v: fsum_rows(v, rows, count), values.ravel()) == former
        assert bracket.call_count == 1  # the 2-D batch; flat rows take the lists

    def test_ragged_flat_rows_with_empty_ones(self):
        rng = np.random.default_rng(8)
        lengths = rng.integers(2 * ROW_CUTOFF, 4 * ROW_CUTOFF, 40)
        lengths[[0, 7, 8, 39]] = 0
        kinds = [BRACKET_KINDS[i] for i in rng.integers(0, len(BRACKET_KINDS) - 1, 40)]  # none that raises
        parts = [bracket_rows(rng, k, 4, int(n))[rng.integers(4)] if n else [] for k, n in zip(kinds, lengths)]
        values = np.concatenate(parts)
        rows = np.repeat(np.arange(40), lengths)
        with spy("_fsum_bracketed") as bracket:
            got = fsum_outcome(lambda v: fsum_rows(v, rows, 40), values)
        assert got == fsum_outcome(lambda v: fsum_rows_former(v, rows, 40), values)
        assert bracket.call_count == 0  # flat rows take the lists
        # one long row among short ones
        lengths = np.full(40, ROW_CUTOFF)
        lengths[5] = 50 * ROW_CUTOFF
        values = rng.dirichlet(np.ones(lengths.sum())) * rng.choice([-1.0, 1.0], lengths.sum())
        rows = np.repeat(np.arange(40), lengths)
        with spy("_fsum_bracketed") as bracket:
            got = fsum_outcome(lambda v: fsum_rows(v, rows, 40), values)
        assert got == fsum_outcome(lambda v: fsum_rows_former(v, rows, 40), values)
        assert bracket.call_count == 0

    @given(st.sampled_from(FSUM_KINDS), st.sampled_from([2, 5, 9, ROW_CUTOFF]), st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_column_layout_bits_and_errors_per_row(self, kind, length, seed):
        rng = np.random.default_rng(seed)
        values = short_rows(rng, kind, BATCH_CUTOFF // length + 1 + int(rng.integers(0, 300)), length)
        for r in rng.integers(0, len(values), int(rng.integers(0, 3))):  # plants in up to two rows
            values[r, rng.integers(length)] = PLANT_VALUES[rng.integers(len(PLANT_VALUES))]
        with spy("_two_sum_steps") as steps:
            assert fsum_outcome(fsum_rows, values) == fsum_outcome(fsum_rows_former, values)
        assert [c.args[1] for c in steps.call_args_list] == [0]

    # 2-D batches of more than BATCH_CUTOFF values in rows of at most
    # ROW_CUTOFF take the column layout of the bracket; one row fewer, the lists
    @pytest.mark.parametrize("length", [5, ROW_CUTOFF - 3, ROW_CUTOFF, ROW_CUTOFF + 1])
    @pytest.mark.parametrize("extra", [0, 1], ids=["at-batch-cutoff", "above"])
    @pytest.mark.parametrize("kind", BRACKET_KINDS + ("inf-nan", "-inf+inf"))
    def test_column_layout(self, kind, extra, length):
        count = BATCH_CUTOFF // length + extra
        rng = np.random.default_rng([BRACKET_KINDS.index(kind) if kind in BRACKET_KINDS else 9, length])
        values = bracket_rows(rng, kind if kind in BRACKET_KINDS else "cancel", count, length)
        if kind == "inf-nan":  # rows of inf, -inf or NaN beside finite ones
            values[2, 0], values[5, 1], values[6, :2], values[9, 0] = math.inf, -math.inf, math.inf, math.nan
        elif kind == "-inf+inf":  # math.fsum raises on row 4 only
            values[3, 0], values[4, :2] = math.nan, (math.inf, -math.inf)
        column = values.size > BATCH_CUTOFF and length <= ROW_CUTOFF
        with spy("_two_sum_steps") as steps:
            assert fsum_outcome(fsum_rows, values) == fsum_outcome(fsum_rows_former, values)
        assert [c.args[1] for c in steps.call_args_list] == ([0] if column else [1] if values.size > BATCH_CUTOFF else [])

    def test_column_layout_zero_rows(self):
        """Rows of -0.0 or +0.0 only, and rows whose real values are followed
        by +0.0 or -0.0 pads, as a block of segments lays them out: each
        sums to ``math.fsum`` of its values without the pads."""
        rng = np.random.default_rng(4)
        lengths = rng.integers(1, ROW_CUTOFF + 1, 200)
        real = [np.where(rng.random(n) < 0.5, -0.0, 0.0) if r % 3 else rng.standard_normal(n) for r, n in enumerate(lengths)]
        real[:2] = [np.full(4, -0.0), np.full(ROW_CUTOFF, 0.0)]
        values = np.zeros((len(real), ROW_CUTOFF))
        values[1::2] = -0.0
        for row, x in zip(values, real):
            row[: x.size] = x
        assert values.size > BATCH_CUTOFF
        got = fsum_outcome(fsum_rows, values)
        assert got == fsum_outcome(fsum_rows_former, values)
        assert got == [sum_bits(math.fsum(x.tolist())) for x in real]
        assert got[0] == np.float64(0.0).tobytes()

    def test_column_layout_subnormal_rows(self):
        values = np.random.default_rng(6).integers(-(2**20), 2**20, (300, 7)) * 5e-324
        values[::5, 1:] = 0.0  # one subnormal value in every fifth row
        assert fsum_outcome(fsum_rows, values) == fsum_outcome(fsum_rows_former, values)

    @pytest.mark.parametrize("size", [BATCH_CUTOFF, BATCH_CUTOFF + 2])
    def test_two_rows_beside_the_batch_cutoff(self, size):
        values = np.random.default_rng(size).dirichlet(np.ones(size // 2), 2)
        assert fsum_outcome(fsum_rows, values) == fsum_outcome(fsum_rows_former, values)

    def test_empty_batches(self):
        assert fsum_rows(np.zeros((0, 300))) == [] == fsum_rows(np.zeros(0), np.zeros(0, dtype=int), 0)
        assert fsum_rows(np.zeros((3, 0))) == [0.0] * 3 == fsum_rows(np.zeros(0), np.zeros(0, dtype=int), 3)

    # one row: math.fsum on a list, or the bins; a 2-D batch: the lists, or
    # the bracket in the column or the row layout; rows laid flat: the lists
    @pytest.mark.parametrize(
        "count, length, flat, path",
        [
            (1, FSUM_CUTOFF, False, "list"),
            (1, FSUM_CUTOFF + 1, False, "bins"),
            (1, FSUM_CUTOFF + 1, True, "bins"),
            (BATCH_CUTOFF // ROW_CUTOFF, ROW_CUTOFF, False, "lists"),
            (BATCH_CUTOFF // ROW_CUTOFF + 1, ROW_CUTOFF, False, "column"),
            (BATCH_CUTOFF // (ROW_CUTOFF + 1), ROW_CUTOFF + 1, False, "lists"),
            (BATCH_CUTOFF // (ROW_CUTOFF + 1) + 1, ROW_CUTOFF + 1, False, "row"),
            (40, 200, True, "lists"),
        ],
    )
    def test_one_path_per_shape(self, count, length, flat, path):
        values = np.random.default_rng(length).dirichlet(np.ones(length), count)
        former = fsum_outcome(fsum_rows_former, values)
        args = (values.ravel(), np.repeat(np.arange(count), length), count) if flat else (values,)
        with contextlib.ExitStack() as stack:
            one, each, bracket, steps = (
                stack.enter_context(spy(name)) for name in ("fsum", "_fsum_each", "_fsum_bracketed", "_two_sum_steps")
            )
            bincount = stack.enter_context(mock.patch.object(util_module.np, "bincount", wraps=np.bincount))
            assert fsum_outcome(lambda _: fsum_rows(*args), values) == former
        calls = [one.call_count, each.call_count, bracket.call_count, [c.args[1] for c in steps.call_args_list]]
        assert calls == {
            "list": [1, 0, 0, []],
            "bins": [1, 0, 0, []],
            "lists": [0, 1, 0, []],
            "column": [0, 0, 1, [0]],
            "row": [0, 0, 1, [1]],
        }[path]
        # the bins are fsum's two np.bincount calls; the flat lists make one
        assert bincount.call_count == {"bins": 2, "lists": int(flat)}.get(path, 0)


# ------------------------------------------------------------ measures wider than the cutoff

WIDE = 2 * FSUM_CUTOFF + 13


@st.composite
def wide_atoms(draw, size=WIDE, bound=3.0):
    """More than FSUM_CUTOFF atoms after merging, or ``size``: a shuffled
    grid in [-bound, bound] with exact coincidences, MERGE_TOL chains and
    zero weights, weights of mixed magnitude normalized to unit mass."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = np.linspace(-bound, bound, size)
    copies = rng.integers(0, size, draw(st.sampled_from([0, 5, 300])))
    pos = np.concatenate((pos, pos[copies] + rng.choice([0.0, 3e-13, 6e-13], copies.size)))
    raws = rng.random(pos.size) * 10.0 ** rng.integers(-18, 1, pos.size)
    raws[rng.random(pos.size) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    order = rng.permutation(pos.size)
    return pos[order], raws[order] / math.fsum(raws.tolist())


def wide_invalid(pos, w, kind):
    """The atoms made invalid one way, as constructor_inputs does for small ones."""
    w = w.copy()
    i = w.size // 2
    if kind == "mass":
        w *= 1.0 + 2.0 * MASS_TOL
    elif kind == "negative":
        w[i] = -1e-18
    elif kind == "nonfinite":
        w[i] = math.nan
    elif kind == "overflow":  # math.fsum raises, and so does the former constructor
        w[:3] = 1.7e308
    elif kind == "inf-inf":
        w[:2] = (math.inf, -math.inf)
    return pos, w


# 17 to 400 atoms inside [-2, 2]: batches of eight take the lists or the
# bracket of fsum_rows in w1_rows (rows of 34 to 800 terms) and the lists in
# discretize_rows on a grid of 257 points, where a measure alone stays below
# FSUM_CUTOFF
row_atoms = st.sampled_from([ROW_CUTOFF + 1, 150, 400]).flatmap(lambda size: wide_atoms(size, 1.9))


class TestWideMeasures:
    """Measures wider than the cutoff, whose sums take the binned path of
    ``fsum``, against the former constructor and the former per-pair ``w1``;
    batches with rows wider than the row cutoff, which take the bracket or
    the lists of ``fsum_rows``, against per-pair ``w1`` and per-measure
    ``discretize``."""

    @given(wide_atoms(), st.sampled_from(["valid", "valid", "mass", "negative", "nonfinite", "overflow", "inf-inf"]))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_construction_and_total_mass(self, atoms, kind):
        pos, w = wide_invalid(*atoms, kind)
        result = outcome(stored, pos, w)
        assert result == outcome(construct_loop, pos, w)
        if kind == "valid":
            assert result[0][0] > FSUM_CUTOFF  # total_mass took the wide path in ``stored``

    @given(wide_atoms(), wide_atoms())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_w1_and_rows(self, a, b):
        a, b = DiscreteMeasure(*a), DiscreteMeasure(*b)
        short = dirac(0.25)
        assert same_bits(w1(a, b), w1_one(a, b))
        rows = w1_rows([(a.positions, a.weights), (short.positions, short.weights)], [(b.positions, b.weights)] * 2)
        assert same_bits(rows, [w1_one(a, b), w1_one(short, b)])

    @given(wide_atoms())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_integrate(self, atoms):
        m = DiscreteMeasure(*atoms)
        for f in (np.sin, lambda x: np.cos(x) * 1e300, lambda x: np.full_like(x, 1.7e308)):
            former = fsum_outcome(fsum_former, m.weights * f(m.positions))
            assert fsum_outcome(lambda g: integrate(m, g), f) == former

    @given(wide_atoms(), st.sampled_from([1.0, 1.0 + 5e-10, 1.0 - 5e-10, 1.0 + 2e-9]))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_measure_from_dict(self, atoms, scale):
        pos, w = atoms[0], atoms[1] * scale
        total = math.fsum(w.tolist())
        former = outcome(construct_loop, pos, w / total)
        if abs(total - 1.0) > JSON_MASS_TOL:
            former = (ValueError, f"weights sum to {total!r}; beyond the renormalization tolerance")
        assert outcome(from_document, pos, w) == former

    @given(st.lists(st.tuples(row_atoms, row_atoms), min_size=8, max_size=8))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_w1_rows_wider_than_the_row_cutoff(self, pairs):
        a = [DiscreteMeasure(*p) for p, _ in pairs]
        b = [DiscreteMeasure(*q) for _, q in pairs]
        dists = w1_rows(rows_of(a), rows_of(b))
        for x, y, d in zip(a, b, dists):
            assert same_bits(d, w1_one(x, y))
            assert same_bits(w1(x, y), d)

    @given(st.lists(row_atoms, min_size=8, max_size=8), st.sampled_from(BUMP_MODES))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_discretize_rows_wider_than_the_row_cutoff(self, atoms, mode):
        assert_rows_match_loop(PartitionScheme(n=64, K=2, bump_shape=mode), [DiscreteMeasure(*m) for m in atoms])


def from_document(pos, w):
    """The stored arrays of the measure read from JSON atoms."""
    m = measure_from_dict({"atoms": np.stack((pos, w), axis=1).tolist()})
    return m.positions, m.weights


# ------------------------------------------------------------ rational oracles


def w1_fraction(a, b) -> Fraction:
    """Exact integral of |F_a - F_b| in rational arithmetic."""
    jumps = {}
    for m, sign in ((a, 1), (b, -1)):
        for p, w in m.atoms:
            jumps[Fraction(p)] = jumps.get(Fraction(p), 0) + sign * Fraction(w)
    xs = sorted(jumps)
    total, gap = Fraction(0), Fraction(0)
    for x0, x1 in zip(xs[:-1], xs[1:]):
        gap += jumps[x0]
        total += abs(gap) * (x1 - x0)
    return total


def hat_fraction(scheme, k: int, x: Fraction) -> Fraction:
    """Exact linear_hat weight of grid index k at x (the raw bumps sum to one)."""
    n, N = scheme.n, scheme.edge_index
    if k == -N:
        return min(max((-N + 1) - n * x, Fraction(0)), Fraction(1))
    if k == N:
        return min(max(n * x - (N - 1), Fraction(0)), Fraction(1))
    return max(1 - abs(n * x - k), Fraction(0))


dyadic_positions = st.lists(
    st.builds(lambda k, j: k / 2.0**j, st.integers(-64, 64), st.integers(0, 5)).filter(
        lambda x: abs(x) <= 2.0
    ),
    min_size=1,
    max_size=6,
)


class TestRationalOracles:
    @given(dyadic_positions.flatmap(dyadic_measure), dyadic_positions.flatmap(dyadic_measure))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_w1_within_four_ulp(self, a, b):
        d = w1(a, b)
        assert abs(Fraction(d) - w1_fraction(a, b)) <= 4 * Fraction(math.ulp(d))

    @given(
        dyadic_positions.flatmap(dyadic_measure),
        st.sampled_from([(2, 1), (4, 1), (16, 1), (4, 2), (8, 2), (64, 2)]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_linear_hat_discretize_exact(self, m, nK):
        n, K = nK
        m = DiscreteMeasure(m.positions * (K / 2), m.weights)  # into [-K, K], still dyadic
        scheme = PartitionScheme(n=n, K=K, bump_shape="linear_hat")
        out = discretize(scheme, m)
        got = dict(zip(out.positions.tolist(), out.weights.tolist()))
        for k in range(-scheme.edge_index, scheme.edge_index + 1):
            exact = sum(Fraction(w) * hat_fraction(scheme, k, Fraction(p)) for p, w in m.atoms)
            assert abs(Fraction(got.get(k / n, 0.0)) - exact) <= Fraction(GRID_TOL)
        assert abs(sum(Fraction(w) for w in out.weights.tolist()) - 1) <= MASS_TOL


# ------------------------------------------------------------ segment quadrature against the node loop


def segment_integral_loop(H, mu, m, quad_order):
    """The former quadrature loop of ``antiderivative`` and ``verify_deriv2``:
    one ``mix`` and one field evaluation per Gauss node."""
    pos, sw = signed_difference(m, mu)
    if pos.size == 0:
        return 0.0
    nodes, weights = gauss_legendre_01(quad_order)
    contributions = []
    for t, gw in zip(nodes, weights):
        mt = mix(mu, m, float(t))
        vals = _values_at(lambda x: H.value(mt, x), pos)
        contributions.append(gw * math.fsum((sw * vals).tolist()))
    return math.fsum(contributions)


def scalar_only_field():
    """A user field with no batched evaluator that accepts scalar points only."""

    def value(m, x):
        return math.cos(x) * float(m.weights[0]) + float(m.positions[-1]) * x

    return DerivativeField(value=value, dx=lambda m, x: -math.sin(x), label="user")


FIELDS = {
    **{f"lift-{F.label}": lift_to_field(F) for F in standard_battery()},
    "counterexample-sin-cos": counterexample_field(sin_fn(), cos_fn()),
    "counterexample-gauss-poly": counterexample_field(gaussian(0.5, 0.7), polynomial((0.1, -1.0, 0.5))),
    "lift-constant": lift_to_field(CylinderFunction((), outer_polynomial([(2.0, ())]))),
    "zero": zero_field(),
    "canonical-lift": canonicalize(lift_to_field(standard_battery()[2])),
    "canonical-counterexample": canonicalize(counterexample_field(sin_fn(), cos_fn())),
    "user": scalar_only_field(),
}

FEATURES = ("plain", "equal", "shared", "near", "chain", "subnormal")
SUBNORMALS = (5e-324, 1e-320, 1e-310, 2.2e-308)


@st.composite
def segment_pairs(draw, max_atoms=256):
    """(feature, mu, m) with 1 to ``max_atoms`` atoms each.

    Positions and weights come from a generator seeded by hypothesis; the
    feature then edits them: m equal to mu; atoms of m placed exactly on
    atoms of mu; within MERGE_TOL of them; in chains of three or more
    alternating atoms across mu and m; or with subnormal weights, whose
    products with some nodes' t underflow to zero.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feature = draw(st.sampled_from(FEATURES))
    n_mu, n_m = draw(st.integers(1, max_atoms)), draw(st.integers(1, max_atoms))
    mu = DiscreteMeasure(rng.uniform(-2.0, 2.0, n_mu), rng.dirichlet(np.ones(n_mu)))
    if feature == "equal":
        return feature, mu, DiscreteMeasure(mu.positions, mu.weights)
    pos, w = rng.uniform(-2.0, 2.0, n_m), rng.dirichlet(np.ones(n_m))
    k = draw(st.integers(1, min(n_m, n_mu)))
    targets = mu.positions[rng.choice(n_mu, k, replace=False)]
    if feature == "shared":
        pos[:k] = targets
    elif feature == "near":
        pos[:k] = targets + draw(st.sampled_from([3e-13, -6e-13, MERGE_TOL, -MERGE_TOL]))
    elif feature == "chain":
        # mu's atoms x and x + 1.4e-12 with m's atom x + 7e-13 between them
        # chain three atoms; m's atom x - 7e-13, where m has room, makes four
        x = targets[0]
        mu = DiscreteMeasure(np.append(mu.positions, x + 1.4e-12), np.append(0.5 * mu.weights, 0.5))
        pos[0] = x + 7e-13
        if n_m > 1:
            pos[1] = x - 7e-13
    elif feature == "subnormal" and n_m > 1:
        tiny = min(k, n_m - 1)
        w[:tiny] = draw(st.sampled_from(SUBNORMALS))
        w[tiny:] = w[tiny:] / math.fsum(w[tiny:].tolist())
    return feature, mu, DiscreteMeasure(pos, w)


SEGMENT_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@pytest.mark.parametrize("name", sorted(FIELDS))
class TestSegmentIntegral:
    @given(segment_pairs(), st.sampled_from([2, 32]))
    @SEGMENT_SETTINGS
    def test_bit_identical_to_node_loop(self, name, pair, quad_order):
        _, mu, m = pair
        H = FIELDS[name]
        assert same_bits(segment_integral(H, mu, m, quad_order), segment_integral_loop(H, mu, m, quad_order))

    @pytest.mark.parametrize(
        "m",
        [
            dirac(0.0),
            DiscreteMeasure([0.0, 0.75], [0.5, 0.5]),
            DiscreteMeasure([-0.0, 0.75], [0.5, 0.5]),
            DiscreteMeasure([6e-13, -1.25], [0.5, 0.5]),
            DiscreteMeasure([-7e-13, 7e-13, 1.0], [0.25, 0.25, 0.5]),
            DiscreteMeasure([0.0, 1.0], [1e-310, 1.0]),
        ],
        ids=["base", "shared-zero", "negative-zero", "near-zero", "chain-at-zero", "subnormal"],
    )
    def test_antiderivative_bit_identical(self, name, m):
        H = FIELDS[name]
        assert same_bits(antiderivative(H, 32)(m), segment_integral_loop(H, BASE_POINT, m, 32))


class TestMixRows:
    @given(segment_pairs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_rows_are_the_mixtures(self, pair):
        feature, mu, m = pair
        nodes, _ = gauss_legendre_01(32)
        rows = mix_rows(mu, m, nodes)
        if feature in ("plain", "equal", "shared"):
            assert rows is not None
        if feature == "chain":
            assert rows is None
        if rows is not None:
            positions, weights = rows
            assert weights.shape == (nodes.size, positions.size)
            for t, row in zip(nodes, weights):
                mixed = mix(mu, m, float(t))
                assert same_bits(positions, mixed.positions)
                assert same_bits(row, mixed.weights)

    def test_subnormal_weight_kept_while_positive(self):
        nodes, _ = gauss_legendre_01(32)
        mu, m = dirac(0.5), DiscreteMeasure([0.0, 1.0], [1e-310, 1.0])
        positions, weights = mix_rows(mu, m, nodes)
        assert np.all(weights[:, 0] > 0.0) and np.all(weights[:, 0] < 2.3e-308)
        for t, row in zip(nodes, weights):
            assert same_bits(row, mix(mu, m, float(t)).weights)

    def test_underflow_to_zero_falls_back(self):
        nodes, _ = gauss_legendre_01(32)
        m = DiscreteMeasure([0.0, 1.0], [5e-324, 1.0])
        assert len(mix(dirac(0.5), m, float(nodes[0]))) == 2  # t * 5e-324 rounds to 0
        assert mix_rows(dirac(0.5), m, nodes) is None

    def test_mass_near_tolerance_falls_back(self):
        nodes, _ = gauss_legendre_01(2)
        heavy = DiscreteMeasure([0.0, 1.0], [0.5, 0.5 + 0.9 * MASS_TOL])
        assert mix_rows(dirac(0.5), heavy, nodes) is None
        H = FIELDS["lift-mean"]
        assert same_bits(segment_integral(H, dirac(0.5), heavy, 2), segment_integral_loop(H, dirac(0.5), heavy, 2))


class TestCanonicalBatch:
    def test_batch_kept_only_when_the_base_has_one(self):
        assert FIELDS["canonical-lift"].batch_value is not None
        assert FIELDS["canonical-counterexample"].batch_value is not None
        assert canonicalize(scalar_only_field()).batch_value is None

    @pytest.mark.parametrize("name", ["canonical-lift", "canonical-counterexample"])
    def test_segments_take_the_batched_path(self, name):
        H = FIELDS[name]

        def no_nodes(m, x):
            raise AssertionError("segment evaluated node by node")

        batched_only = DerivativeField(value=no_nodes, dx=H.dx, batch_value=H.batch_value)
        mu, m = dirac(0.0), DiscreteMeasure([0.0, 0.25, 0.75], [0.25, 0.25, 0.5])
        for quad_order in (2, 32):
            got = segment_integral(batched_only, mu, m, quad_order)
            assert same_bits(got, segment_integral_loop(H, mu, m, quad_order))


PASS_FEATURES = ("plain", "plain", "near", "joined", "equal", "subnormal", "wide")


@st.composite
def segment_passes(draw):
    """(mu, measures, quad_order): the base point or a drawn measure, and a
    pass of 1 to 45 measures of 1 to 12 atoms, which ends in a full block,
    mid-block or in the second block. Each measure has a feature: an atom
    within MERGE_TOL of an atom of mu (its nodes take the node path) or
    exactly on one (it joins); mu itself (no atom); a subnormal weight; or
    40 atoms, wider than the others."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = BASE_POINT if draw(st.booleans()) else DiscreteMeasure(rng.uniform(-2, 2, 5), rng.dirichlet(np.ones(5)))
    measures = []
    for _ in range(draw(st.sampled_from([1, 2, 7, SEGMENT_BLOCK, SEGMENT_BLOCK + 1, 45]))):
        feature = PASS_FEATURES[rng.integers(len(PASS_FEATURES))]
        n = 40 if feature == "wide" else int(rng.integers(1, 13))
        pos, w = rng.uniform(-2.0, 2.0, n), rng.dirichlet(np.ones(n))
        atom = mu.positions[rng.integers(len(mu))]
        if feature == "near":
            pos[0] = atom + rng.choice([6e-13, -MERGE_TOL])
        elif feature == "joined":
            pos[0] = atom
        elif feature == "subnormal" and n > 1:
            w[0] = 1e-320
            w[1:] = w[1:] / math.fsum(w[1:].tolist())
        measures.append(mu if feature == "equal" else DiscreteMeasure(pos, w))
    return mu, measures, draw(st.sampled_from([2, 32]))


def segment_outcome(integrals):
    """The bits of the values ``integrals()`` gives, or its error's type and
    message."""
    try:
        values = integrals()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(FIELDS))
class TestSegmentBlocks:
    """``segment_integral_each`` gives every segment of a pass the bits of
    the node loop on that segment alone."""

    @given(segment_passes())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_bit_identical_to_node_loop(self, name, case):
        mu, measures, quad_order = case
        H = FIELDS[name]
        got = segment_integral_each(H, mu, measures, quad_order)
        assert same_bits(got, [segment_integral_loop(H, mu, m, quad_order) for m in measures])


def antiderivative_pass():
    """45 measures of a draw pass, one block and a partial one: measure 3
    has an atom within MERGE_TOL of 0 (the node path), measure 5 one at 0
    (it joins), measure 7 is the base point; and their quotient points,
    within MERGE_TOL of an atom for measure 2 (the step path) and on one for
    measure 4."""
    ms, xs = zip(*random_draws(5, "antiderivative-pass", range(45), 1.5, points=1))
    ms, xs = list(ms), list(xs)
    ms[3] = DiscreteMeasure(np.append(ms[3].positions, 6e-13), np.append(0.5 * ms[3].weights, 0.5))
    ms[5] = DiscreteMeasure(np.append(ms[5].positions, 0.0), np.append(0.5 * ms[5].weights, 0.5))
    ms[7] = BASE_POINT
    xs[2], xs[4] = float(ms[2].positions[0]) + 7e-13, float(ms[4].positions[-1])
    return ms, xs


class TestAntiderivativePasses:
    @pytest.mark.parametrize("name", ["lift-sin_cos_product", "counterexample-sin-cos", "canonical-lift", "zero"])
    def test_values_and_quotients_of_a_pass(self, name):
        H = FIELDS[name]
        F = antiderivative(H, 32)
        ms, xs = antiderivative_pass()
        nodes, _ = gauss_legendre_01(32)
        assert mix_rows(BASE_POINT, ms[3], nodes) is None and mix_rows(BASE_POINT, ms[5], nodes) is not None
        assert mix_rows(ms[2], dirac(xs[2]), (1e-3, 5e-4)) is None

        def F_loop(m):
            return segment_integral_loop(H, BASE_POINT, m, 32)

        assert same_bits(F.evaluate_flat(*_flat_atoms((m.positions, m.weights) for m in ms)), [F_loop(m) for m in ms])
        expected = [dawson_extrapolated_loop(F_loop, m, x, 1e-3) for m, x in zip(ms, xs)]
        assert same_bits(dawson_extrapolated_each(F, ms, xs, 1e-3), expected)

    def test_errors_raised_as_the_segments_alone_raise_them(self):
        # phi overflows to inf beyond |x| = 1.2e4, so integrating it over a
        # measure with an atom there raises. Measures 1 (in the block) and 3
        # (on the node path, which runs before the block) have one
        H = counterexample_field(polynomial((0.0, 0.0, 1e300)), cos_fn())
        ms, _ = antiderivative_pass()
        for i, x in ((1, -2e4), (3, 3e4), (20, 4e4)):
            ms[i] = DiscreteMeasure(np.append(ms[i].positions, x), np.append(0.5 * ms[i].weights, 0.5))
        with np.errstate(over="ignore"):
            for pass_ in (ms, ms[2:]):
                expected = segment_outcome(lambda: [segment_integral_loop(H, BASE_POINT, m, 32) for m in pass_])
                assert expected[0] is ValueError and "not finite at atom" in expected[1]
                assert segment_outcome(lambda: segment_integral_each(H, BASE_POINT, pass_, 32)) == expected

    def test_non_finite_values_keep_the_bits_of_their_segment(self):
        # H(m, x) = c (x - <x, m>) with c = 1.5e308 overflows where
        # |x - <x, m>| > 1.2: dirac(3) and dirac(-2.5) integrate to inf and
        # -inf, and [-3, 3] raises on -inf + inf. In a block, dirac(3)'s two
        # points are padded with a copy of 3 of weight 0, and 0 * inf is NaN:
        # the segment is computed again alone
        H = lift_to_field(CylinderFunction((affine(1.0, 0.0),), outer_linear((1.5e308,))))
        narrow = DiscreteMeasure(np.linspace(-0.05, 0.05, 6), np.full(6, 1 / 6))
        both = DiscreteMeasure([-3.0, 3.0], [0.5, 0.5])
        for ms in ([narrow, dirac(3.0), narrow], [dirac(3.0), narrow], [narrow, dirac(-2.5), dirac(3.0)], [narrow, both]):
            with np.errstate(over="ignore", invalid="ignore"):
                expected = segment_outcome(lambda: [segment_integral_loop(H, BASE_POINT, m, 32) for m in ms])
                assert segment_outcome(lambda: segment_integral_each(H, BASE_POINT, ms, 32)) == expected
        with np.errstate(over="ignore", invalid="ignore"):
            assert segment_integral_each(H, BASE_POINT, [narrow, dirac(3.0), dirac(-2.5)], 32)[1:].tolist() == [
                math.inf, -math.inf
            ]
            with pytest.raises(ValueError, match=re.escape("-inf + inf in fsum")):
                segment_integral_each(H, BASE_POINT, [narrow, both], 32)

    def test_blocks_bounded(self):
        """Blocks of at most SEGMENT_BLOCK segments and BLOCK_VALUES node
        weights; one segment goes to the field with no leading axis."""
        H = FIELDS["lift-sin_cos_product"]
        shapes = []

        def spy(positions, weights, xs):
            shapes.append(weights.shape)
            return H.batch_value(positions, weights, xs)

        spied = DerivativeField(value=H.value, dx=H.dx, batch_value=spy)
        ms, _ = antiderivative_pass()
        wide = DiscreteMeasure(np.linspace(-1, 1, 300), np.full(300, 1 / 300))
        segment_integral_each(spied, BASE_POINT, ms + [wide, wide] + ms[:2], 32)
        # measure 3 takes the node path and measure 7 has no atom: 43 segments
        assert [s[0] for s in shapes[:2]] == [SEGMENT_BLOCK, 43 - SEGMENT_BLOCK]
        assert shapes[2:4] == [(32, 301), (32, 301)] and shapes[4][:2] == (2, 32)  # a wide one alone
        assert all(math.prod(s) <= BLOCK_VALUES for s in shapes)
        segment_integral(spied, BASE_POINT, ms[0], 32)
        assert len(shapes[-1]) == 2


# ------------------------------------------------------------ Richardson steps and cylinder derivatives against the loops


def dawson_loop(F, m, x, eps):
    """The former ``dawson``: one ``mix`` and two evaluations of F."""
    return (F(mix(m, dirac(x), eps)) - F(m)) / eps


def dawson_extrapolated_loop(F, m, x, eps):
    """The former ``dawson_extrapolated``: one ``mix`` per step."""
    base = F(m)
    point = dirac(x)
    q_full = (F(mix(m, point, eps)) - base) / eps
    q_half = (F(mix(m, point, 0.5 * eps)) - base) / (0.5 * eps)
    return 2.0 * q_half - q_full


def product_skipping_former(v, skip) -> float:
    out = 1.0
    for j, vj in enumerate(v):
        if j not in skip:
            out *= float(vj)
    return out


def gradient_former(g, v) -> np.ndarray:
    """The former per-point ``OuterMap.gradient``, frozen as the oracle."""
    v = np.asarray(v, dtype=float)
    kind = g.kind
    k = g.arity
    if kind == "linear":
        return np.asarray(g.params[0], dtype=float).copy()
    if kind == "product":
        return np.array([product_skipping_former(v, (i,)) for i in range(k)])
    if kind == "polynomial":
        (terms,) = g.params
        grad = np.zeros(k)
        for c, exps in terms:
            for i, e in enumerate(exps):
                if e >= 1:
                    grad[i] += (
                        c * e * v[i] ** (e - 1)
                        * math.prod(v[j] ** ej for j, ej in enumerate(exps) if j != i)
                    )
        return grad
    weights = np.asarray(g.params[0], dtype=float)
    s = float(np.dot(weights, v))
    scale = math.cos(s) if kind == "sin_of_sum" else math.exp(s)
    return scale * weights


def hessian_former(g, v) -> np.ndarray:
    """The former ``OuterMap.hessian``, frozen as the oracle."""
    v = np.asarray(v, dtype=float)
    kind = g.kind
    k = g.arity
    if kind == "linear":
        return np.zeros((k, k))
    if kind == "product":
        hess = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                hess[i, j] = hess[j, i] = product_skipping_former(v, (i, j))
        return hess
    if kind == "polynomial":
        (terms,) = g.params
        hess = np.zeros((k, k))
        for c, exps in terms:
            for i, ei in enumerate(exps):
                if ei >= 2:
                    hess[i, i] += (
                        c * ei * (ei - 1) * v[i] ** (ei - 2)
                        * math.prod(v[j] ** ej for j, ej in enumerate(exps) if j != i)
                    )
                if ei >= 1:
                    for j in range(i + 1, k):
                        ej = exps[j]
                        if ej >= 1:
                            cross = (
                                c * ei * ej * v[i] ** (ei - 1) * v[j] ** (ej - 1)
                                * math.prod(v[l] ** el for l, el in enumerate(exps) if l != i and l != j)
                            )
                            hess[i, j] += cross
                            hess[j, i] += cross
        return hess
    weights = np.asarray(g.params[0], dtype=float)
    s = float(np.dot(weights, v))
    scale = -math.sin(s) if kind == "sin_of_sum" else math.exp(s)
    return scale * np.outer(weights, weights)


def value_former(g, v) -> float:
    """The former per-point ``OuterMap.value``, frozen as the oracle."""
    v = np.asarray(v, dtype=float)
    kind = g.kind
    if kind == "linear":
        return float(g.params[1] + np.dot(np.asarray(g.params[0], dtype=float), v))
    if kind == "product":
        return float(np.prod(v))
    if kind == "polynomial":
        (terms,) = g.params
        return math.fsum(c * math.prod(v[i] ** e for i, e in enumerate(exps)) for c, exps in terms)
    s = float(np.dot(np.asarray(g.params[0], dtype=float), v))
    return math.sin(s) if kind == "sin_of_sum" else math.exp(s)


def exact_delta_loop(F, m, x):
    """The former ``CylinderFunction.exact_delta``: a moment pass per call,
    with the frozen gradient."""
    v = F.moments(m)
    grad = gradient_former(F.outer, v)
    xs = np.asarray(x, dtype=float)
    acc = np.zeros(xs.shape)
    for i, f in enumerate(F.inner):
        acc = acc + grad[i] * (f(xs) - v[i])
    return float(acc) if np.ndim(x) == 0 else acc


def exact_delta2_loop(F, m, x, y):
    """The former ``CylinderFunction.exact_delta2``: a moment pass per call."""
    v = F.moments(m)
    grad = gradient_former(F.outer, v)
    hess = hessian_former(F.outer, v)
    bx, by = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    dx = np.stack([np.broadcast_to(f(bx) - v[i], bx.shape) for i, f in enumerate(F.inner)])
    dy = np.stack([np.broadcast_to(f(by) - v[i], by.shape) for i, f in enumerate(F.inner)])
    out = np.einsum("i...,ij,j...->...", dx, hess, dy) - np.einsum("i,i...->...", grad, dy)
    return float(out) if np.ndim(x) == 0 and np.ndim(y) == 0 else out


def delta_dx_loop(F, m, x):
    v = F.moments(m)
    grad = gradient_former(F.outer, v)
    xs = np.asarray(x, dtype=float)
    acc = np.zeros(xs.shape)
    for i, f in enumerate(F.inner):
        acc = acc + grad[i] * f.derivative(xs)
    return float(acc) if np.ndim(x) == 0 else acc


def check_dawson_linear_loop(seed, samples=200):
    """Criterion 2 as it was: four quotient calls per (function, sample)."""
    battery = standard_battery()
    draws = []
    for i in range(samples):
        rng = stream_rng(seed, "dawson-samples", i)
        draws.append((random_measure_former(rng, 1.0), random_point(rng, 1.0)))
    eps_grid = (1e-2, 5e-3, 2.5e-3)
    per_fn = []
    for F in battery:
        ext_err = 0.0
        raw_err = {e: 0.0 for e in eps_grid}
        for m, x in draws:
            exact = exact_delta_loop(F, m, x)
            ext_err = max(ext_err, abs(dawson_extrapolated_loop(F.evaluate, m, x, 1e-3) - exact))
            for e in eps_grid:
                raw_err[e] = max(raw_err[e], abs(dawson_loop(F.evaluate, m, x, e) - exact))
        degenerate = raw_err[eps_grid[0]] <= 1e-10
        if degenerate:
            order = None
            order_ok = all(v <= 1e-10 for v in raw_err.values())
        else:
            order = float(np.polyfit(np.log(eps_grid), np.log([raw_err[e] for e in eps_grid]), 1)[0])
            order_ok = 0.9 <= order <= 1.1
        per_fn.append(
            {
                "label": F.label,
                "extrapolated_err_max": float(ext_err),
                "order": order,
                "degenerate": bool(degenerate),
                "ok": bool(ext_err <= 1e-5 and order_ok),
            }
        )
    return {
        "criterion": 2,
        "name": "dawson_matches_exact_derivative",
        "ok": all(r["ok"] for r in per_fn),
        "samples": samples,
        "eps": 1e-3,
        "eps_grid": list(eps_grid),
        "seed": int(seed),
        "functions": per_fn,
    }


def check_canonical_normalization_loop(seed, samples=25):
    """Criterion 4 as it was: one quotient call per (atom, step)."""
    exact_max = estimated_max = 0.0
    for i in range(samples):
        m = random_measure_former(stream_rng(seed, "canonical", i), 1.0)
        for F in standard_battery():
            exact_max = max(
                exact_max, abs(math.fsum((m.weights * exact_delta_loop(F, m, m.positions)).tolist()))
            )
            est = math.fsum(
                m.weights[j] * dawson_extrapolated_loop(F.evaluate, m, float(p), 1e-3)
                for j, p in enumerate(m.positions)
            )
            estimated_max = max(estimated_max, abs(est))
    return {
        "criterion": 4,
        "name": "canonical_normalization",
        "ok": exact_max <= 1e-12 and estimated_max <= 1e-5,
        "exact_integral_max": float(exact_max),
        "estimated_integral_max": float(estimated_max),
        "samples": samples,
        "eps": 1e-3,
        "seed": int(seed),
    }


def check_second_derivative_symmetry_loop(seed, samples=1000):
    """Criterion 7 as it was: four moment passes per (function, sample)."""
    curved = [F for F in standard_battery() if F.has_nontrivial_hessian()]
    residual_max = 0.0
    for i in range(samples):
        rng = stream_rng(seed, "symmetry", i)
        m = random_measure_former(rng, 1.0)
        x = random_point(rng, 1.0)
        y = random_point(rng, 1.0)
        for F in curved:
            residual = (
                exact_delta2_loop(F, m, x, y)
                - exact_delta_loop(F, m, x)
                - exact_delta2_loop(F, m, y, x)
                + exact_delta_loop(F, m, y)
            )
            residual_max = max(residual_max, abs(residual))
    return {
        "criterion": 7,
        "name": "second_derivative_symmetry",
        "ok": residual_max <= 1e-10,
        "residual_max": float(residual_max),
        "functions": [F.label for F in curved],
        "samples": samples,
        "seed": int(seed),
    }


def check_metric_properties_loop(seed, samples=1000):
    """Criterion 8 as it was: per triple, its three distances, then one
    duality pairing per probe, each of ``integrate`` pairs."""
    probes = lipschitz_probes()
    triangle_max = kr_max = -math.inf
    for i in range(samples):
        rng = stream_rng(seed, "metric", i)
        a, b, c = (random_measure_former(rng, 2.0) for _ in range(3))
        d_ab, d_bc, d_ac = w1(a, b), w1(b, c), w1(a, c)
        triangle_max = max(triangle_max, d_ac - d_ab - d_bc)
        kr_max = max(kr_max, max(integrate(a, f) - integrate(b, f) - d_ab for f in probes))
    return {
        "criterion": 8,
        "name": "metric_properties",
        "ok": triangle_max <= 1e-12 and kr_max <= 1e-12,
        "triangle_excess_max": float(triangle_max),
        "kr_excess_max": float(kr_max),
        "samples": samples,
        "lipschitz_probes": [f.name for f in probes],
        "seed": int(seed),
    }


def user_function(m):
    """A function of a measure with no batch evaluator."""
    return math.fsum((m.weights * np.cos(m.positions)).tolist()) * float(m.positions[-1])


CONSTANT = CylinderFunction((), outer_polynomial([(2.0, ())]), label="constant")
QUOTIENT_FUNCTIONS = {
    **{F.label: F for F in standard_battery()},
    "constant": CONSTANT,
    "evaluate-gauss_poly": standard_battery()[-1].evaluate,
    "evaluate-sin_cos_product": standard_battery()[2].evaluate,
    "user": user_function,
}
QUOTIENT_FEATURES = ("plain", "atom", "near", "subnormal")
CRITERION_STEPS = (1e-3, 5e-4, 1e-2, 5e-3, 2.5e-3)
step_values = st.sampled_from(CRITERION_STEPS + (0.5, 0.25, MIN_STEP, 2.0 * MIN_STEP)) | st.floats(MIN_STEP, 0.5)


@st.composite
def quotient_cases(draw):
    """(feature, m, x, steps) with 1 to 12 atoms.

    The feature places x on an atom of m (the rows merge it), within
    MERGE_TOL of one (no shared support: the step loop runs), or elsewhere;
    or gives m a subnormal weight, which (1 - s) times underflows to zero for
    the largest steps.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feature = draw(st.sampled_from(QUOTIENT_FEATURES))
    n = draw(st.integers(1, 12))
    pos, w = rng.uniform(-1.5, 1.5, n), rng.dirichlet(np.ones(n))
    if feature == "subnormal" and n > 1:
        w[0] = draw(st.sampled_from(SUBNORMALS))
        w[1:] = w[1:] / math.fsum(w[1:].tolist())
    m = DiscreteMeasure(pos, w)
    x = float(rng.uniform(-1.5, 1.5))
    atom = float(m.positions[draw(st.integers(0, len(m) - 1))])
    if feature == "atom":
        x = atom
    elif feature == "near":
        x = atom + draw(st.sampled_from([3e-13, -6e-13, MERGE_TOL, -MERGE_TOL]))
    steps = draw(st.lists(step_values, min_size=1, max_size=6))
    return feature, m, x, steps


class RowsOnly:
    """F that answers F(m) at the base measure only; every other measure
    must come through ``evaluate_flat``."""

    def __init__(self, F, m):
        self.F, self.m = F, m

    def __call__(self, measure):
        assert measure is self.m, "step evaluated through mix"
        return self.F(measure)

    def evaluate_flat(self, positions, weights, rows, count):
        return self.F.evaluate_flat(positions, weights, rows, count)


@pytest.mark.parametrize("name", sorted(QUOTIENT_FUNCTIONS))
class TestQuotientRows:
    @given(quotient_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(("subnormal", DiscreteMeasure([0.0, 1.0], [5e-324, 1.0]), 0.5, [0.5, 1e-3]))
    def test_bit_identical_to_step_loop(self, name, case):
        feature, m, x, steps = case
        F = QUOTIENT_FUNCTIONS[name]
        rows = dawson_rows(F, m, x, steps)
        assert rows.shape == (len(steps),)
        for s, q in zip(steps, rows.tolist()):
            expected = dawson_loop(F, m, x, s)
            assert same_bits(q, expected)
            assert same_bits(dawson(F, m, x, s), expected)
            if s <= 0.25 and 0.5 * s >= MIN_STEP:
                assert same_bits(dawson_extrapolated(F, m, x, s), dawson_extrapolated_loop(F, m, x, s))
            elif s <= 0.25:  # the half step lies below the bound
                with pytest.raises(ValueError):
                    dawson_extrapolated(F, m, x, s)


class TestQuotientPaths:
    @given(quotient_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_shared_support_unless_merged_or_underflowed(self, case):
        feature, m, x, steps = case
        batch = mix_rows(m, dirac(x), steps)
        if feature in ("plain", "atom"):
            assert batch is not None
        gap = float(np.min(np.abs(m.positions - x)))
        if 0.0 < gap <= MERGE_TOL:
            assert batch is None

    @given(quotient_cases(), st.floats(0.0, MIN_STEP, exclude_max=True) | st.sampled_from([2.0**-52, 2.3e-16]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_steps_below_the_bound_raise(self, case, small):
        _, m, x, steps = case
        for F in (standard_battery()[2], user_function):
            with pytest.raises(ValueError, match="step"):
                dawson_rows(F, m, x, steps + [small])
            with pytest.raises(ValueError, match="step"):
                dawson_extrapolated(F, m, x, 2.0 * small)

    def test_underflowed_step_falls_back(self):
        m = DiscreteMeasure([0.0, 1.0], [5e-324, 1.0])
        assert len(mix(m, dirac(0.5), 0.5)) == 2  # 0.5 * 5e-324 rounds to 0
        assert mix_rows(m, dirac(0.5), [0.5]) is None
        with pytest.raises(AssertionError, match="through mix"):
            dawson_rows(RowsOnly(standard_battery()[2], m), m, 0.5, [0.5])

    @pytest.mark.parametrize("F", standard_battery(), ids=lambda F: F.label)
    def test_cylinder_steps_take_the_batched_path(self, F):
        m = DiscreteMeasure([-0.8, 0.1, 0.6], [0.3, 0.4, 0.3])
        for x in (0.5, 0.1):  # off and on an atom
            got = dawson_rows(RowsOnly(F, m), m, x, CRITERION_STEPS)
            assert same_bits(got, [dawson_loop(F, m, x, s) for s in CRITERION_STEPS])
            assert same_bits(dawson_extrapolated(RowsOnly(F, m), m, x, 1e-3), dawson_extrapolated_loop(F, m, x, 1e-3))


def uniform_dawson_modulus_loop(F, oracle, K, eps, samples, seed):
    """The former ``uniform_dawson_modulus``: one quotient per sampled draw."""
    gaps = []
    for i in range(samples):
        rng = stream_rng(seed, "dawson-modulus", i)
        m = random_measure_former(rng, K)
        x = random_point(rng, K)
        gaps.append(abs(dawson_loop(F, m, x, eps) - oracle.value(m, x)))
    return max(gaps)


# overflows a double beyond |x| = 1, so the integrand is not finite there
STEEP = CylinderFunction((polynomial((0.0, 0.0, 1e308)),), outer_linear((1.0,)), label="steep")


class TestQuotientsOfManyPairs:
    """``dawson_each`` gives every (function, pair) the bits of the step
    loop, whichever of the flat and the step paths each pair takes, and the
    error that the loop of ``dawson_rows`` calls raises first."""

    @given(st.lists(quotient_cases(), min_size=1, max_size=6), st.lists(step_values, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None, derandomize=True)
    @example(  # the flat path, an underflowed step and a merged point in one batch
        [("atom", DiscreteMeasure([-0.8, 0.1], [0.5, 0.5]), 0.1, []),
         ("subnormal", DiscreteMeasure([0.0, 1.0], [5e-324, 1.0]), 0.5, []),
         ("near", DiscreteMeasure([-0.8, 0.1], [0.5, 0.5]), 0.1 + 3e-13, [])],
        [0.5, 1e-3],
    )
    def test_every_entry_is_the_step_loop(self, cases, steps):
        functions = list(QUOTIENT_FUNCTIONS.values())
        _, ms, xs, _ = zip(*cases)
        got = dawson_each(functions, ms, xs, steps)
        assert got.shape == (len(functions), len(cases), len(steps))
        for F, rows in zip(functions, got):
            for m, x, row in zip(ms, xs, rows):
                assert same_bits(row, [dawson_loop(F, m, x, s) for s in steps])

    def test_shared_supports_take_the_flat_path(self):
        ms = [DiscreteMeasure([-0.8, 0.1, 0.6], [0.3, 0.4, 0.3]), dirac(0.2), DiscreteMeasure([0.0, 1.0], [0.5, 0.5])]
        xs = [0.5, 0.2, -0.3]  # off an atom, on one, off
        for F in standard_battery():
            got = dawson_each([RowsOnly(F, None)], ms, xs, CRITERION_STEPS)[0]
            assert same_bits(got, [[dawson_loop(F, m, x, s) for s in CRITERION_STEPS] for m, x in zip(ms, xs)])

    def test_no_pairs_and_unmatched_pairs(self):
        assert dawson_each(standard_battery(), [], [], CRITERION_STEPS).shape == (7, 0, 5)
        with pytest.raises(ValueError, match="as many"):
            dawson_each([user_function], [dirac(0.0)], [], CRITERION_STEPS)

    @pytest.mark.parametrize("F", [STEEP, STEEP.evaluate], ids=["flat", "step"])
    def test_error_of_the_first_failing_pair(self, F):
        ms = [dirac(0.5), DiscreteMeasure([0.2, 0.9], [0.5, 0.5]), DiscreteMeasure([-2.0, 0.1], [0.5, 0.5])]
        xs = [0.3, 1.5, 0.0]  # the second pair's point, the third pair's atom are bad
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as each:
                dawson_each([standard_battery()[2], F], ms, xs, CRITERION_STEPS)
            with pytest.raises(ValueError) as loop:
                for G in (standard_battery()[2], F):
                    for m, x in zip(ms, xs):
                        dawson_rows(G, m, x, CRITERION_STEPS)
        assert str(each.value) == str(loop.value) == "integrand is not finite at atom 1.5"

    @pytest.mark.parametrize("F", [standard_battery()[6], standard_battery()[6].evaluate], ids=["flat", "step"])
    def test_uniform_dawson_modulus_is_the_draw_loop(self, F):
        oracle = lift_to_field(standard_battery()[6])
        for samples in (1, 250):  # 250 ends in a partial draw pass
            got = uniform_dawson_modulus(F, oracle, 1.5, 1e-3, samples, seed=5)
            assert same_bits(got, uniform_dawson_modulus_loop(F, oracle, 1.5, 1e-3, samples, 5))


# scalar points, both zeros included (f(-0.0) and f(0.0) may differ in sign)
points = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300])


@st.composite
def derivative_cases(draw):
    """(m, x, y, xs, ys): scalars, some on atoms of m, and 1-D point arrays."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    m = DiscreteMeasure(rng.uniform(-1.5, 1.5, n), rng.dirichlet(np.ones(n)))
    x, y = draw(points), draw(points)
    if draw(st.booleans()):
        x = float(m.positions[0])
    if draw(st.booleans()):
        y = x
    k = draw(st.integers(1, 6))
    return m, x, y, rng.uniform(-2.0, 2.0, k), rng.uniform(-2.0, 2.0, k)


class TestCylinderDerivatives:
    @pytest.mark.parametrize("F", standard_battery() + (CONSTANT,), ids=lambda F: F.label)
    @given(derivative_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    @example((dirac(0.0), -0.0, 0.0, np.array([-0.0, 0.0]), np.array([0.0, -0.0])))
    def test_bit_identical_to_per_call_loop(self, F, case):
        m, x, y, xs, ys = case
        d = F.derivatives(m)
        for p in (x, y, xs):
            assert same_bits(F.exact_delta(m, p), exact_delta_loop(F, m, p))
            assert same_bits(d.delta(p), exact_delta_loop(F, m, p))
            assert same_bits(F.delta_dx(m, p), delta_dx_loop(F, m, p))
        if not F.inner:  # the former exact_delta2 could not stack zero moments
            assert d.delta2(x, y) == 0.0
            return
        # the criterion-7 order: both scalar terms after the first one reuse
        # the centred vectors kept for x and y
        for p, q in ((x, y), (y, x), (xs, ys), (xs[:, None], ys[None, :]), (x, ys), (xs, y)):
            assert same_bits(d.delta2(p, q), exact_delta2_loop(F, m, p, q))
            assert same_bits(F.exact_delta2(m, p, q), exact_delta2_loop(F, m, p, q))
        assert isinstance(d.delta2(x, y), float) and isinstance(d.delta(x), float)


# finite weights and coefficients; moments also zero, -0.0, subnormal, huge and infinite
OUTER_NUMBERS = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1.0, -0.5, 3.0])
MOMENTS = (
    st.floats(-3.0, 3.0)
    | st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e150, -1e150, 1e200, -1e200, 1.7976931348623157e308])
    | st.floats()
)
OUTER_KINDS = ("linear", "product", "polynomial", "sin_of_sum", "exp_of_sum")


def outer_map_of(kind, k, draw):
    weights = draw(st.lists(OUTER_NUMBERS, min_size=k, max_size=k))
    if kind == "linear":
        return outer_linear(weights, draw(OUTER_NUMBERS))
    if kind == "product":
        return outer_product(k)
    if kind == "polynomial":
        exps = st.lists(st.integers(0, 4), min_size=k, max_size=k)
        return outer_polynomial(draw(st.lists(st.tuples(OUTER_NUMBERS, exps), min_size=1, max_size=3)))
    return (outer_sin if kind == "sin_of_sum" else outer_exp)(weights)


@st.composite
def outer_rows(draw):
    """(g, V): an outer map of arity 1 to 4 and a (rows, k) moment array."""
    k = draw(st.integers(1, 4))
    g = outer_map_of(draw(st.sampled_from(OUTER_KINDS)), k, draw)
    rows = draw(st.lists(st.lists(MOMENTS, min_size=k, max_size=k), min_size=1, max_size=24))
    return g, np.array(rows, dtype=float)


def outer_outcome(derivative, v):
    """The value, gradient or Hessian, or the type of the error it raises
    (math.exp overflows, math.cos of an infinite sum, math.fsum of inf and
    -inf)."""
    try:
        return derivative(v)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_rows_match_former(g, V):
    """g.value, g.gradient and g.hessian on V as one batch and row by row,
    against the frozen per-point value, gradient and Hessian of each row."""
    k = V.shape[1]
    for method, former, shape in (
        (g.value, value_former, ()),
        (g.gradient, gradient_former, (k,)),
        (g.hessian, hessian_former, (k, k)),
    ):
        with np.errstate(all="ignore"):
            expected = [outer_outcome(lambda v: former(g, v), row.copy()) for row in V]
            errors = tuple({e for e in expected if isinstance(e, type)})
            for row, want in zip(V, expected):
                got = outer_outcome(method, row.copy())
                assert got is want if isinstance(want, type) else same_bits(got, want)
            if errors:
                with pytest.raises(errors):
                    method(V)
                continue
            batch = method(V)
        assert batch.shape == V.shape[:1] + shape
        for got, want in zip(batch, expected):
            assert same_bits(got, want)


class TestOuterGradient:
    """``OuterMap.value``, ``gradient`` and ``hessian`` on a point and on a
    (rows, k) batch: every row keeps the bits of the frozen per-point value,
    gradient and Hessian. The dense tests hold the three batch formulas that
    lose bits on some values to many rows: a matrix product for the weighted
    sums (another order of the terms, where np.dot fuses a multiply and add),
    numpy's array exp, sin and cos, and array powers (x ** 2 squares; numpy's
    scalar power calls pow)."""

    @given(outer_rows())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_rows_match_the_frozen_value_gradient_and_hessian(self, case):
        assert_rows_match_former(*case)

    @pytest.mark.parametrize(
        "g",
        [outer_linear((0.75, -1.5)), outer_sin((0.7, -1.3)), outer_exp((0.5, 0.25, -0.75)),
         outer_polynomial([(1.5, (3, 2)), (-0.5, (4, 0)), (2.0, (1, 3))]), outer_product(3)],
        ids=lambda g: g.kind,
    )
    def test_dense_rows(self, g):
        V = np.random.default_rng(12).uniform(-2.0, 2.0, (20_000, g.arity))
        assert_rows_match_former(g, V)

    def test_product_of_zero_moments_does_not_divide(self):
        V = np.array([[0.0, 2.0, 3.0], [-0.0, 0.0, 5.0], [-0.0, -0.0, -0.0]])
        assert_rows_match_former(outer_product(3), V)
        assert same_bits(outer_product(3).gradient(V[0]), [6.0, 0.0, 0.0])

    def test_overflow_gives_inf(self):
        """numpy's scalar power overflows to inf with a RuntimeWarning, where
        Python's float power raises OverflowError; the gradient keeps inf."""
        g = outer_polynomial([(1.0, (3,))])
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert same_bits(g.gradient([1e200]), [math.inf])
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert same_bits(g.gradient([[1e200], [2.0], [-1e200]]), [[math.inf], [12.0], [math.inf]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert same_bits(outer_polynomial([(1.0, (4,))]).gradient([[-1e200]]), [[-math.inf]])

    def test_shapes(self):
        for g in (outer_linear((1.0,)), outer_product(1), outer_polynomial([(2.0, (0, 0))])):
            rows = np.full((3, g.arity), 0.5)
            assert g.gradient(rows).shape == rows.shape
            assert g.gradient(rows[0]).shape == (g.arity,)
        assert CONSTANT.outer.gradient(np.zeros((4, 0))).shape == (4, 0)

    def test_hessian_matches_the_frozen_hessian(self):
        for F in standard_battery():
            for v in ([0.3, -0.7], [-0.0, 0.0], [1e200, 2.0], [0.37, 0.37]):
                v = np.array(v[: F.outer.arity])
                with np.errstate(all="ignore"):
                    got = outer_outcome(F.outer.hessian, v)
                    want = outer_outcome(lambda v: hessian_former(F.outer, v), v)
                assert got is want if isinstance(want, type) else same_bits(got, want)

    def test_one_gradient_call_per_batch(self, monkeypatch):
        """A segment on the batched path calls the gradient once for all its
        Gauss nodes: ``exact_delta_rows`` takes the derivatives of all its
        rows at once, and each ``CylinderDerivatives`` calls it once."""
        from wasserstein_calculus import functions

        calls = {"gradient": 0, "rows": 0, "derivatives": 0}

        def counting(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(functions.OuterMap, "gradient", counting("gradient", functions.OuterMap.gradient))
        monkeypatch.setattr(functions.CylinderFunction, "exact_delta_rows",
                            counting("rows", functions.CylinderFunction.exact_delta_rows))
        monkeypatch.setattr(functions.CylinderDerivatives, "__init__",
                            counting("derivatives", functions.CylinderDerivatives.__init__))
        m = DiscreteMeasure([-0.5, 0.25, 1.0], [0.25, 0.25, 0.5])
        for F in standard_battery():
            antiderivative(lift_to_field(F), 32)(m)
        assert calls["rows"] == len(standard_battery())
        assert calls["gradient"] == calls["derivatives"] == calls["rows"]


INNER_FUNCTIONS = (
    sin_fn(), cos_fn(), tanh_fn(), gaussian(0.3, 0.7), polynomial((0.5, -1.0, 0.25)), affine(2.0, -0.5), smooth_abs(0.1)
)


@st.composite
def derivative_rows(draw):
    """(F, V, xs, ys): a cylinder function with the outer map of
    ``outer_rows`` (arity 1 to 4) and catalog inner functions, its (rows, k)
    moments, and one point pair per row."""
    g, V = draw(outer_rows())
    inner = tuple(draw(st.sampled_from(INNER_FUNCTIONS)) for _ in range(g.arity))
    per_row = st.lists(points, min_size=len(V), max_size=len(V))
    return CylinderFunction(inner, g), V, np.array(draw(per_row)), np.array(draw(per_row))


class AtMoments:
    """F with the moments v at every measure: the loops read ``F.moments``."""

    def __init__(self, F, v):
        self.inner, self.outer, self.v = F.inner, F.outer, v

    def moments(self, m):
        return self.v


def same_bits_or_nan(x, y) -> bool:
    """``same_bits``, where any two NaNs match: an addition of two NaNs keeps
    the sign and payload of its first operand, and the formulas keep the
    order of their terms, not that of their operands."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    nan = np.isnan(x)
    return x.shape == y.shape and bool((nan == np.isnan(y)).all()) and same_bits(x[~nan], y[~nan])


def derivative_outcome(derivatives):
    """``delta(x)``, ``delta2(x, y)``, ``delta2(y, x)`` and ``delta_dx(x)``
    as ``derivatives()`` gives them, or the type of the error it raises."""
    try:
        return derivatives()
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestCylinderDerivativeRows:
    """``CylinderDerivatives`` on (rows, k) moments: each row of ``delta``,
    ``delta2`` and ``delta_dx`` at the row's own points keeps the bits of the
    per-call loops, whose ``delta2`` is np.einsum on one point pair."""

    @given(derivative_rows())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_rows_match_the_loops(self, case):
        F, V, xs, ys = case
        with np.errstate(all="ignore"):
            expected = [
                derivative_outcome(lambda: (
                    exact_delta_loop(G, None, x), exact_delta2_loop(G, None, x, y),
                    exact_delta2_loop(G, None, y, x), delta_dx_loop(G, None, x),
                ))
                for G, x, y in zip((AtMoments(F, v) for v in V), xs.tolist(), ys.tolist())
            ]

            def batch():
                d = CylinderDerivatives(F, V)
                x, y = xs[:, None], ys[:, None]  # one point per row
                return d.delta(x), d.delta2(x, y), d.delta2(y, x), d.delta_dx(x)

            got = derivative_outcome(batch)
        errors = {e for e in expected if isinstance(e, type)}
        if errors:
            assert got in errors
            return
        for r, want in enumerate(expected):
            for column, value in zip(got, want):
                assert column.shape == (len(V), 1) and same_bits_or_nan(column[r, 0], value)

    def test_rows_of_measures_are_their_one_measure_derivatives(self):
        ms = [DiscreteMeasure([-0.5, 0.25, 1.0], [0.25, 0.25, 0.5]), dirac(0.3), dirac(-0.0)]
        xs, ys = np.array([[0.1], [-0.7], [0.3]]), np.array([[0.4], [-0.0], [2.0]])
        shared = np.array([0.5, -1.0, 0.0])
        for F in standard_battery() + (CONSTANT,):
            d = F.derivatives(ms)
            assert same_bits(d.v, [F.moments(m) for m in ms])
            rows = d.delta(xs), d.delta2(xs, ys), d.delta_dx(xs), d.delta(shared), d.delta_dx(shared)
            for r, (m, (x,), (y,)) in enumerate(zip(ms, xs.tolist(), ys.tolist())):
                one = F.derivatives(m)
                want = one.delta(x), one.delta2(x, y), one.delta_dx(x), one.delta(shared), one.delta_dx(shared)
                for column, value in zip(rows, want):
                    assert same_bits(column[r] if column.shape[1] > 1 else column[r, 0], value)


@st.composite
def measure_lists(draw):
    """0 to 12 measures of 1 to 12 atoms, some shared, some far out."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(draw(st.integers(0, 12))):
        n = draw(st.integers(1, 12))
        scale = draw(st.sampled_from([1.0, 12.0, 1e-300]))
        out.append(DiscreteMeasure(rng.uniform(-scale, scale, n), rng.dirichlet(np.ones(n))))
    if out and draw(st.booleans()):
        out.append(out[0])
    return out


class TestPairingsOverMeasures:
    """``integrate_each`` and ``kr_lower_bound_rows`` give each measure and
    pair the bits and the errors of ``integrate`` and ``kr_lower_bound``."""

    @given(measure_lists(), st.sampled_from(list(lipschitz_probes()) + [polynomial((0.0, 0.0, 0.05)), gaussian(0.0, 0.5)]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bits_of_the_one_measure_calls(self, ms, f):
        assert same_bits(integrate_each(ms, f), [integrate(m, f) for m in ms])
        firsts, seconds = ms[: len(ms) // 2], ms[len(ms) // 2 : 2 * (len(ms) // 2)]
        try:
            # with no pairs, the checks of f still run: those of one pair at zero
            pairs = list(zip(firsts, seconds)) or [(dirac(0.0), dirac(0.0))]
            want = [kr_lower_bound(a, b, f) for a, b in pairs][: len(firsts)]
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                kr_lower_bound_rows(firsts, seconds, f)
        else:
            assert same_bits(kr_lower_bound_rows(firsts, seconds, f), want)

    def test_first_non_finite_value_is_named(self):
        ms = [dirac(1.0), DiscreteMeasure([2.0, -3.0], [0.5, 0.5]), dirac(-4.0)]
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="not finite at atom") as each:
                integrate_each(ms, np.sqrt)
            with pytest.raises(ValueError) as one:
                integrate(ms[1], np.sqrt)
        assert str(each.value) == str(one.value) == "integrand is not finite at atom -3.0"

    def test_pairs_must_match(self):
        with pytest.raises(ValueError, match="same number"):
            kr_lower_bound_rows([dirac(0.0)], [], sin_fn())


def segment_integral_each_loop(H, mu, measures, quad_order=32):
    """The former per-draw loop of antiderivative values: one
    ``segment_integral`` per measure."""
    return np.array([segment_integral(H, mu, m, quad_order) for m in measures])


def dawson_extrapolated_each_loop(F, measures, points, eps):
    """The former per-draw loop of quotients: one ``dawson_extrapolated``
    per pair, its steps made by ``mix``."""
    return np.array([dawson_extrapolated_loop(F, m, x, eps) for m, x in zip(measures, points)])


def per_draw_loops():
    """Criteria 5 and 6 and ``ftc_check`` with their former per-draw loops."""
    return (
        mock.patch.object(ftc_module, "segment_integral_each", segment_integral_each_loop),
        mock.patch.object(ftc_module, "dawson_extrapolated_each", dawson_extrapolated_each_loop),
        mock.patch.object(acceptance_module, "segment_integral_each", segment_integral_each_loop),
    )


@pytest.mark.parametrize("seed", [0, 11, 29])
class TestCriterionLoops:
    """Criteria 2, 4, 5, 6, 7 and 8 serialize to the bytes of their former
    loops; also at sample counts that end in a partial draw pass (100 draws a
    pass for criteria 2, 4 and 7 and ``ftc_check``, 33 triples for criterion
    8)."""

    def test_criteria_5_and_6(self, seed):
        got = [canonical_json(check(seed=seed)[0]) for check in (check_ftc_soundness, check_counterexample)]
        with contextlib.ExitStack() as stack:
            for patch in per_draw_loops():
                stack.enter_context(patch)
            assert got == [canonical_json(check(seed=seed)[0]) for check in (check_ftc_soundness, check_counterexample)]

    def test_ftc_check_in_a_partial_pass(self, seed):
        H = counterexample_field(sin_fn(), cos_fn())
        got = canonical_json(ftc_module.ftc_check(H, K=2.0, samples=250, seed=seed))
        with contextlib.ExitStack() as stack:
            for patch in per_draw_loops():
                stack.enter_context(patch)
            assert got == canonical_json(ftc_module.ftc_check(H, K=2.0, samples=250, seed=seed))

    def test_criterion_2(self, seed):
        report, _ = check_dawson_linear(seed=seed)
        assert canonical_json(report) == canonical_json(check_dawson_linear_loop(seed))

    def test_criterion_4(self, seed):
        report, _ = check_canonical_normalization(seed=seed)
        assert canonical_json(report) == canonical_json(check_canonical_normalization_loop(seed))

    def test_criterion_7(self, seed):
        report, _ = check_second_derivative_symmetry(seed=seed)
        assert canonical_json(report) == canonical_json(check_second_derivative_symmetry_loop(seed))

    def test_criterion_8(self, seed):
        report, _ = check_metric_properties(seed=seed)
        assert canonical_json(report) == canonical_json(check_metric_properties_loop(seed))

    def test_criteria_7_and_8_in_partial_passes(self, seed):
        report, _ = check_second_derivative_symmetry(seed=seed, samples=250)
        assert canonical_json(report) == canonical_json(check_second_derivative_symmetry_loop(seed, 250))
        report, _ = check_metric_properties(seed=seed, samples=250)
        assert canonical_json(report) == canonical_json(check_metric_properties_loop(seed, 250))

    def test_criteria_2_and_4_in_partial_passes(self, seed):
        report, _ = check_dawson_linear(seed=seed, samples=250)
        assert canonical_json(report) == canonical_json(check_dawson_linear_loop(seed, 250))
        report, _ = check_canonical_normalization(seed=seed, samples=130)
        assert canonical_json(report) == canonical_json(check_canonical_normalization_loop(seed, 130))
