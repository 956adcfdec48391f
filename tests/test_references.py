"""Vectorised exact core against loop references and rational oracles.

The loop references are the library's former sequential implementations:
the Neumaier running sum, the former validating constructor with its
per-group atom merge (and the merge of ``signed_difference``), the former
``mix_rows``, which dropped joined atoms with ``np.delete``, the dense
partition-of-unity weight matrix, the per-node segment quadrature (one
``mix`` and one field evaluation per Gauss node), the per-measure
``discretize`` and ``w1`` that criterion 1 called once per measure, the
per-step difference quotients (one ``mix`` per step), the per-call
cylinder derivatives (one moment pass per call) and the per-point outer-map
value, gradient and Hessian, with the criterion 2, 4, 7 and 8 loops and the
per-draw ``uniform_dawson_modulus`` built on them (criterion 8 on
``integrate`` pairs per probe and ``w1`` per pair), the per-draw
antiderivative, quotient, symmetry and closed-form loops of criteria 5 and
6, ``ftc_check`` and ``counterexample_report`` (each segment of a padded
block alone on the node loop, each segment prepared alone by
``signed_difference`` and ``mix_rows``), and the former
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
from wasserstein_calculus import derivative as derivative_module
from wasserstein_calculus import ftc as ftc_module
from wasserstein_calculus.acceptance import (
    MEASURES_PER_CASE,
    check_canonical_normalization,
    check_counterexample,
    check_dawson_linear,
    check_discretization,
    check_ftc_soundness,
    check_metric_properties,
    check_second_derivative_symmetry,
    discretization_case,
)
from wasserstein_calculus.derivative import BLOCK_VALUES, MIN_STEP, SEGMENT_BLOCK
from wasserstein_calculus.functions import CylinderDerivatives
from wasserstein_calculus.measures import (
    JSON_MASS_TOL,
    MASS_TOL,
    MERGE_TOL,
    _atom_rows,
    _flat_atoms,
    _group_atoms,
    _merged,
    _padded_rows,
    _values_at,
    _w1_flat,
    mix_rows,
)
from wasserstein_calculus import partition as partition_module
from wasserstein_calculus.partition import GRID_SNAP, WEIGHT_FLOOR, _discretize_flat, _mollifier, _smoothstep
from wasserstein_calculus import sampling
from wasserstein_calculus.sampling import (
    _DRAW_CHUNK,
    _passes,
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
from wasserstein_calculus.util import canonical_json, check_samples, compensated_cumsum, fsum, fsum_rows, gauss_legendre_01, max_or_nan

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


def mix_rows_former(a, b, ts):
    """The former ``mix_rows``: the rows' weights sorted as 2-D, a joined
    atom dropped by ``np.delete``."""
    if max(abs(a.total_mass - 1.0), abs(b.total_mass - 1.0)) > 0.5 * MASS_TOL:
        return None
    ts = np.asarray(ts, dtype=float)[:, None]
    pos = np.concatenate((a.positions, b.positions))
    order = pos.argsort(kind="stable")
    pos = pos[order]
    w = np.concatenate(((1.0 - ts) * a.weights, ts * b.weights), axis=1)[:, order]
    gaps = pos[1:] - pos[:-1]
    joined = np.flatnonzero(gaps <= MERGE_TOL)
    if joined.size:
        if (gaps[joined] != 0.0).any():
            return None
        w[:, joined] += w[:, joined + 1]
        pos, w = np.delete(pos, joined + 1), np.delete(w, joined + 1, axis=1)
    if not (w > 0.0).all():
        return None
    return pos, w


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
    cols, band = partition_module._band(scheme.bump_shape, scheme.n, scheme.edge_index, m.positions)
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

    @given(
        clustered_atoms(),
        clustered_atoms(),
        st.sampled_from([0.25, 0.5, 1.0 / 3.0, 1e-310, 2.0**-53, 1.0 - 2.0**-53]),
        st.booleans(),
        st.sampled_from([0.0, 0.75 * MASS_TOL, -0.75 * MASS_TOL]),
    )
    @SETTINGS
    def test_mix_bit_identical_to_merge_loop(self, a, b, t, subnormal, drift):
        # t = 1e-310 underflows the lightest weights of b, 2^-53 a subnormal
        # weight of b and 1 - 2^-53 one of a: the constructor drops those
        # atoms. A drift puts a's mass between MASS_TOL / 2 and MASS_TOL of
        # one, where mix_rows refuses and mix takes the constructor.
        (pos_a, w_a), (pos_b, w_b) = a, b
        if subnormal:  # zero weights become 1e-310, which leaves the sums
            w_a, w_b = (np.where(w == 0.0, 1e-310, w) for w in (w_a, w_b))
        a, b = DiscreteMeasure(pos_a, w_a * (1.0 + drift)), DiscreteMeasure(pos_b, w_b)
        if drift:
            assert mix_rows(a, b, t) is None
        mixed = mix(a, b, t)
        ref_p, ref_w = construct_loop(
            np.concatenate((a.positions, b.positions)),
            np.concatenate(((1.0 - t) * a.weights, t * b.weights)),
        )
        assert same_bits(mixed.positions, ref_p)
        assert same_bits(mixed.weights, ref_w)

    @given(clustered_atoms(), clustered_atoms(), st.lists(st.sampled_from([0.25, 0.5, 1e-310, 2.0**-53]), max_size=3))
    @SETTINGS
    def test_mix_rows_bit_identical_to_former(self, a, b, ts):
        a, b = DiscreteMeasure(*a), DiscreteMeasure(*b)
        rows, former = mix_rows(a, b, ts), mix_rows_former(a, b, ts)
        assert (rows is None) == (former is None)
        if rows is not None:
            assert same_bits(rows[0], former[0]) and same_bits(rows[1], former[1])

    @given(clustered_positions(), clustered_positions(), st.data())
    @SETTINGS
    def test_merge_is_none_or_the_grouping(self, pa, pb, data):
        # sorted atoms, canonical or not, with signed weights: where the
        # merge does not refuse, it has the bits of _group_atoms
        pa, pb = np.sort(pa), np.sort(pb)
        signed = st.sampled_from(RAWS + tuple(-r for r in RAWS))
        wa, wb = (np.array(data.draw(st.lists(signed, min_size=p.size, max_size=p.size))) for p in (pa, pb))
        merged = _merged(pa, wa, pb, wb)
        pos = np.concatenate((pa, pb))
        order = pos.argsort(kind="stable")
        ref_p, ref_w = _group_atoms(pos[order], np.concatenate((wa, wb))[order], weighted=False)
        if merged is not None:
            assert same_bits(merged[0], ref_p) and same_bits(merged[1], ref_w)

    @pytest.mark.parametrize("near", [False, True], ids=["coincident", "near-pair"])
    def test_long_input_bit_identical(self, near):
        # 10% of b's atoms sit on atoms of a; a pair 6e-13 apart makes the
        # merge refuse, and mix and signed_difference group as before
        rng = np.random.default_rng(11)
        pos_a, pos_b = rng.uniform(-2.0, 2.0, (2, 100_000))
        pos_b[::10] = pos_a[::10]
        if near:
            pos_b[1] = pos_a[1] + 6e-13
        a, b = (DiscreteMeasure(p, rng.dirichlet(np.ones(p.size))) for p in (pos_a, pos_b))
        assert (mix_rows(a, b, 0.3) is None) == near
        mixed = mix(a, b, 0.3)
        ref_p, ref_w = construct_loop(
            np.concatenate((a.positions, b.positions)),
            np.concatenate(((1.0 - 0.3) * a.weights, 0.3 * b.weights)),
        )
        assert same_bits(mixed.positions, ref_p) and same_bits(mixed.weights, ref_w)
        pos, signed = signed_difference(a, b)
        ref_p, ref_w = signed_difference_loop(a, b)
        assert same_bits(pos, ref_p) and same_bits(signed, ref_w)

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

    @pytest.mark.parametrize(
        "cases", [[(1, 2)], [(2, 37)], [(1, 64)], [(1, 64), (2, 3)]], ids=lambda cases: "-".join(map(str, sum(cases, ())))
    )
    def test_criterion_1_cases_match_loop(self, cases):
        """One-case blocks, and a block that holds both K."""
        rows = acceptance_module._discretization_block(0, cases)
        assert [canonical_json(r) for r in rows] == [canonical_json(discretization_case_loop(0, K, n)) for K, n in cases]


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
    xs = np.concatenate([m.positions for m in measures])
    cols, band = partition_module._band(scheme.bump_shape, scheme.n, scheme.edge_index, xs)
    cols += np.repeat(np.arange(len(measures)) * size, [len(m) for m in measures])
    masses = np.concatenate([m.weights for m in measures])
    grid_weights = np.bincount(
        (cols[:, None] + np.array([0, 1])).ravel(), (masses[:, None] * band).ravel(), minlength=len(measures) * size
    ).reshape(len(measures), size)
    rows, cols = np.nonzero(grid_weights)
    values = grid_weights[rows, cols]
    totals = partition_module.fsum_rows(values, np.bincount(rows, minlength=len(measures)))
    keep = values > WEIGHT_FLOOR
    rows, kept = rows[keep], values[keep]
    sizes = np.bincount(rows, minlength=len(measures))
    kept /= np.array(partition_module.fsum_rows(kept, sizes))[rows]
    kept_masses = partition_module.fsum_rows(kept, sizes)
    ends = np.cumsum(sizes).tolist()
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


@st.composite
def mixed_grid_batches(draw):
    """One bump mode and one to six measures, each inside the bound of its
    own (n, K)."""
    mode = draw(st.sampled_from(BUMP_MODES))
    schemes = [PartitionScheme(s.n, s.K, mode) for s in draw(st.lists(grid_schemes(), min_size=1, max_size=6))]
    return mode, [(scheme, draw(grid_measure(scheme))) for scheme in schemes]


def flat_rows(layout):
    """The (positions, weights) rows of a flat layout."""
    positions, weights, sizes = layout
    ends = np.cumsum(sizes).tolist()
    return [(positions[a:b], weights[a:b]) for a, b in zip([0] + ends[:-1], ends)]


# How a row of a batch goes bad: an atom beyond the scheme bound, a mass
# that leaks from the partition of unity, or kept weights whose mass is off
# (planted in the kept weights' mass, which only a tampered sum can make).
BAD_ROWS = ("good", "outside", "leak", "mass")


@contextlib.contextmanager
def tampered_mass_sums(bad):
    """Make the kept weights' mass read 1.5 in the rows of ``bad``: the mass
    screen (``partition.fsum_near_one`` at ``MASS_TOL``) refuses those rows,
    and the one exact sum of such a row's kept weights for its message
    (``partition._row_fsum``) reads 1.5. The former's mass is its third
    ``partition.fsum_rows`` call, which reads 1.5 in those rows; the
    discretization itself makes one, the renormalizer."""
    calls, screened = [], []
    screen, row_fsum = partition_module.fsum_near_one, partition_module._row_fsum

    def former_sums(values, sizes=None):
        out = fsum_rows(values, sizes)
        calls.append(len(out))
        return [1.5 if len(calls) % 3 == 0 and r in bad else v for r, v in enumerate(out)]

    def tampered_screen(values, tol, sizes=None):
        out = screen(values, tol, sizes)
        if tol == MASS_TOL:
            screened.append(values)
            out &= ~np.isin(np.arange(out.size), list(bad))
        return out

    def tampered_row_fsum(values, sizes, r):
        return 1.5 if r in bad and any(values is kept for kept in screened) else row_fsum(values, sizes, r)

    with contextlib.ExitStack() as stack:
        for name, tampered in [("fsum_rows", former_sums), ("fsum_near_one", tampered_screen), ("_row_fsum", tampered_row_fsum)]:
            stack.enter_context(mock.patch.object(partition_module, name, tampered))
        yield


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
        grid = _discretize_flat(scheme.bump_shape, scheme.n, scheme.K, *layout)
        dists = _w1_flat(layout, grid)
        assert grid[2].size == len(measures) and dists.shape == (len(measures),)
        for m, (positions, weights), dist in zip(measures, flat_rows(grid), dists):
            one, ref = discretize(scheme, m), discretize_one(scheme, m)
            for stored in (one, ref):
                assert same_bits(positions, stored.positions) and same_bits(weights, stored.weights)
            assert same_bits(dist, w1(m, one)) and same_bits(dist, w1_one(m, ref))

    @given(mixed_grid_batches())
    @SETTINGS
    def test_rows_on_their_own_grids(self, batch):
        """Rows of mixed (n, K) in one call, as a block of criterion 1 cases
        makes: each row has the bits of its measure under its own scheme."""
        mode, rows = batch
        schemes, measures = zip(*rows)
        layout = _flat_atoms((m.positions, m.weights) for m in measures)
        ns, Ks = (np.array([getattr(s, key) for s in schemes]) for key in ("n", "K"))
        grid = _discretize_flat(mode, ns, Ks, *layout)
        assert grid[2].size == len(measures)
        for scheme, m, (positions, weights) in zip(schemes, measures, flat_rows(grid), strict=True):
            for stored in (discretize(scheme, m), discretize_one(scheme, m)):
                assert same_bits(positions, stored.positions) and same_bits(weights, stored.weights)

    def test_a_row_beyond_its_own_K_raises(self):
        """A row inside [-2, 2] but beyond its own K = 1 raises the error of
        its measure discretized alone, though wider grids share the call."""
        m = DiscreteMeasure([0.0, 1.5], [0.5, 0.5])
        layout = _flat_atoms([(m.positions, m.weights)] * 3)
        message = "^measure support bound 1.5 exceeds the scheme bound K=1$"
        with pytest.raises(ValueError, match=message):
            discretize(PartitionScheme(n=3, K=1), m)
        with pytest.raises(ValueError, match=message):
            _discretize_flat("smooth_bump", np.array([3, 64, 3]), np.array([2, 2, 1]), *layout)

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


class DriftingDraws(ZeroDraws):
    """100,001 atoms; after a first exponential of 1.0, every one is 0.75
    ulp of 1.0, which each step of the sum rounds up to a whole ulp."""

    def integers(self, low, high):
        return 100_001

    def standard_exponential(self, n):
        return np.array([1.0] + [1.5 * 2.0**-53] * (n - 1))


class SeedSpy:
    """Stands in for ``sampling._pcg64_seed_words``, the seeding of every
    index of a ``random_draws`` call below 2^32: counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return SEED_WORDS(*args)


class ZeroRows:
    """Stands in for ``sampling._measures``: zeroes the exponentials of the
    rows ``zero`` names, counted from 1 over all passes (all by default)."""

    def __init__(self, zero=None):
        self.zero = zero
        self.rows = 0

    def __call__(self, positions, exponentials, counts):
        numbers = range(self.rows + 1, self.rows + 1 + counts.size)
        self.rows += counts.size
        exponentials[[self.zero is None or r in self.zero for r in numbers]] = 0.0
        return MEASURES(positions, exponentials, counts)


SEED_WORDS = sampling._pcg64_seed_words
MEASURES = sampling._measures


def value_bits(value):
    if isinstance(value, DiscreteMeasure):
        return value.positions.tobytes(), value.weights.tobytes()
    assert type(value) is float
    return np.float64(value).tobytes()


def former_draws(seed, stream, indices, K, measures, points):
    """Each index's draws by ``random_measure_former`` and ``random_point``
    on its own ``stream_rng``."""
    out = []
    for index in indices:
        rng = stream_rng(seed, stream, index)
        values = [random_measure_former(rng, K) for _ in range(measures)]
        values += [random_point(rng, K) for _ in range(points)]
        out.append([value_bits(v) for v in values])
    return out


# index lists on both sides of a pass boundary, and across two of them: a
# pass takes _DRAW_CHUNK // measures indices, so 99 and 100 are multiples too
INDEX_LISTS = st.sampled_from([0, 1, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 250]).flatmap(
    lambda n: st.lists(st.integers(0, 2**33) | st.sampled_from([0, 2**32 - 1, 2**32]), min_size=n, max_size=n)
)


# half-widths that every measure of a criterion 1 block may have, and two
# that merge every atom
FLAT_HALF_WIDTHS = st.sampled_from([0.0, 5e-324, 1.0, 2.0, math.pi, 1e300])


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
        """Every measure and point has the former bits, and the indices
        below 2^32 of a seed below 2^32 are seeded in one call; K = 0.0 and
        5e-324 merge every atom."""
        spy = SeedSpy()
        draws = random_draws(seed, stream, indices, K, measures=measures, points=points)
        with mock.patch.object(sampling, "_pcg64_seed_words", spy):
            try:
                _check_half_width(K)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    next(draws)
                assert spy.calls == 0
                return
            got = [[value_bits(v) for v in values] for values in draws]
        assert got == former_draws(seed, stream, indices, K, measures, points)
        assert spy.calls == (seed < 2**32 and min(indices, default=2**32) < 2**32)

    @pytest.mark.parametrize("zero", [None, {2}, {_DRAW_CHUNK + 7}])
    def test_all_zero_draws_are_rejected_as_not_finite(self, zero):
        """A row of zero exponentials raises the constructor's error, in a
        chunk of rows that pass and in the second chunk."""
        with mock.patch.object(sampling, "_measures", ZeroRows(zero)):
            with pytest.raises(ValueError, match="must be finite"):
                list(random_draws(0, "s", range(250), 1.0))

    def test_zero_weight_atoms_are_dropped(self):
        """A row of two or more atoms whose first exponential is zero goes
        through the constructor, which drops that atom, as it does for the
        former draws."""

        def first_zero(positions, exponentials, counts):
            exponentials[counts > 1, 0] = 0.0
            return MEASURES(positions, exponentials, counts)

        with mock.patch.object(sampling, "_measures", first_zero):
            drawn = list(random_draws(0, "s", range(150), 1.0, measures=2))
        for index, ms in enumerate(drawn):
            rng = stream_rng(0, "s", index)
            for m in ms:
                n = int(rng.integers(1, MAX_ATOMS + 1))
                positions, draws = rng.uniform(-1.0, 1.0, n), rng.standard_exponential(n)
                draws[0] = 0.0 if n > 1 else draws[0]
                expected = DiscreteMeasure(positions, draws * (1.0 / sum(draws.tolist())))
                assert len(m) == n - (n > 1) and value_bits(m) == value_bits(expected)

    def test_mass_off_by_rounding_is_rejected(self):
        """100,001 exponentials, each sum step rounding up by a quarter ulp:
        the weights sum 5.6e-12 short of one, past ``MASS_TOL``, so the row
        goes through the constructor, which raises."""
        message = "^weights sum to 0.9999999999944489, not 1$"
        with pytest.raises(ValueError, match=message):
            random_measure(DriftingDraws(), 1.0, 200_000)
        drifting = DriftingDraws()
        n = drifting.integers(1, 2)
        row = drifting.uniform(-1.0, 1.0, n)[None], drifting.standard_exponential(n)[None], np.array([n])
        with mock.patch.object(sampling, "_measures", lambda *draws: MEASURES(*row)):
            with pytest.raises(ValueError, match=message):
                list(random_draws(0, "s", [0], 1.0))

    @pytest.mark.parametrize("K", [-1.0, math.nan, 9e307])
    def test_bad_K_raises_before_any_draw(self, K):
        spy = SeedSpy()
        with mock.patch.object(sampling, "_pcg64_seed_words", spy):
            with pytest.raises(ValueError, match="^K must be"):
                next(random_draws(0, "s", range(5), K, points=1))
        assert spy.calls == 0

    @pytest.mark.parametrize("measures, count", [(1, 250), (2, 250), (3, 250), (150, 3)])
    def test_a_pass_holds_a_chunk_of_measures_and_frees_its_draws(self, measures, count):
        """Each ``_measures`` pass takes at most ``_DRAW_CHUNK`` rows, or one
        index's, and its draw arrays are gone before its measures are used."""
        passes, alive = [], []

        def spy(*draws):
            passes.append(draws[-1].size)
            alive.append([weakref.ref(a) for array in draws for a in (array, array.base) if a is not None])
            return MEASURES(*draws)

        with mock.patch.object(sampling, "_measures", spy):
            for _ in random_draws(3, "s", range(count), 1.0, measures=measures):
                assert not any(ref() for ref in alive[-1])
        per_pass = max(1, _DRAW_CHUNK // measures) * measures
        assert passes == [per_pass] * (count * measures // per_pass) + [count * measures % per_pass] * (
            count * measures % per_pass > 0
        )
        assert max(passes) <= max(_DRAW_CHUNK, measures)

    @given(
        seeds,
        st.lists(st.tuples(st.text(max_size=8), FLAT_HALF_WIDTHS), min_size=1, max_size=3),
        st.lists(st.integers(0, 2**33) | st.sampled_from([0, 2**32 - 1, 2**32]), min_size=1, max_size=12),
    )
    @example(seed=0, cases=[("discretize-K1-n64", 1.0), ("discretize-K2-n3", 2.0)], indices=list(range(100)))
    @example(seed=2**32 + 5, cases=[("discretize-K1-n64", 1.0), ("discretize-K2-n3", 2.0)], indices=[0, 1, 2])
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_flat_draws_of_several_streams(self, seed, cases, indices):
        """The draws of several streams laid out flat in one call: each
        stream's rows are the measures ``random_draws`` yields for it, with
        their bits; K = 0.0 and 5e-324 merge every atom, so those rows go
        through the constructor."""
        streams, Ks = zip(*cases)
        layout = sampling._flat_draws(seed, streams, indices, Ks)
        expected = [value_bits(m) for stream, K in cases for (m,) in random_draws(seed, stream, indices, K)]
        assert [(p.tobytes(), w.tobytes()) for p, w in flat_rows(layout)] == expected

    def test_flat_draws_check_every_K_first(self):
        with pytest.raises(ValueError, match="^K must be"):
            sampling._flat_draws(0, ["a", "b"], [0], [1.0, math.nan])

    def test_one_seeding_call(self):
        spy = SeedSpy()
        with mock.patch.object(sampling, "_pcg64_seed_words", spy):
            drawn = list(random_draws(3, "s", range(250), 1.0, measures=2, points=1))
        assert spy.calls == 1 and len(drawn) == 250
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
    """``math.fsum`` of each row, one list per row, in row order; flat rows
    are given by the row of each value (``row_ids``)."""
    if rows is None:
        return [math.fsum(row) for row in values.tolist()]
    return [math.fsum(values[rows == r].tolist()) for r in range(count)]


def row_ids(sizes):
    """The row of each value of rows laid flat with these sizes."""
    return np.repeat(np.arange(len(sizes)), sizes)


@st.composite
def fsum_row_batches(draw):
    """1 to 40 rows of the ``fsum_arrays`` kinds, mostly all of one kind,
    else each of its own, with values planted in one row or none: a 2-D
    array of rows of one drawn length, or ragged rows laid flat with their
    sizes, empty rows included."""
    count = draw(st.sampled_from([1, 2, 17, 40]))
    kinds = FSUM_KINDS if draw(st.integers(0, 3)) == 0 else (draw(st.sampled_from(FSUM_KINDS)),)
    planted = draw(st.integers(0, count))  # a row, or count for none
    if draw(st.booleans()):
        length = (draw(st.sampled_from(ROW_LENGTHS)),)
        rows = [draw(fsum_arrays(length, kinds, 3 if r == planted else 0)) for r in range(count)]
        return np.array(rows).reshape(count, length[0]), None
    parts = [draw(fsum_arrays(ROW_LENGTHS, kinds, 3 if r == planted else 0)) for r in range(count)]
    return np.concatenate(parts), np.array([x.size for x in parts])


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


def transposes():
    """A spy on ``np.ascontiguousarray``, which still copies: the column
    layout of the bracket is the one that copies the batch transposed, so
    its one call has the shape (length, rows); the row layout makes none."""
    return mock.patch.object(util_module.np, "ascontiguousarray", wraps=np.ascontiguousarray)


def shapes(spied):
    return [c.args[0].shape for c in spied.call_args_list]


# the extraction's edges: row lengths 2^M - 2 and 2^M - 1 (M, the bit length
# of length + 1, steps up between them), in the column and the row layout
EDGE_LENGTHS = (6, 7, 14, 15, 30, 31, 254, 255)
LOWER_GUARD = 2.0**-900


def upper_guard(length):
    return 2.0 ** (1021 - (length + 1).bit_length())


# each row's largest magnitude: a power of two and a float below one, and
# each guard with one ulp either side of it
EDGE_TOPS = {
    "power-of-two": lambda n: 1.0,
    "below-power-of-two": lambda n: np.nextafter(1.0, 0.0),
    "lower-guard-below": lambda n: np.nextafter(LOWER_GUARD, 0.0),
    "lower-guard": lambda n: LOWER_GUARD,
    "lower-guard-above": lambda n: np.nextafter(LOWER_GUARD, 1.0),
    "upper-guard-below": lambda n: np.nextafter(upper_guard(n), 0.0),
    "upper-guard": upper_guard,
    "upper-guard-above": lambda n: np.nextafter(upper_guard(n), math.inf),
}


def edge_rows(rng, count, length, top):
    """``count`` rows of ``length`` values whose largest magnitude is ``top``
    in every row, with either sign; in every third row the second half
    cancels the first, all but the value of magnitude ``top``."""
    x = rng.uniform(-1.0, 1.0, (count, length)) * top
    half = length // 2
    x[::3, half : 2 * half] = -x[::3, :half]
    x[np.arange(count), rng.integers(0, length, count)] = top * rng.choice([1.0, -1.0], count)
    return x


class TestFsumRows:
    @given(fsum_row_batches())
    @SETTINGS
    def test_bits_and_errors_of_math_fsum_per_row(self, batch):
        values, sizes = batch
        if sizes is None:
            assert fsum_outcome(fsum_rows, values) == fsum_outcome(fsum_rows_former, values)
        else:
            sizes = np.append(sizes, [0, 0])  # two empty rows at the end
            got = fsum_outcome(lambda v: fsum_rows(v, sizes), values)
            assert got == fsum_outcome(lambda v: fsum_rows_former(v, row_ids(sizes), sizes.size), values)

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
        assert fsum_outcome(lambda v: fsum_rows(v, np.full(40, length)), values.ravel()) == former

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
        assert fsum_outcome(lambda v: fsum_rows(v, np.full(40, 300)), values.ravel()) == former

    @pytest.mark.parametrize("kind", BRACKET_KINDS)
    def test_rows_the_bracket_leaves_to_math_fsum(self, kind):
        values = bracket_rows(np.random.default_rng(BRACKET_KINDS.index(kind)), kind)
        count, length = values.shape
        assert ROW_CUTOFF < length <= BIN_CUTOFF and values.size > BATCH_CUTOFF
        former = fsum_outcome(fsum_rows_former, values)
        with spy("_fsum_bracketed") as bracket:
            assert fsum_outcome(fsum_rows, values) == former
            assert fsum_outcome(lambda v: fsum_rows(v, np.full(count, length)), values.ravel()) == former
        assert bracket.call_count == 1  # the 2-D batch; flat rows take the lists

    def test_ragged_flat_rows_with_empty_ones(self):
        rng = np.random.default_rng(8)
        lengths = rng.integers(2 * ROW_CUTOFF, 4 * ROW_CUTOFF, 40)
        lengths[[0, 7, 8, 39]] = 0
        kinds = [BRACKET_KINDS[i] for i in rng.integers(0, len(BRACKET_KINDS) - 1, 40)]  # none that raises
        parts = [bracket_rows(rng, k, 4, int(n))[rng.integers(4)] if n else [] for k, n in zip(kinds, lengths)]
        values = np.concatenate(parts)
        with spy("_fsum_bracketed") as bracket:
            got = fsum_outcome(lambda v: fsum_rows(v, lengths), values)
        assert got == fsum_outcome(lambda v: fsum_rows_former(v, row_ids(lengths), 40), values)
        assert bracket.call_count == 0  # flat rows take the lists
        # one long row among short ones
        lengths = np.full(40, ROW_CUTOFF)
        lengths[5] = 50 * ROW_CUTOFF
        values = rng.dirichlet(np.ones(lengths.sum())) * rng.choice([-1.0, 1.0], lengths.sum())
        with spy("_fsum_bracketed") as bracket:
            got = fsum_outcome(lambda v: fsum_rows(v, lengths), values)
        assert got == fsum_outcome(lambda v: fsum_rows_former(v, row_ids(lengths), 40), values)
        assert bracket.call_count == 0

    @given(st.sampled_from(FSUM_KINDS), st.sampled_from([2, 5, 9, ROW_CUTOFF]), st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_column_layout_bits_and_errors_per_row(self, kind, length, seed):
        rng = np.random.default_rng(seed)
        values = short_rows(rng, kind, BATCH_CUTOFF // length + 1 + int(rng.integers(0, 300)), length)
        for r in rng.integers(0, len(values), int(rng.integers(0, 3))):  # plants in up to two rows
            values[r, rng.integers(length)] = PLANT_VALUES[rng.integers(len(PLANT_VALUES))]
        with transposes() as transposed:
            assert fsum_outcome(fsum_rows, values) == fsum_outcome(fsum_rows_former, values)
        assert shapes(transposed) == [(length, len(values))]

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
        with spy("_fsum_bracketed") as bracket, transposes() as transposed:
            assert fsum_outcome(fsum_rows, values) == fsum_outcome(fsum_rows_former, values)
        assert bracket.call_count == int(values.size > BATCH_CUTOFF)
        assert shapes(transposed) == ([(length, count)] if column else [])

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

    @pytest.mark.parametrize("top", EDGE_TOPS)
    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_extraction_edges(self, length, top):
        rng = np.random.default_rng([length, list(EDGE_TOPS).index(top)])
        count = BATCH_CUTOFF // length + 1
        values = edge_rows(rng, count, length, EDGE_TOPS[top](length))
        former = fsum_outcome(fsum_rows_former, values)
        with spy("_fsum_bracketed") as bracket, transposes() as transposed:
            with mock.patch.object(util_module.math, "fsum", wraps=math.fsum) as alone:
                assert fsum_outcome(fsum_rows, values) == former
        assert bracket.call_count == 1
        assert shapes(transposed) == ([(length, count)] if length <= ROW_CUTOFF else [])
        if top in ("lower-guard-below", "upper-guard", "upper-guard-above"):  # outside the guards
            assert alone.call_count == count

    # 1 + 2^-53 + 2^-103, just above a tie, whose low parts numpy sums to
    # 2^-53 - 2^-103, two ulp below the exact 2^-53 + 2^-103, as it adds
    # them in order in the column layout and in pairs in the row layout: so
    # the bracket's ends need w, more than their one-ulp widening
    @pytest.mark.parametrize("length", [7, ROW_CUTOFF + 1])
    def test_low_parts_summed_with_an_error(self, length):
        row = np.zeros(length)
        row[:7] = (2.0**-50, 2.0**-103, 2.0**-103, 0.0, -(2.0**-50) + 2.0**-53 - 2.0**-103, 0.0, 1.0)
        values = np.tile(row, (BATCH_CUTOFF // length + 1, 1))
        assert fsum_outcome(fsum_rows, values) == fsum_outcome(fsum_rows_former, values)
        assert fsum_rows(values)[0] == 1.0 + 2.0**-52

    # rows of -0.0 only, rows of both zeros, and one value among zeros
    @pytest.mark.parametrize("length", [7, ROW_CUTOFF, ROW_CUTOFF + 1, 255])
    def test_zero_rows_and_one_value(self, length):
        rng = np.random.default_rng(length)
        count = BATCH_CUTOFF // length + 1
        values = np.where(rng.random((count, length)) < 0.5, -0.0, 0.0)
        values[: count // 3] = -0.0
        ones = np.arange(count // 3, 2 * count // 3)
        one = rng.choice([1.0, -1.0, 5e-324, -2.0**-1022, LOWER_GUARD, 1e300, upper_guard(length)], ones.size)
        values[ones, rng.integers(0, length, ones.size)] = one * rng.uniform(0.5, 1.0, ones.size)
        former = fsum_outcome(fsum_rows_former, values)
        with transposes() as transposed:
            assert fsum_outcome(fsum_rows, values) == former
        assert shapes(transposed) == ([(length, count)] if length <= ROW_CUTOFF else [])
        assert former[0] == np.float64(0.0).tobytes()  # math.fsum never returns -0.0

    @pytest.mark.parametrize("size", [BATCH_CUTOFF, BATCH_CUTOFF + 2])
    def test_two_rows_beside_the_batch_cutoff(self, size):
        values = np.random.default_rng(size).dirichlet(np.ones(size // 2), 2)
        assert fsum_outcome(fsum_rows, values) == fsum_outcome(fsum_rows_former, values)

    def test_empty_batches(self):
        assert fsum_rows(np.zeros((0, 300))) == [] == fsum_rows(np.zeros(0), np.zeros(0, dtype=np.intp))
        assert fsum_rows(np.zeros((3, 0))) == [0.0] * 3 == fsum_rows(np.zeros(0), np.zeros(3, dtype=np.intp))

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
        args = (values.ravel(), np.full(count, length)) if flat else (values,)
        with contextlib.ExitStack() as stack:
            one, each, bracket = (stack.enter_context(spy(name)) for name in ("fsum", "_fsum_each", "_fsum_bracketed"))
            transposed = stack.enter_context(transposes())
            bincount = stack.enter_context(mock.patch.object(util_module.np, "bincount", wraps=np.bincount))
            assert fsum_outcome(lambda _: fsum_rows(*args), values) == former
        calls = [one.call_count, each.call_count, bracket.call_count, shapes(transposed)]
        assert calls == {
            "list": [1, 0, 0, []],
            "bins": [1, 0, 0, []],
            "lists": [0, 1, 0, []],
            "column": [0, 0, 1, [(length, count)]],
            "row": [0, 0, 1, []],
        }[path]
        # the bins are fsum's two np.bincount calls; the lists make none
        assert bincount.call_count == {"bins": 2}.get(path, 0)


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
    (prepared alone, its nodes share a support), measure 7 is the base
    point; and their quotient points,
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
        # measure 3 takes the node path, measure 5 (an atom on the base point)
        # is prepared and evaluated alone in its turn, and measure 7 has no
        # atom: 42 segments in blocks
        assert len(shapes[0]) == 2 and [s[0] for s in shapes[1:3]] == [SEGMENT_BLOCK, 42 - SEGMENT_BLOCK]
        assert shapes[3:5] == [(32, 301), (32, 301)] and shapes[5][:2] == (2, 32)  # a wide one alone
        assert all(math.prod(s) <= BLOCK_VALUES for s in shapes)
        segment_integral(spied, BASE_POINT, ms[0], 32)
        assert len(shapes[-1]) == 2


PREP_FEATURES = ("plain", "plain", "on-base", "equal", "near", "underflow", "subnormal", "heavy", "marked", "wide")
# The segments a feature sends to the per-segment preparation
PREPARED_ALONE = ("on-base", "equal", "near", "underflow", "heavy")
MARK = 1.75


@st.composite
def preparation_cases(draw):
    """(mu, [(feature, m)], quad_order): the base point, or a drawn measure
    of 2 to 30 atoms as ``verify_deriv2`` takes it, and 1 to 35 measures
    of 1 to 12 atoms. Each has a feature: an atom exactly on an atom of mu
    (a zero gap), or mu itself (no atom); an atom within MERGE_TOL of one
    but not on it; a weight of 5e-324, whose mixture weight underflows to
    0 at the first node, or of 1e-310, which stays positive; a mass 0.9
    MASS_TOL above one, which the constructor keeps and ``mix_rows``
    refuses; an atom at MARK (see ``marked_field``); or 200 atoms, so that
    a pass at 32 nodes splits at BLOCK_VALUES."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mu = BASE_POINT
    else:
        n = int(rng.integers(2, 31))
        mu = DiscreteMeasure(rng.uniform(-2.0, 2.0, n), rng.dirichlet(np.ones(n)))
    measures = []
    for _ in range(draw(st.sampled_from([1, 2, 5, SEGMENT_BLOCK + 3]))):
        feature = PREP_FEATURES[rng.integers(len(PREP_FEATURES))]
        n = 200 if feature == "wide" else int(rng.integers(1, 13))
        pos, w = rng.uniform(-2.0, 2.0, n), rng.dirichlet(np.ones(n))
        atom = mu.positions[rng.integers(len(mu))]
        if feature == "on-base":
            pos[0] = atom
        elif feature == "near":
            pos[0] = atom + rng.choice([3e-13, -6e-13])
        elif feature in ("underflow", "subnormal") and n > 1:
            w[0] = 5e-324 if feature == "underflow" else 1e-310
            w[1:] = w[1:] / math.fsum(w[1:].tolist())
        elif feature == "heavy":
            w[0] += 0.9 * MASS_TOL
        elif feature == "marked":
            pos[0] = MARK
        if feature in ("underflow", "subnormal") and n == 1:
            feature = "plain"
        measures.append((feature, mu if feature == "equal" else DiscreteMeasure(pos, w)))
    return mu, measures, draw(st.sampled_from([2, 32]))


def marked_field(kind):
    """The sin/cos counterexample field, except at a measure with an atom
    at MARK, where its value and derivative are NaN (``kind`` "nan") or
    raise a ValueError that names the measure's first atom ("raise"), in
    ``value``, ``linear_delta``, ``batch_value`` and ``batch_linear_delta``
    alike; a batch with several marked rows names the last one's, so only
    a rerun draw by draw raises the first draw's error."""
    base = FIELDS["counterexample-sin-cos"]

    def one(f):
        def marked(m, *points):
            if MARK not in m.positions.tolist():
                return f(m, *points)
            if kind == "raise":
                raise ValueError(f"marked measure from {float(m.positions[0])!r}")
            return f(m, *points) * math.nan

        return marked

    def rows(f):
        def marked(positions, weights, *points):
            out = f(positions, weights, *points)
            hit = ((positions[..., None, :] == MARK) & (weights > 0.0)).any(axis=-1)
            if hit.any() and kind == "raise":  # the last marked row's error: not the first draw's
                last = positions[tuple(np.argwhere(hit)[-1][:-1])][0]
                raise ValueError(f"marked measure from {float(last)!r}")
            out[hit] = math.nan
            return out

        return marked

    return DerivativeField(
        value=one(base.value),
        dx=base.dx,
        linear_delta=one(base.linear_delta),
        label=f"marked-{kind}",
        batch_value=rows(base.batch_value),
        batch_linear_delta=rows(base.batch_linear_delta),
    )


PREP_FIELDS = {
    **{name: FIELDS[name] for name in ("lift-gauss_poly", "counterexample-sin-cos", "lift-constant", "zero", "user")},
    "marked-nan": marked_field("nan"),
    "marked-raise": marked_field("raise"),
}


class TestSegmentPreparation:
    """One padded sort prepares the segments from one base point: every row
    it keeps has the bits of ``signed_difference`` and ``mix_rows`` on that
    segment alone, and every other row goes to them."""

    @given(preparation_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rows_have_the_bits_of_the_segments_alone(self, case):
        mu, measures, quad_order = case
        nodes, _ = gauss_legendre_01(quad_order)
        positions, signed, sizes, fast = derivative_module._prepared(mu, [m for _, m in measures], nodes)
        for (feature, m), row, sw, size, kept in zip(measures, positions, signed, sizes.tolist(), fast.tolist()):
            assert kept == (feature not in PREPARED_ALONE), feature
            if not kept:
                continue
            pos, diff = signed_difference(m, mu)
            support, mixtures = mix_rows(mu, m, nodes)
            assert same_bits(row[:size], pos) and same_bits(sw[:size], diff) and same_bits(row[:size], support)
            assert same_bits(derivative_module._mixtures(sw[:size], nodes), mixtures)
            # pads: weight 0 at a copy of the row's last atom
            assert np.all(row[size:] == row[size - 1]) and np.all(sw[size:] == 0.0)
            assert np.all(derivative_module._mixtures(sw, nodes)[:, size:] == 0.0)

    @pytest.mark.parametrize("name", sorted(PREP_FIELDS))
    @given(preparation_cases())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_segment_integral_each_is_each_segment_alone(self, name, case):
        mu, measures, quad_order = case
        H, ms = PREP_FIELDS[name], [m for _, m in measures]
        with np.errstate(invalid="ignore"):
            got = segment_outcome(lambda: segment_integral_each(H, mu, ms, quad_order))
            assert got == segment_outcome(lambda: [segment_integral(H, mu, m, quad_order) for m in ms])
            assert got == segment_outcome(lambda: [segment_integral_loop(H, mu, m, quad_order) for m in ms])

    def test_one_segment_is_the_one_row_case(self):
        H, nodes = FIELDS["lift-gauss_poly"], gauss_legendre_01(32)[0]
        m = DiscreteMeasure([-0.5, 0.25, 1.0], [0.25, 0.25, 0.5])
        positions, signed, sizes, fast = derivative_module._prepared(BASE_POINT, [m], nodes)
        assert positions.shape == (1, 4) and sizes.tolist() == [4] and fast.tolist() == [True]
        assert same_bits(segment_integral(H, BASE_POINT, m, 32), segment_integral_loop(H, BASE_POINT, m, 32))
        assert segment_integral(H, m, m, 32) == 0.0  # m == mu: no atom


def symmetry_outcome(terms):
    """The bits of the symmetry terms ``terms()`` gives, or its error's type
    and message."""
    try:
        return [np.asarray(column, dtype=float).tobytes() for column in terms()]
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestSymmetryPasses:
    """``ftc``'s symmetry pass gives each draw the bits of the former
    per-draw loop, and raises its first error."""

    @pytest.mark.parametrize("name", sorted(FIELDS) + ["marked-nan", "marked-raise"])
    @given(preparation_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_terms_of_each_draw(self, name, case, seed):
        H = PREP_FIELDS.get(name) or FIELDS[name]
        ms = [m for _, m in case[1]]
        xs, ys = np.random.default_rng(seed).uniform(-2.0, 2.0, (2, len(ms))).tolist()
        eps = 1e-3 if H.linear_delta is None else None
        with np.errstate(invalid="ignore"):
            got = symmetry_outcome(lambda: ftc_module._symmetry_pass(H, ms, xs, ys, eps))

            def former():
                draws = [
                    (ftc_module.symmetry_residual(H, m, x, y, eps=eps), H.value(m, x), H.value(m, y))
                    for m, x, y in zip(ms, xs, ys)
                ]
                return list(zip(*draws))

            assert got == symmetry_outcome(former)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_row_hook_is_linear_delta_at_each_pair(self, name):
        """``batch_linear_delta`` on ``batch_value``'s layout: segments of
        padded rows, each with three node measures on its support."""
        H = FIELDS[name]
        if H.batch_linear_delta is None:
            assert name.startswith(("canonical", "user"))
            return
        ms = antiderivative_pass()[0][:9]
        positions, weights, sizes, _ = _padded_rows(_atom_rows(ms))
        even = (np.arange(positions.shape[1]) < sizes[:, None]) / sizes[:, None]
        t = np.array([0.0, 0.25, 0.75])[:, None]
        nodes = (1.0 - t) * weights[:, None, :] + t * even[:, None, :]  # (segments, nodes, atoms)
        xs = np.random.default_rng(3).uniform(-2.0, 2.0, (len(ms), 2))
        ys = xs[:, ::-1] + 0.5
        got = H.batch_linear_delta(positions, nodes, xs, ys)
        assert got.shape == (len(ms), 3, 2)
        for s, size in enumerate(sizes.tolist()):
            for k in range(3):
                m = DiscreteMeasure(positions[s, :size], nodes[s, k, :size])
                for p in range(2):
                    assert same_bits(got[s, k, p], H.linear_delta(m, xs[s, p], ys[s, p]))

    def test_counterexample_report_raises_the_first_draw_error(self):
        # phi overflows to inf beyond |x| = 1.2e4, so a measure with an atom
        # there makes integrate raise, in the pass as draw by draw
        phi, psi = polynomial((0.0, 0.0, 1e300)), cos_fn()
        with np.errstate(over="ignore"), contextlib.ExitStack() as stack:
            got = segment_outcome(lambda: [ftc_module.counterexample_report(phi, psi, 2e4, samples=30, seed=4)])
            for patch in per_draw_loops():
                stack.enter_context(patch)
            expected = segment_outcome(lambda: [ftc_module.counterexample_report(phi, psi, 2e4, samples=30, seed=4)])
        assert expected[0] is ValueError and "not finite at atom" in expected[1]
        assert got == expected


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

    def evaluate_flat(self, positions, weights, sizes):
        return self.F.evaluate_flat(positions, weights, sizes)


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


def symmetry_draws_former(H, draws, eps=None):
    """The former per-draw symmetry loop: one ``symmetry_residual`` and two
    ``H.value`` calls per draw; (|residual|, max |H|) per draw."""
    return [
        (abs(ftc_module.symmetry_residual(H, m, x, y, eps=eps)), max_or_nan((abs(H.value(m, x)), abs(H.value(m, y)))))
        for m, x, y in draws
    ]


def ftc_check_former(H, K, quad_order=32, eps=1e-3, samples=200, *, seed=0):
    """The former ``ftc_check``: per-draw field values in the mismatch loop
    and the per-draw symmetry loop; its quotients come from the module's
    ``dawson_extrapolated_each``, which ``per_draw_loops`` replaces too."""
    check_samples(samples)
    for (probe,) in random_draws(seed, "canonical-gate", range(8), K):
        residual = math.fsum((probe.weights * _values_at(lambda t: H.value(probe, t), probe.positions)).tolist())
        if not abs(residual) <= ftc_module.CANONICAL_GATE_TOL:
            raise ValueError(
                f"field integrates to {residual!r} against a probe measure; canonicalize it before checking"
            )
    F = antiderivative(H, quad_order)
    estimated = H.linear_delta is None
    mismatch = []
    for chunk in _passes(random_draws(seed, "ftc-mismatch", range(samples), K, points=1)):
        ms, xs = zip(*chunk)
        quotients = ftc_module.dawson_extrapolated_each(F, ms, xs, eps).tolist()
        mismatch += [abs(q - H.value(m, x)) for q, m, x in zip(quotients, ms, xs)]
    draws = random_draws(seed, "ftc-symmetry", range(samples), K, points=2)
    symmetry_max, field_max = (max_or_nan(c) for c in zip(*symmetry_draws_former(H, draws, eps if estimated else None)))
    return {
        "check": "ftc",
        "field": H.label,
        "mismatch_max": float(max_or_nan(mismatch)),
        "symmetry_max": float(symmetry_max),
        "symmetry_mode": "estimated" if estimated else "exact",
        "seed": int(seed),
        "quad_order": int(quad_order),
        "eps": float(eps),
        "K": float(K),
        "samples": int(samples),
        "verdict": ftc_module._verdict(symmetry_max, estimated=estimated, field_max=field_max),
    }


def counterexample_report_former(phi, psi, K, *, quad_order=32, eps=1e-3, samples=200, seed=0):
    """The former ``counterexample_report``: the closed forms, the field
    values and the symmetry residual draw by draw (each closed form
    integrating its own moments), beside the module's per-pass antiderivative
    values and quotients, which ``per_draw_loops`` replaces too."""
    check_samples(samples)
    H = counterexample_field(phi, psi)
    F_quad = antiderivative(H, quad_order)

    def F_closed(m):
        return 0.5 * (psi(0.0) + integrate(m, psi)) * (integrate(m, phi) - phi(0.0))

    def delta_closed(m, x):
        pm = integrate(m, phi)
        sm = integrate(m, psi)
        return 0.5 * (psi(x) - sm) * (pm - phi(0.0)) + 0.5 * (psi(0.0) + sm) * (phi(x) - pm)

    def one(m, x, y, quad=None, quotient=None):
        a = abs((F_quad(m) if quad is None else quad) - F_closed(m))
        b = abs((dawson_extrapolated(F_quad, m, x, eps) if quotient is None else quotient) - delta_closed(m, x))
        h = H.value(m, x)
        c = abs(delta_closed(m, x) - h)
        s = abs(ftc_module.symmetry_residual(H, m, x, y))
        return a, b, c, s, max_or_nan((abs(h), abs(H.value(m, y))))

    results = []
    for chunk in _passes(random_draws(seed, "counterexample", range(samples), K, points=2)):
        ms, xs, _ = zip(*chunk)
        try:
            batched = zip(
                ftc_module.segment_integral_each(H, BASE_POINT, ms, quad_order).tolist(),
                ftc_module.dawson_extrapolated_each(F_quad, ms, xs, eps).tolist(),
            )
        except (ArithmeticError, ValueError):
            batched = [()] * len(chunk)
        results += [one(*draw, *q) for draw, q in zip(chunk, batched)]
    a_max, b_max, c_max, symmetry_max, field_max = (max_or_nan(column) for column in zip(*results))
    ok = (
        a_max <= ftc_module.COUNTEREXAMPLE_CLOSED_F_TOL
        and b_max <= ftc_module.COUNTEREXAMPLE_BUILT_DELTA_TOL
        and c_max >= ftc_module.COUNTEREXAMPLE_GAP_FLOOR
    )
    return {
        "check": "counterexample",
        "phi": phi.name,
        "psi": psi.name,
        "K": float(K),
        "quadrature_vs_closed_max": float(a_max),
        "built_derivative_vs_closed_max": float(b_max),
        "closed_derivative_vs_field_max": float(c_max),
        "derived_gap_threshold": float(0.5 * c_max),
        "symmetry_max": float(symmetry_max),
        "seed": int(seed),
        "eps": float(eps),
        "quad_order": int(quad_order),
        "samples": int(samples),
        "verdict": ftc_module._verdict(symmetry_max, estimated=False, field_max=field_max),
        "ok": bool(ok),
    }


def check_discretization_by_case(seed):
    """Criterion 1's report assembled from one ``discretization_case`` call
    per (K, n) case, as the criterion ran before its blocks."""
    cases = [(K, n) for K in (1, 2) for n in range(K + 1, 65)]
    rows = [discretization_case(seed, K, n) for K, n in cases]
    violations = sum(r["violations"] for r in rows)
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
    }


def per_draw_loops():
    """Criteria 5 and 6 and ``ftc_check`` with their former per-draw loops:
    the antiderivative values and quotients, the symmetry residuals and
    field values, and the closed forms of ``counterexample_report``."""
    return (
        mock.patch.object(ftc_module, "segment_integral_each", segment_integral_each_loop),
        mock.patch.object(ftc_module, "dawson_extrapolated_each", dawson_extrapolated_each_loop),
        mock.patch.object(acceptance_module, "segment_integral_each", segment_integral_each_loop),
        mock.patch.object(ftc_module, "ftc_check", ftc_check_former),
        mock.patch.object(acceptance_module, "ftc_check", ftc_check_former),
        mock.patch.object(ftc_module, "counterexample_report", counterexample_report_former),
        mock.patch.object(acceptance_module, "counterexample_report", counterexample_report_former),
    )


def ftc_outcome(check, H, samples=5):
    """The report bytes of ``check`` on H, or its error's type and message."""
    try:
        return canonical_json(check(H, 1.0, quad_order=4, samples=samples, seed=3))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def sine_field(batch_value=None):
    """H(m, x) = sin(x), which no measure cancels, with a row hook that
    gives its bits, or the ``batch_value`` given."""

    def rows(positions, weights, xs):
        return np.broadcast_to(np.sin(xs)[..., None, :], weights.shape[:-1] + np.shape(xs)[-1:]).copy()

    return DerivativeField(lambda m, x: np.sin(x), lambda m, x: np.cos(x), label="sine", batch_value=batch_value or rows)


class TestFieldValuesPerPass:
    """``ftc_check`` takes the field values of its canonical gate and of its
    mismatch loop from one ``batch_value`` call per pass, with the report
    and the errors of the former per-draw loop."""

    def test_gate_error_of_the_former(self):
        outcome = ftc_outcome(ftc_module.ftc_check, sine_field())
        assert outcome[0] is ValueError and outcome[1].startswith("field integrates to ")
        assert outcome == ftc_outcome(ftc_check_former, sine_field())

    def test_a_pass_that_raises_goes_draw_by_draw(self):
        """A hook that refuses every pass, and a field that passes the gate."""

        def refused(positions, weights, xs):
            raise ValueError("no rows")

        for H in (sine_field(batch_value=refused), counterexample_field(sin_fn(), cos_fn())):
            assert ftc_outcome(ftc_module.ftc_check, H) == ftc_outcome(ftc_check_former, H)

    def test_the_first_draws_error(self):
        """A field that refuses measures with an atom above 0.5: the pass
        raises, and the error is the first such draw's."""
        H = counterexample_field(sin_fn(), cos_fn())

        def value(m, x):
            if m.positions[-1] > 0.5:
                raise ValueError(f"refused at {m.positions[-1]!r}")
            return H.value(m, x)

        def rows(positions, weights, xs):
            if (positions > 0.5).any():
                raise ValueError("refused in a pass")
            return H.batch_value(positions, weights, xs)

        refusing = DerivativeField(value=value, dx=H.dx, label="refusing", batch_value=rows)
        outcome = ftc_outcome(ftc_module.ftc_check, refusing, samples=30)
        assert outcome[0] is ValueError and outcome[1].startswith("refused at ")
        assert outcome == ftc_outcome(ftc_check_former, refusing, samples=30)


@pytest.mark.parametrize("seed", [0, 11, 29])
class TestCriterionLoops:
    """Criteria 2, 4, 5, 6, 7 and 8 serialize to the bytes of their former
    loops; also at sample counts that end in a partial draw pass (100 draws a
    pass for criteria 2, 4 and 7 and ``ftc_check``, 33 triples for criterion
    8). Criterion 1's blocks serialize to the bytes of its cases run one at
    a time."""

    def test_criterion_1(self, seed):
        report, _ = check_discretization(seed=seed)
        assert canonical_json(report) == canonical_json(check_discretization_by_case(seed))

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
