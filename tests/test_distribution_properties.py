"""Property tests: the step distribution against independent from-scratch references.

The one-pass tree sweep is checked against from-scratch content DPs; the
value clustering and the counting path against a plain loop over the
sorted distinct values, and the counting path bit for bit against the
per-value counts it replaced.  The dyadic-level sum's one lookup of all
its levels is checked value for value and refusal for refusal against a
per-level `content_at` loop.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capnorm.choquet import (MERGE_RTOL, _GAP_SLICE, ExponentError, StepDistribution,  # noqa: E402
                             _clusters, _counting_distribution, _largest_pow2_below, checked_norm,
                             distribution, dyadic_sum_norm_of)
from capnorm.content import content_value  # noqa: E402
from capnorm.grid import CellSet, GridFunction, make_grid  # noqa: E402


@st.composite
def quantised_functions(draw):
    """A grid of up to 2^12 cells, a delta in (0, dim), values on up to 64 tied levels."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 12 // dim))
    grid = make_grid(dim, depth, draw(st.sampled_from([0.5, 1.0, 2.75])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_levels = draw(st.integers(1, 64))
    density = draw(st.floats(0.0, 1.0))
    step = draw(st.floats(1e-3, 1e3))
    values = rng.integers(1, n_levels + 1, size=grid.shape) * step * (rng.random(grid.shape) < density)
    delta = draw(st.floats(0.0, float(dim), exclude_min=True, exclude_max=True))
    return GridFunction(grid, values), delta


def _single_cell(dim, depth, index, delta):
    grid = make_grid(dim, depth, 1.0)
    values = np.zeros(grid.shape)
    values.flat[index] = 2.5
    return GridFunction(grid, values), delta


def _on_grid(dim, depth, values):
    grid = make_grid(dim, depth, 1.0)
    return GridFunction(grid, np.resize(np.asarray(values, dtype=np.float64), grid.shape))


def _quantised(dim, depth, n_levels, density, seed, delta):
    """A seeded field on n_levels tied levels; a cell is positive with probability density."""
    grid = make_grid(dim, depth, 1.0)
    rng = np.random.default_rng(seed)
    values = rng.integers(1, n_levels + 1, size=grid.shape) * (rng.random(grid.shape) < density)
    return GridFunction(grid, values.astype(np.float64)), delta


def _last_children_only(dim, depth, delta):
    """Positive cells only where every index is 2 or 3 mod 4: each level-(depth-2) node
    has its last child and no other, each coarser node all of its children."""
    grid = make_grid(dim, depth, 1.0)
    idx = np.indices(grid.shape)
    values = np.where(np.all(idx % 4 >= 2, axis=0), 1.0 + idx.sum(axis=0) % 5, 0.0)
    return GridFunction(grid, values), delta


# a parent's offset-0 child absent, a later child present: of the 4x4 blocks, the one
# at (0, 0) holds only its (1, 1) quadrant, the one at (4, 4) only its (1, 0) quadrant
_OFFSET0_ABSENT = np.zeros((8, 8))
_OFFSET0_ABSENT[2:4, 2:4] = [[1.0, 2.0], [3.0, 1.0]]
_OFFSET0_ABSENT[6:8, 4:6] = 2.0


@given(quantised_functions())
@settings(max_examples=80, deadline=None)
@example((GridFunction.zeros(make_grid(2, 3, 1.0)), 1.2))  # f == 0
@example((GridFunction(make_grid(3, 2, 1.0), np.ones((4, 4, 4))), 0.4))  # m = 1
@example((GridFunction(make_grid(2, 1, 1.0), np.array([[0.0, 3.0], [3.0, 1.0]])), 1.7))  # depth 1
@example(_single_cell(3, 4, 1234, 2.9))  # a single occupied cell
@example(_single_cell(1, 12, 4095, 0.01))
# the forward fill's cases: an absent offset-0 child before a present later one
@example((_on_grid(1, 3, [0.0, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]), 0.6))
@example((_on_grid(2, 3, _OFFSET0_ABSENT), 1.4))
@example(_last_children_only(3, 4, 2.3))
# a child whose only segment starts at 0: both its cells are on the top level
@example((_on_grid(1, 3, [3.0, 3.0, 0.0, 1.0, 0.0, 0.0, 2.0, 3.0]), 0.45))
@example((_on_grid(2, 3, np.append(np.full(16, 3.0), np.resize([1.0, 2.0, 0.0, 3.0], 48))), 1.1))
# sparse occupancy on more than 8 levels
@example(_quantised(2, 6, 40, 0.03, 7, 1.3))
@example(_quantised(1, 12, 200, 0.01, 8, 0.45))
@example(_quantised(3, 4, 25, 0.02, 9, 1.8))
# 3D at depths 2 to 4
@example(_quantised(3, 2, 5, 0.7, 1, 2.2))
@example(_quantised(3, 3, 12, 0.4, 2, 1.1))
@example(_quantised(3, 4, 30, 0.5, 3, 2.6))
def test_one_pass_distribution_matches_from_scratch(case):
    f, delta = case
    dist = distribution(f, delta)
    assert dist.thresholds.size == np.unique(f.values[f.values > 0]).size
    # plateau j is the content of {f > v_j-1}, with v_0 = 0
    lower = np.concatenate([[0.0], dist.thresholds])[: dist.thresholds.size]
    fresh = np.array([content_value(CellSet(f.grid, f.values > v), delta) for v in lower])
    assert np.array_equal(dist.plateaus.view(np.uint64), fresh.view(np.uint64))


def _reference_counting(values, cell_volume):
    """Cluster maxima by a loop over the sorted distinct positive values, and counted plateaus.

    A value opens a new cluster when its gap to the previous distinct value
    exceeds MERGE_RTOL times the value; plateau j counts the cells above
    threshold j-1, with threshold -1 taken as 0.
    """
    thresholds = []
    previous = None
    for v in sorted({float(x) for x in values.ravel() if x > 0}):
        if previous is not None and v - previous <= MERGE_RTOL * v:
            thresholds[-1] = v
        else:
            thresholds.append(v)
        previous = v
    lower = ([0.0] + thresholds)[: len(thresholds)]
    plateaus = [(values > t).sum() * cell_volume for t in lower]
    return np.array(thresholds, dtype=np.float64), np.array(plateaus, dtype=np.float64)


@st.composite
def clustered_functions(draw):
    """A grid of up to 2^12 cells, values on runs of near neighbours of a few base values.

    Each run multiplies its base by 1 + s for drawn steps s of up to
    2 MERGE_RTOL, so runs merge transitively, split, or both; bases
    include 0 and subnormals.
    """
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 12 // dim))
    grid = make_grid(dim, depth, draw(st.sampled_from([0.5, 1.0, 2.75])))
    bases = draw(st.lists(st.floats(0.0, 1e300, allow_subnormal=True), min_size=1, max_size=6))
    steps = draw(st.lists(st.floats(0.0, 2 * MERGE_RTOL), max_size=8))
    pool = []
    for v in bases:
        pool.append(v)
        for s in steps:
            v *= 1.0 + s
            pool.append(v)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array(pool)[rng.integers(0, len(pool), size=grid.shape)]
    values *= rng.random(grid.shape) < draw(st.floats(0.0, 1.0))
    return GridFunction(grid, values)


CHAIN = np.cumprod(np.full(9, 1.0 + 0.9 * MERGE_RTOL))  # each within MERGE_RTOL of the next


@given(clustered_functions())
@settings(max_examples=80, deadline=None)
@example(GridFunction.zeros(make_grid(2, 3, 1.0)))  # f == 0
@example(_single_cell(3, 4, 1234, 0.5)[0])  # one positive cell
@example(_on_grid(2, 3, [7.25]))  # all values equal
@example(_on_grid(2, 3, [0.0, -0.0, 3.0, -0.0, 1.5]))  # zeros of both signs
@example(_on_grid(1, 5, [5e-324, 1e-323, 2.5e-308, 0.0]))  # subnormals
@example(_on_grid(2, 3, np.append(CHAIN, 2.0)))  # a chain wider than MERGE_RTOL
def test_counting_distribution_matches_loop_reference(f):
    thresholds, plateaus = _reference_counting(f.values, f.grid.cell_volume)
    for dist in (distribution(f, f.grid.dim), distribution(f, float(f.grid.dim))):
        assert dist.thresholds.tobytes() == thresholds.tobytes()
        assert dist.plateaus.tobytes() == plateaus.tobytes()
    # below dim the same clusters feed the tree sweep
    assert distribution(f, 0.5 * f.grid.dim).thresholds.tobytes() == thresholds.tobytes()


def _unique_counting(f):
    """The counting distribution from per-value counts: np.unique, one sum per cluster, a reversed cumsum."""
    values = f.values.ravel()
    uniq, counts = np.unique(values[values > 0], return_counts=True)
    if uniq.size == 0:
        return np.empty(0), np.empty(0)
    opens, reps = _clusters(uniq)
    cells_in_cluster = np.add.reduceat(counts, np.flatnonzero(opens))
    return reps, np.cumsum(cells_in_cluster[::-1])[::-1] * f.grid.cell_volume


@given(clustered_functions())
@settings(max_examples=80, deadline=None)
@example(GridFunction.zeros(make_grid(2, 3, 1.0)))  # f == 0
@example(_on_grid(2, 3, [7.25]))  # all values equal
@example(_on_grid(1, 5, [5e-324, 5e-324, 1e-323, 2.5e-308, 0.0]))  # repeated subnormals
@example(_on_grid(2, 3, np.append(CHAIN, 2.0)))  # a chain wider than MERGE_RTOL
def test_counting_distribution_matches_per_value_counts(f):
    dist = _counting_distribution(f)
    thresholds, plateaus = _unique_counting(f)
    assert dist.thresholds.tobytes() == thresholds.tobytes()
    assert dist.plateaus.tobytes() == plateaus.tobytes()


@pytest.mark.parametrize("n", [_GAP_SLICE - 1, _GAP_SLICE, _GAP_SLICE + 1, _GAP_SLICE + 2,
                               2 * _GAP_SLICE + 1])
def test_gap_test_slices_match_per_value_counts_and_a_loop(n):
    # sorted neighbours cycle through a tie, a near-tie that merges and a gap that
    # splits, so each kind meets a slice boundary at one of the sizes
    steps = np.resize([0.0, 0.5 * MERGE_RTOL, 3 * MERGE_RTOL], n - 1)
    sorted_values = np.cumprod(np.concatenate([[0.75], 1.0 + steps]))
    rng = np.random.default_rng(n)
    values = np.zeros(4 * _GAP_SLICE)
    values[rng.choice(values.size, n, replace=False)] = rng.permutation(sorted_values)
    f = _on_grid(1, int(np.log2(values.size)), values)
    dist = _counting_distribution(f)
    thresholds, plateaus = _unique_counting(f)
    assert dist.thresholds.tobytes() == thresholds.tobytes()
    assert dist.plateaus.tobytes() == plateaus.tobytes()
    opens, _ = _clusters(sorted_values)
    gaps = [True] + [b - a > MERGE_RTOL * b for a, b in zip(sorted_values[:-1], sorted_values[1:])]
    assert opens.tolist() == gaps


def _dyadic_sum_per_level(dist, p, q):
    """The dyadic-level sum with one content_at lookup per level, in two Python loops."""

    def closed_form():
        i_tail = _largest_pow2_below(float(dist.thresholds[0]))
        i_top = _largest_pow2_below(float(dist.thresholds[-1]))
        h0 = float(dist.plateaus[0])
        if q == math.inf:
            norm = math.ldexp(1.0, i_tail) * h0 ** (1.0 / p)
            for i in range(i_tail + 1, i_top + 1):
                h = dist.content_at(math.ldexp(1.0, i))
                norm = max(norm, math.ldexp(1.0, i) * h ** (1.0 / p))
            return norm
        total = h0 ** (q / p) * math.ldexp(1.0, i_tail) ** q / (1.0 - 2.0**-q)
        for i in range(i_tail + 1, i_top + 1):
            lam = math.ldexp(1.0, i)
            h = dist.content_at(lam)
            if h > 0:
                total += lam**q * h ** (q / p)
        return total ** (1.0 / q)

    return checked_norm("dyadic sum norm", dist.is_zero, p, q, closed_form)


def _norm_or_refusal(norm, dist, p, q):
    try:
        return norm(dist, p, q)
    except ExponentError as exc:
        return str(exc)


@st.composite
def step_distributions(draw):
    """Up to 40 thresholds within e^+-span (span up to 700), exact powers of two among them in
    half the draws; nonincreasing plateaus scaled down as far as 1e-320, the top ones zeroed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([1.0, 10.0, 100.0, 700.0]))
    thresholds = np.exp(rng.uniform(-span, span, draw(st.integers(1, 40))))
    if draw(st.booleans()):
        thresholds = np.append(thresholds, np.ldexp(1.0, rng.integers(-20, 20, 3)))
    thresholds = np.unique(thresholds)
    plateaus = np.sort(rng.random(thresholds.size))[::-1] * draw(st.sampled_from([1.0, 1e-300, 1e-320]))
    plateaus[thresholds.size - draw(st.integers(0, thresholds.size)):] = 0.0
    return StepDistribution(thresholds, plateaus)


@given(step_distributions(), st.sampled_from([0.3, 1.0, 1.5, 2.5, 7.0]),
       st.sampled_from([1e-300, 1e-3, 0.5, 1.0, 2.0, 4.0, 300.0, math.inf]))
@settings(max_examples=300, deadline=None)
# levels that land on thresholds: each reads the plateau to the right of its threshold
@example(StepDistribution([1.0, 2.0, 4.0, 5.0], [4.0, 3.0, 2.0, 1.0]), 1.5, 2.0)
@example(StepDistribution([1.0, 2.0, 4.0, 5.0], [4.0, 3.0, 2.0, 1.0]), 1.5, math.inf)
# zero plateaus under levels whose lam**q overflows: they add no term, so no refusal
@example(StepDistribution([1.0, 1e300, 1e308], [1.0, 0.0, 0.0]), 1.0, 4.0)
@example(StepDistribution([0.75], [2.0]), 1.0, 1.0)  # m = 1: the tail alone
@example(StepDistribution([], []), 1.0, 2.0)  # f == 0
def test_dyadic_sum_matches_per_level_lookup(dist, p, q):
    norm = _norm_or_refusal(dyadic_sum_norm_of, dist, p, q)
    assert norm == _norm_or_refusal(_dyadic_sum_per_level, dist, p, q)
    if dist.thresholds.tolist() == [1.0, 1e300, 1e308]:
        assert norm == pytest.approx(15.0**-0.25, rel=1e-15)  # the tail at 2^-1 alone
