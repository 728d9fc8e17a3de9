"""Property tests: the step distribution against independent from-scratch references.

The one-pass tree sweep is checked against from-scratch content DPs; the
value clustering and the counting path against a plain loop over the
sorted distinct values, and the counting path bit for bit against the
per-value counts it replaced.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capnorm.choquet import (MERGE_RTOL, _GAP_SLICE, _clusters, _counting_distribution,  # noqa: E402
                             distribution)
from capnorm.content import content_value  # noqa: E402
from capnorm.grid import CellSet, GridFunction, make_grid  # noqa: E402


@st.composite
def quantised_functions(draw):
    """A grid of up to 2^12 cells, a delta in (0, dim), values on a few tied levels."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 12 // dim))
    grid = make_grid(dim, depth, draw(st.sampled_from([0.5, 1.0, 2.75])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_levels = draw(st.integers(1, 8))
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


@given(quantised_functions())
@settings(max_examples=80, deadline=None)
@example((GridFunction.zeros(make_grid(2, 3, 1.0)), 1.2))  # f == 0
@example((GridFunction(make_grid(3, 2, 1.0), np.ones((4, 4, 4))), 0.4))  # m = 1
@example((GridFunction(make_grid(2, 1, 1.0), np.array([[0.0, 3.0], [3.0, 1.0]])), 1.7))  # depth 1
@example(_single_cell(3, 4, 1234, 2.9))  # a single occupied cell
@example(_single_cell(1, 12, 4095, 0.01))
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


def _on_grid(dim, depth, values):
    grid = make_grid(dim, depth, 1.0)
    return GridFunction(grid, np.resize(np.asarray(values, dtype=np.float64), grid.shape))


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
