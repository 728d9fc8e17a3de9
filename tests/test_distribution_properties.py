"""Property test: the one-pass distribution against from-scratch content DPs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capnorm.choquet import distribution  # noqa: E402
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
