"""Property tests: the content DP against the exhaustive cover oracle.

Random cell sets small enough for the oracle's exhaustive search; the DP
value must equal the oracle's minimum, and growing a set must not lower
its content.  On larger random pairs the DP content is strongly
subadditive.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capnorm.content import content_oracle, content_value, strong_subadditivity_check  # noqa: E402
from capnorm.grid import CellSet, make_grid  # noqa: E402

# deepest grid per dimension whose random sets the oracle searches in milliseconds
MAX_DEPTH = {1: 5, 2: 3, 3: 2}


@st.composite
def nested_cell_sets(draw):
    """Nested cell sets inner <= outer on a small grid, and a delta in (0, dim]."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, MAX_DEPTH[dim]))
    grid = make_grid(dim, depth, draw(st.sampled_from([0.5, 1.0, 2.75])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    outer = rng.random(grid.shape) < draw(st.floats(0.0, 1.0))
    inner = outer & (rng.random(grid.shape) < draw(st.floats(0.0, 1.0)))
    delta = draw(st.floats(0.0, float(dim), exclude_min=True))
    return CellSet(grid, inner), CellSet(grid, outer), delta


def _full(dim, depth, delta):
    grid = make_grid(dim, depth, 1.0)
    mask = np.ones(grid.shape, dtype=bool)
    return CellSet(grid, mask), CellSet(grid, mask), delta


@given(nested_cell_sets())
@settings(max_examples=80, deadline=None)
@example(_full(2, 3, 2.0))  # delta = dim: the content is the measure
@example(_full(3, 2, 0.05))  # tiny delta: the root cube is the cheapest cover
def test_content_value_matches_oracle_and_is_monotone(case):
    inner, outer, delta = case
    values = []
    for cells in (inner, outer):
        dp = content_value(cells, delta)
        assert abs(dp - content_oracle(cells, delta)) <= 1e-12 * max(1.0, dp)
        values.append(dp)
    assert values[0] <= values[1] * (1 + 1e-12)


@st.composite
def cell_set_pairs(draw):
    """Two overlapping random cell sets on one grid, and a delta in (0, dim]."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, {1: 8, 2: 5, 3: 3}[dim]))
    grid = make_grid(dim, depth, draw(st.sampled_from([0.5, 1.0, 2.75])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random(grid.shape) < draw(st.floats(0.0, 1.0))
    # b keeps part of a and adds cells of its own, so both a & b and b - a vary
    b = (a & (rng.random(grid.shape) < draw(st.floats(0.0, 1.0)))) | (
        rng.random(grid.shape) < draw(st.floats(0.0, 1.0)))
    delta = draw(st.floats(0.0, float(dim), exclude_min=True))
    return CellSet(grid, a), CellSet(grid, b), delta


@given(cell_set_pairs())
@settings(max_examples=80, deadline=None)
def test_strong_subadditivity(case):
    a, b, delta = case
    assert strong_subadditivity_check(a, b, delta).slack >= -1e-12
