"""Property test: samplers, shapes and the mean value share one distance rule."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capnorm.domains import DomainError, Shape, mean_value  # noqa: E402
from capnorm.grid import Sampler, distance, make_grid, sample  # noqa: E402


@st.composite
def geometries(draw):
    """A 1D-3D grid of depth 4 or less, a center, a radius, an exponent and signed cell values."""
    dim = draw(st.integers(1, 3))
    grid = make_grid(dim, draw(st.integers(1, 4)), draw(st.sampled_from([0.5, 1.0, 2.75])))
    side = grid.root_side
    center = draw(st.tuples(*[st.floats(-side, side)] * dim))
    radius = draw(st.floats(1e-3, 2.0 * side))
    exponent = draw(st.floats(-3.0, 3.0))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(grid.n_cells)
    return grid, center, radius, exponent, values


@given(geometries())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_one_distance_rule(geometry):
    grid, center, radius, exponent, values = geometry
    points = grid.centers()
    ball = Shape.ball(center, radius)
    mask = ball.contains(points)
    assert np.array_equal(sample(Sampler.ball_indicator(center, radius), grid).values.ravel() > 0, mask)
    if mask.any():
        assert mean_value(values, grid, ball) == values[mask].mean()
    else:
        with pytest.raises(DomainError, match="no cell centers"):
            mean_value(values, grid, ball)
    with np.errstate(divide="ignore"):  # a center on a cell center puts r = 0 under a negative power
        expected = distance(points, center) ** exponent
    assert np.array_equal(Sampler.radial_power(exponent, center).evaluate(points), expected)
