"""Property tests: samplers, shapes and the mean value share one distance rule, at
points and on grids, and each sampler and shape is rebuilt from its config bit for bit."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capnorm.domains import DomainError, Shape, mean_value  # noqa: E402
from capnorm.grid import GridError, Sampler, distance, gradient_magnitude, make_grid, sample  # noqa: E402
from capnorm.verify import (SAMPLER_KINDS, SHAPE_KINDS, sampler_from_config,  # noqa: E402
                            shape_from_config, to_config)


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
    # sampling reads grid-shaped center distances, summed in axis order as distance sums
    assert grid.center_distances(center).tobytes() == distance(points, center).tobytes()
    for sampler in (Sampler.radial_power(exponent, center),
                    Sampler.radial_power(exponent, center, (radius / 2, radius)),
                    Sampler.ball_indicator(center, radius), Sampler.bump(center, radius)):
        for on_grid, gradient in ((sample, False), (gradient_magnitude, True)):
            if sampler.kind == "ball_indicator" and gradient:
                continue
            expected = sampler.evaluate(points, gradient)
            if np.all(np.isfinite(expected)):
                assert on_grid(sampler, grid).values.tobytes() == expected.reshape(grid.shape).tobytes()
            else:
                with pytest.raises(GridError, match="non-finite"):
                    on_grid(sampler, grid)


NUMBER = st.floats(-10.0, 10.0)
RADIUS = st.floats(1e-3, 10.0)


def _points(dim):
    return st.tuples(*[NUMBER] * dim)


# kind -> strategy of its constructor's keywords, for a run of dimension dim
def _sampler_keys(dim):
    annulus = st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(1.5, 10.0))
    return {
        "constant": {"value": NUMBER},
        "radial_power": {"exponent": NUMBER, "center": _points(dim), "annulus": annulus},
        "ball_indicator": {"center": _points(dim), "radius": RADIUS},
        "linear": {"coeffs": _points(dim), "offset": NUMBER},
        "bump": {"center": _points(dim), "radius": RADIUS, "amplitude": NUMBER},
    }


def _shape_keys(dim):
    return {
        "ball": {"center": _points(dim), "radius": RADIUS},
        "rectangle": {"center": _points(2), "sides": st.tuples(RADIUS, RADIUS)},
        "l_shape": {"anchor": _points(2), "size": RADIUS},
        "punctured_ball": {"center": _points(dim), "radius": RADIUS},
    }


def _json(config):
    """config as a report file holds it: strict JSON, read back."""
    return json.loads(json.dumps(config, allow_nan=False))


@given(st.integers(1, 3), st.sampled_from(SAMPLER_KINDS), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sampler_config_round_trip(dim, kind, data):
    assert sorted(_sampler_keys(dim)) == sorted(SAMPLER_KINDS)
    sampler = getattr(Sampler, kind)(**data.draw(st.fixed_dictionaries(_sampler_keys(dim)[kind])))
    assert sampler_from_config(_json(to_config(sampler, "kind")), dim) == sampler


@given(st.integers(1, 3), st.sampled_from(SHAPE_KINDS), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_shape_config_round_trip(dim, kind, data):
    assert sorted(_shape_keys(dim)) == sorted(SHAPE_KINDS)
    shape = getattr(Shape, kind)(**data.draw(st.fixed_dictionaries(_shape_keys(dim)[kind])))
    assert shape_from_config(_json(to_config(shape, "shape"))) == shape
