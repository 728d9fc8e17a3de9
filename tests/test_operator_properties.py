"""Property test: the FFT operator fields against the point evaluators at every cell."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capnorm.grid import GridFunction, make_grid  # noqa: E402
from capnorm.operators import (  # noqa: E402
    MaximalParams,
    maximal,
    maximal_at,
    riesz,
    riesz_normalization,
    riesz_unnormalized_at,
)

FIELD_RTOL = 1e-12


@st.composite
def functions(draw):
    """dim 1-3, at most 2^9 cells, nonnegative values with random support and scale."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 9 // dim))
    grid = make_grid(dim, depth, draw(st.sampled_from([0.5, 1.0, 2.75])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 1.0))
    scale = draw(st.floats(1e-6, 1e6))
    return GridFunction(grid, scale * rng.random(grid.shape) * (rng.random(grid.shape) < density))


def _point_field(f, evaluate):
    return np.array([evaluate(f, x) for x in f.grid.centers()]).reshape(f.grid.shape)


def _assert_close(field, point):
    assert np.all(np.abs(field - point) <= FIELD_RTOL * field.max())


@given(functions(), st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_maximal_field_equals_point_evaluator(f, mu_frac):
    mu = mu_frac * f.grid.dim
    field = maximal(f, MaximalParams(mu)).values
    _assert_close(field, _point_field(f, lambda h, x: maximal_at(h, x, mu)))


@given(functions(), st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_riesz_field_equals_point_evaluator(f, alpha_frac):
    dim = f.grid.dim
    alpha = alpha_frac * dim
    field = riesz(f, alpha).values
    point = _point_field(f, lambda h, x: riesz_unnormalized_at(h, x, alpha))
    _assert_close(field, point / riesz_normalization(dim, alpha))
