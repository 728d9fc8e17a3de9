import math

import numpy as np
import pytest

from capnorm.domains import (
    DomainError,
    Shape,
    make_john_domain,
    mean_value,
    mean_value_ball,
)
from capnorm.grid import GridFunction, Sampler, make_grid, sample


def test_ball_constants():
    g = make_grid(2, 4, 2.0)
    dom = make_john_domain(Shape.ball((0.0, 0.0), 1.0), g)
    assert dom.alpha_john == dom.beta_john == 1.0
    assert dom.center_x0 == (0.0, 0.0)


def test_rectangle_constants():
    g = make_grid(2, 4, 4.0)
    dom = make_john_domain(Shape.rectangle((0.0, 0.0), (1.0, 1.0)), g)
    assert dom.alpha_john == 0.5
    assert dom.beta_john == pytest.approx(math.sqrt(2.0) / 2)
    dom2 = make_john_domain(Shape.rectangle((0.0, 0.0), (3.0, 1.5)), g)
    assert dom2.alpha_john == 0.75
    assert dom2.beta_john == pytest.approx(math.hypot(3.0, 1.5) / 2)
    assert dom2.alpha_john <= dom2.beta_john


@pytest.mark.parametrize("sides, message", [
    ((1.0,), "needs 2 sides, got 1"), ((1.0, 2.0, 3.0), "needs 2 sides, got 3"),
    ((1.0, 0.0), "sides must be positive"),
])
def test_rectangle_needs_two_positive_sides(sides, message):
    with pytest.raises(DomainError, match=message):
        Shape.rectangle((0.0, 0.0), sides)


# NaN and inf used to pass the `<= 0` tests and fail later, when the grid was built
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("build, what", [
    (lambda v: Shape.ball((0.0, 0.0), v), "ball radius"),
    (lambda v: Shape.punctured_ball((0.0, 0.0), v), "punctured_ball radius"),
    (lambda v: Shape.l_shape((0.0, 0.0), v), "l_shape size"),
    (lambda v: Shape.rectangle((0.0, 0.0), (1.0, v)), "rectangle sides"),
], ids=["ball", "punctured_ball", "l_shape", "rectangle"])
def test_shape_sizes_must_be_positive_and_finite(build, what, value):
    with pytest.raises(DomainError, match=f"{what} must be positive and finite"):
        build(value)


def test_l_shape_constants_and_cells():
    g = make_grid(2, 4, 1.0, origin=(0.0, 0.0))
    dom = make_john_domain(Shape.l_shape((0.0, 0.0), 1.0), g)
    assert dom.alpha_john == 0.25
    assert dom.beta_john == 1.0
    assert dom.center_x0 == (0.25, 0.25)
    # three of the four quadrants
    assert dom.cells.count == 3 * (g.n_cells // 4)


def test_punctured_ball_removes_corner_cells():
    g = make_grid(2, 4, 2.0)
    ball = make_john_domain(Shape.ball((0.0, 0.0), 1.0), g)
    punct = make_john_domain(Shape.punctured_ball((0.0, 0.0), 1.0), g)
    assert punct.alpha_john == punct.beta_john == 1.0
    assert ball.cells.count - punct.cells.count == 4  # 2^dim cells at the corner


def test_shape_outside_root_rejected():
    g = make_grid(2, 4, 2.0)
    with pytest.raises(DomainError, match="fit"):
        make_john_domain(Shape.ball((0.9, 0.0), 0.5), g)


@pytest.mark.parametrize("shape, expected", [
    (Shape.ball((0.0, 0.0), 1.5), 3.0),
    (Shape.punctured_ball((0.0, 0.0), 0.75), 1.5),
    (Shape.rectangle((0.0, 0.0), (3.0, 1.5)), math.sqrt(3.0**2 + 1.5**2)),
    (Shape.l_shape((-1.0, -1.0), 1.5), math.sqrt(1.5**2 + 1.5**2)),
], ids=["ball", "punctured_ball", "rectangle", "l_shape"])
def test_shape_diameter(shape, expected):
    assert shape.diameter == pytest.approx(expected, rel=1e-15)
    # the occupied cell centers come within two cell diagonals of it
    g = make_grid(2, 6, 4.0)
    pts = g.centers()[make_john_domain(shape, g).cells.mask.ravel()]
    centers_diam = math.sqrt(float(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1).max()))
    assert shape.diameter - 2 * math.sqrt(2.0) * g.h <= centers_diam <= shape.diameter


def test_diameter_within_john_bound():
    g = make_grid(2, 5, 4.0)
    for shape in (
        Shape.ball((0.0, 0.0), 1.5),
        Shape.rectangle((0.0, 0.0), (2.0, 1.0)),
        Shape.l_shape((0.0, 0.0), 1.5),
    ):
        dom = make_john_domain(shape, g)
        pts = g.centers()[dom.cells.mask.ravel()]
        hull_diam = 0.0
        # exact pairwise diameter over occupied centers (small grids)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        hull_diam = math.sqrt(float(d2.max()))
        assert hull_diam <= dom.diameter_bound + 1e-12


def test_mean_value_ball_radius_formula():
    g = make_grid(2, 5, 2.0)
    dom = make_john_domain(Shape.ball((0.0, 0.0), 1.0), g)
    ball = mean_value_ball(dom, c_ball=0.25)
    assert ball.radius == pytest.approx(0.25 * 1.0**2 / 1.0)
    assert ball.center == (0.0, 0.0)


def test_mean_value_constant_exact():
    g = make_grid(2, 5, 2.0)
    dom = make_john_domain(Shape.ball((0.0, 0.0), 1.0), g)
    ball = mean_value_ball(dom)
    f = sample(Sampler.constant(2.75), g)
    assert mean_value(f.values, g, ball) == 2.75


def test_mean_value_odd_function_near_zero():
    g = make_grid(2, 6, 2.0)
    dom = make_john_domain(Shape.ball((0.0, 0.0), 1.0), g)
    ball = mean_value_ball(dom)
    raw = g.centers()[:, 0]  # u = x1, signed
    val = mean_value(raw, g, ball, within=dom.cells)
    assert abs(val) <= 2 * g.h


def test_mean_value_half_plane_indicator():
    g = make_grid(2, 6, 2.0)
    dom = make_john_domain(Shape.ball((0.0, 0.0), 1.0), g)
    ball = mean_value_ball(dom, c_ball=0.5)
    raw = (g.centers()[:, 0] > 0).astype(float)
    val = mean_value(raw, g, ball, within=dom.cells)
    assert val == pytest.approx(0.5, abs=0.1)


def test_mean_value_linearity():
    g = make_grid(2, 5, 2.0)
    dom = make_john_domain(Shape.ball((0.0, 0.0), 1.0), g)
    ball = mean_value_ball(dom)
    rng = np.random.default_rng(3)
    u = rng.random(g.n_cells)
    v = rng.random(g.n_cells)
    lhs = mean_value(2.0 * u + 3.0 * v, g, ball)
    rhs = 2.0 * mean_value(u, g, ball) + 3.0 * mean_value(v, g, ball)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mean_value_empty_ball_error():
    g = make_grid(2, 2, 2.0)  # h = 0.5, nearest center at distance > tiny radius
    dom = make_john_domain(Shape.ball((0.0, 0.0), 1.0), g)
    tiny = mean_value_ball(dom, c_ball=0.1)
    f = sample(Sampler.constant(1.0), g)
    with pytest.raises(DomainError, match="no cell centers"):
        mean_value(f.values, g, tiny)


def test_mean_value_ball_must_fit():
    g = make_grid(2, 4, 2.0)
    dom = make_john_domain(Shape.ball((0.0, 0.0), 1.0), g)
    with pytest.raises(DomainError, match="sticks out"):
        mean_value_ball(dom, c_ball=1.5)


# a negative, zero or NaN constant used to give an empty ball, which a constant
# sampler never averages over, so the run passed; inf gave "sticks out"
@pytest.mark.parametrize("c_ball", [0.0, -1.0, math.nan, math.inf])
def test_mean_value_ball_constant_must_be_positive_and_finite(c_ball):
    dom = make_john_domain(Shape.ball((0.0, 0.0), 1.0), make_grid(2, 4, 2.0))
    with pytest.raises(DomainError, match="^c_ball must be positive and finite"):
        mean_value_ball(dom, c_ball)


def test_punctured_ball_requires_corner_alignment():
    g = make_grid(2, 4, 2.0, origin=(-1.01, -1.0))
    with pytest.raises(DomainError, match="corner"):
        make_john_domain(Shape.punctured_ball((0.0, 0.0), 0.9), g)
