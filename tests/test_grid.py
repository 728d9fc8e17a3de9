import tracemalloc

import numpy as np
import pytest

from capnorm.grid import (
    CellSet,
    GridError,
    GridFunction,
    Sampler,
    gradient_magnitude,
    make_grid,
    sample,
)
from capnorm import io


def test_make_grid_1d():
    g = make_grid(1, 2, 1.0, origin=(0.0,))
    assert g.n_cells == 4
    assert g.h == 0.25


def test_make_grid_2d():
    g = make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    assert g.n_cells == 64
    assert g.h == 0.125


def test_make_grid_cell_cap():
    with pytest.raises(GridError, match="cap"):
        make_grid(3, 9, 1.0)  # 2^27 cells, past the 2^24 cap
    with pytest.raises(GridError, match="cap"):
        make_grid(2, 10**12, 1.0)  # refused without powering out 2^(2*10^12)


def test_make_grid_integer_dim_and_depth():
    g = make_grid(3.0, 2.0, 1.0)
    assert g == make_grid(3, 2, 1.0)
    assert type(g.dim) is int and type(g.depth) is int
    for dim, depth in ((2.5, 2), (True, 2), ("3", 2), (2, 2.5), (2, "3")):
        with pytest.raises(GridError, match="must be an integer"):
            make_grid(dim, depth, 1.0)


def test_make_grid_validation():
    with pytest.raises(GridError):
        make_grid(4, 2, 1.0)
    with pytest.raises(GridError):
        make_grid(2, 0, 1.0)
    with pytest.raises(GridError):
        make_grid(2, 2, -1.0)
    for root_side in (float("inf"), float("nan")):
        with pytest.raises(GridError, match="root_side must be positive and finite"):
            make_grid(2, 2, root_side, origin=(0.0, 0.0))


def test_centers_tile_root_exactly():
    g = make_grid(2, 3, 2.0, origin=(-1.0, -1.0))
    c = g.centers()
    assert c.shape == (64, 2)
    assert c.min() == -1.0 + g.h / 2
    assert c.max() == 1.0 - g.h / 2


def test_sample_constant():
    g = make_grid(1, 2, 1.0, origin=(0.0,))
    f = sample(Sampler.constant(3.0), g)
    assert np.all(f.values == 3.0)


def test_sample_ball_indicator_midpoint_rule():
    g = make_grid(2, 4, 2.0, origin=(-1.0, -1.0))
    f = sample(Sampler.ball_indicator((0.0, 0.0), 0.5), g)
    centers = g.centers()
    expected = (np.sqrt((centers**2).sum(axis=1)) < 0.5).astype(float).reshape(g.shape)
    assert np.array_equal(f.values, expected)


def test_sample_truncated_radial_power_max():
    # max value sits at the closest admitted cell center
    g = make_grid(2, 5, 2.0, origin=(-1.0, -1.0))
    f = sample(Sampler.radial_power(-0.8, center=(0.0, 0.0), annulus=(0.25, 1.0)), g)
    centers = g.centers()
    r = np.sqrt((centers**2).sum(axis=1))
    admitted = r[(r >= 0.25) & (r < 1.0)]
    assert f.values.max() == admitted.min() ** -0.8
    with pytest.raises(GridError, match="annulus"):
        Sampler.radial_power(-0.6, center=(0.25, 0.0), annulus=(0.5, 0.25))


# traced peak bytes per cell of sampling a distance kind: the center distances
# and one array of values, plus boolean masks.  Through the (n_cells, dim)
# centers the peak was 24-56 B/cell (it grew with dim); from grid-shaped
# distances it is 16-24 B/cell (numpy 2.4.6).
SAMPLE_PEAK_BYTES_PER_CELL = 26


@pytest.mark.parametrize("dim, depth", [(1, 16), (2, 8), (3, 6)])
@pytest.mark.parametrize("sampler", [
    lambda c: Sampler.radial_power(-0.8, c), lambda c: Sampler.radial_power(-0.8, c, (0.25, 0.9)),
    lambda c: Sampler.ball_indicator(c, 0.5), lambda c: Sampler.bump(c, 0.7),
], ids=["radial_power", "truncated_radial_power", "ball_indicator", "bump"])
def test_sample_peak_memory(sampler, dim, depth):
    g = make_grid(dim, depth, 2.0)
    s = sampler((0.1,) * dim)
    sample(s, g)  # numpy's first-call allocations are not the sampler's
    tracemalloc.start()
    try:
        sample(s, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= SAMPLE_PEAK_BYTES_PER_CELL * g.n_cells


def test_sampling_deterministic():
    g = make_grid(2, 4, 2.0)
    s = Sampler.radial_power(-0.3, center=(0.0, 0.0))
    assert np.array_equal(sample(s, g).values, sample(s, g).values)


def test_gridfunction_rejects_negative_and_nonfinite():
    g = make_grid(1, 2, 1.0, origin=(0.0,))
    with pytest.raises(GridError):
        GridFunction(g, np.array([1.0, -0.5, 0.0, 0.0]))
    with pytest.raises(GridError):
        GridFunction(g, np.array([1.0, np.inf, 0.0, 0.0]))


def test_gridfunction_and_cellset_refuse_another_shape():
    g = make_grid(2, 2, 1.0)
    with pytest.raises(GridError, match=r"values shape \(4,\) does not match grid shape \(4, 4\)"):
        GridFunction(g, np.ones(4))
    with pytest.raises(GridError, match=r"mask shape \(16,\) does not match grid shape \(4, 4\)"):
        CellSet(g, np.ones(16, dtype=bool))
    with pytest.raises(GridError, match="scale factor must be nonnegative"):
        GridFunction(g, np.ones((4, 4))).scale(-1.0)


def test_radial_power_singular_at_a_cell_center_is_refused():
    g = make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    s = Sampler.radial_power(-0.5, center=(0.0625, 0.0625))  # the center of cell (0, 0)
    with pytest.raises(GridError, match="sampler produced non-finite values at cell centers"):
        sample(s, g)
    with pytest.raises(GridError, match="gradient sampler produced non-finite values"):
        gradient_magnitude(s, g)


def test_gridfunction_equality():
    g = make_grid(1, 2, 1.0)
    f = GridFunction(g, np.array([0.0, 1.0, 2.0, 0.5]))
    assert f == GridFunction(g, np.array([0.0, 1.0, 2.0, 0.5]))
    assert f != GridFunction(g, np.array([0.0, 1.0, 2.0, 0.25]))
    assert f != GridFunction(make_grid(1, 2, 2.0), f.values)
    assert f != CellSet(g, f.values > 0)


def test_gradient_constant_is_zero():
    g = make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    assert np.all(gradient_magnitude(Sampler.constant(5.0), g).values == 0.0)


def test_gradient_radial_power_closed_form():
    # |grad |x|^eta| = |eta| |x|^(eta-1)
    s = Sampler.radial_power(-0.8, center=(0.0, 0.0))
    val = s.evaluate(np.array([[0.5, 0.0]]), gradient=True)[0]
    assert val == pytest.approx(0.8 * 0.5**-1.8, rel=1e-14)
    g = make_grid(2, 4, 2.0)
    gm = gradient_magnitude(s, g)
    centers = g.centers()
    r = np.sqrt((centers**2).sum(axis=1)).reshape(g.shape)
    assert np.allclose(gm.values, 0.8 * r**-1.8, rtol=1e-13)


# a negative radius used to sample as an empty indicator, and squared away in the bump
@pytest.mark.parametrize("radius", [0.0, -0.5, -1.0, float("inf"), float("nan")])
def test_sampler_radius_must_be_positive_and_finite(radius):
    with pytest.raises(GridError, match="radius must be positive and finite"):
        Sampler.ball_indicator((0.0, 0.0), radius)
    with pytest.raises(GridError, match="radius must be positive and finite"):
        Sampler.bump((0.0, 0.0), radius)


# a one-coordinate center used to be broadcast: bump((0.25,)) ran as bump((0.25, 0.25))
@pytest.mark.parametrize("sampler", [
    Sampler.bump((0.25,), 0.5), Sampler.radial_power(-0.5, (0.0,)),
    Sampler.ball_indicator((0.0, 0.0, 0.0), 0.5),
])
def test_sampler_center_must_match_point_dimension(sampler):
    g = make_grid(2, 3, 2.0)
    with pytest.raises(GridError, match=f"center has {len(sampler.center)} coordinates, "
                                        "the points have 2"):
        sample(sampler, g)
    if sampler.kind != "ball_indicator":
        with pytest.raises(GridError, match="the points have 2"):
            gradient_magnitude(sampler, g)


def test_radial_power_needs_a_center():
    with pytest.raises(TypeError, match="center"):
        Sampler.radial_power(-0.5)


def test_gradient_bump_closed_form():
    s = Sampler.bump((0.0, 0.0), 1.0, amplitude=2.0)
    pts = np.array([[0.5, 0.0], [2.0, 0.0]])
    vals = s.evaluate(pts, gradient=True)
    assert vals[0] == pytest.approx(2.0 * 4 * 0.5 * (1 - 0.25), rel=1e-14)
    assert vals[1] == 0.0


def test_gradient_indicator_rejected():
    g = make_grid(2, 3, 1.0)
    with pytest.raises(GridError):
        gradient_magnitude(Sampler.ball_indicator((0.0, 0.0), 0.4), g)


def test_superlevel_monotone_and_extremes():
    g = make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    rng = np.random.default_rng(7)
    f = GridFunction(g, rng.random(g.shape))
    lams = sorted(rng.random(5))
    for l1, l2 in zip(lams, lams[1:]):
        assert f.superlevel(l2).issubset(f.superlevel(l1))
    assert f.superlevel(f.max()).is_empty()
    assert f.superlevel(-1e-9).count == g.n_cells  # values >= 0 and strict inequality


def test_cellset_de_morgan():
    g = make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = CellSet(g, rng.random(g.shape) < 0.5)
        b = CellSet(g, rng.random(g.shape) < 0.5)
        assert (a | b).complement() == a.complement() & b.complement()
        assert (a & b).complement() == a.complement() | b.complement()
        assert a - b == a.difference(b) == a & b.complement()


def test_cellset_grid_mismatch():
    a = CellSet.full(make_grid(2, 3, 1.0))
    b = CellSet.full(make_grid(2, 4, 1.0))
    with pytest.raises(GridError):
        a.union(b)


def test_serialization_roundtrip_bit_exact():
    g = make_grid(2, 4, 2.0, origin=(-1.0, -1.0))
    f = sample(Sampler.radial_power(-0.37, center=(0.0, 0.0)), g)
    doc = io.gridfunction_to_dict(f)
    back = io.gridfunction_from_dict(doc)
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)

    rng = np.random.default_rng(3)
    cells = CellSet(g, rng.random(g.shape) < 0.5)
    back_cells = io.cellset_from_dict(io.cellset_to_dict(cells))
    assert back_cells == cells
