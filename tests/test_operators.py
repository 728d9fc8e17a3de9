import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from capnorm import operators
from capnorm.choquet import LorentzExponents, choquet_p_norm, distribution, lorentz_norm
from capnorm.content import ContentError
from capnorm.grid import GridError, GridFunction, Sampler, make_grid, sample
from capnorm.operators import (
    L1_CONTENT_BOUND,
    L1_CONTENT_DELTA_FLOOR,
    MaximalParams,
    OperatorError,
    default_radius_sweep,
    hedberg_ratio_field,
    l1_content_ratio,
    maximal,
    maximal_at,
    riesz,
    riesz_normalization,
    riesz_unnormalized_at,
    unit_ball_volume,
    unit_sphere_area,
)

# documented two-sided discretization slack: cell-center counting against
# the exact continuum ball volume oscillates (lattice point counts) by up
# to ~18% at radii close to the cell side
EPS_DISC = 0.25

# FFT fields against the exact point evaluators, relative to the field maximum
FIELD_RTOL = 1e-12

RNG = np.random.default_rng(77)


def _point_field(f, evaluate):
    """A point evaluator applied at every cell center, as a grid-shaped array."""
    g = f.grid
    return np.array([evaluate(f, x) for x in g.centers()]).reshape(g.shape)


def test_geometry_constants():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
    assert unit_sphere_area(1) == pytest.approx(2.0)
    assert unit_sphere_area(2) == pytest.approx(2 * math.pi)
    assert unit_sphere_area(3) == pytest.approx(4 * math.pi)


def test_radius_sweep_spans_grid():
    g = make_grid(2, 5, 2.0)
    radii = default_radius_sweep(g)
    assert radii[0] == g.h
    assert radii[-1] >= 2.0 * g.diameter
    assert np.all(np.diff(radii) > 0)


@pytest.mark.parametrize("mu", [2.0, -0.5])
def test_radius_validation(mu):
    # the field and the point evaluator refuse mu with one message
    g = make_grid(2, 4, 2.0)
    f = sample(Sampler.constant(1.0), g)
    message = re.escape(f"mu must be in [0, dim) = [0, 2), got {mu}")
    with pytest.raises(OperatorError, match=message):
        maximal(f, MaximalParams(mu))
    with pytest.raises(OperatorError, match=message):
        maximal_at(f, (0.0, 0.0), mu)


def test_maximal_constant_bracket():
    g = make_grid(2, 5, 2.0)
    f = sample(Sampler.constant(3.0), g)
    mf = maximal(f, MaximalParams(0.0))
    center_value = mf.values[g.cells_per_axis // 2, g.cells_per_axis // 2]
    assert 3.0 * (1 - EPS_DISC) <= center_value <= 3.0 * (1 + EPS_DISC)
    assert np.all(mf.values <= 3.0 * (1 + EPS_DISC))


def test_maximal_indicator_bounds():
    g = make_grid(2, 5, 2.0)
    f = sample(Sampler.ball_indicator((0.0, 0.0), 0.6), g)
    mf = maximal(f, MaximalParams(0.0))
    assert np.all(mf.values <= 1.0 + EPS_DISC)
    # boundary cells see half-empty small balls; the lower bound holds on
    # the interior, where some sweep radius gives a fully covered ball
    r = np.sqrt((g.centers() ** 2).sum(axis=1)).reshape(g.shape)
    interior = mf.values[r < 0.6 - 3 * g.h]
    assert np.all(interior >= 1.0 - EPS_DISC)


def test_maximal_fractional_peak():
    # sup over r <= R of r^mu * average approximates R^mu at the center
    g = make_grid(2, 6, 2.0)
    f = sample(Sampler.ball_indicator((0.0, 0.0), 0.5), g)
    mf = maximal(f, MaximalParams(0.5))
    m = g.cells_per_axis // 2
    assert mf.values[m, m] == pytest.approx(0.5**0.5, rel=0.05)


def test_maximal_at_monotone_exact():
    g = make_grid(2, 4, 2.0)
    a = RNG.random(g.shape)
    f = GridFunction(g, a)
    gfun = GridFunction(g, a + RNG.random(g.shape))
    mf = _point_field(f, lambda h, x: maximal_at(h, x, 0.3))
    mg = _point_field(gfun, lambda h, x: maximal_at(h, x, 0.3))
    assert np.all(mf <= mg)


def test_maximal_homogeneity_and_subdistributivity():
    g = make_grid(2, 4, 2.0)
    f = GridFunction(g, RNG.random(g.shape))
    gfun = GridFunction(g, RNG.random(g.shape))
    params = MaximalParams(0.4)
    mf, mg = maximal(f, params), maximal(gfun, params)
    m_scaled = maximal(f.scale(2.5), params)
    assert np.allclose(m_scaled.values, 2.5 * mf.values, rtol=1e-12)
    m_sum = maximal(f + gfun, params)
    assert np.all(m_sum.values <= mf.values + mg.values + 1e-12)


# (dim, depth, bump centre coordinate) on the root [-1, 1)^dim.  The centred
# bump reaches offsets of about 0.9 m cells from any output cell; the one on
# the root corner -1 reaches the full m - 1, so only it sees every offset a
# too-short FFT period would wrap.
FIELD_CASES = tuple(
    (dim, depth, c) for dim, depth in ((1, 8), (2, 5), (3, 3)) for c in (0.0, -1.0)
)


def test_maximal_field_matches_point_evaluator():
    for dim, depth, c in FIELD_CASES:
        g = make_grid(dim, depth, 2.0)
        f = sample(Sampler.bump((c,) * dim, 0.8), g)
        field = maximal(f, MaximalParams(0.25)).values
        point = _point_field(f, lambda h, x: maximal_at(h, x, 0.25))
        assert np.all(np.abs(field - point) <= FIELD_RTOL * field.max()), (dim, depth, c)


# The transform path against a full-lattice reference built here: every
# kernel is laid out on all (2m)^dim offsets of the periodic lattice, where
# index j holds the signed offset j, or j - 2m past m.
TRANSFORM_RTOL = 1e-15
TRANSFORM_GRIDS = ((1, 6), (2, 4), (3, 3))


def _full_distances(grid):
    """|offset| * h at every index of the 2m-periodic lattice."""
    n = 2 * grid.cells_per_axis
    j = np.arange(n)
    offsets = np.where(j <= n // 2, j, j - n).astype(float)
    grids = np.meshgrid(*[offsets] * grid.dim, indexing="ij")
    return grid.h * np.sqrt(sum(o**2 for o in grids))


def _full_even(quarter):
    """The even 2m-periodic layout of a kernel given on offsets 0..m."""
    m = quarter.shape[0] - 1
    folded = np.abs((np.arange(2 * m) + m) % (2 * m) - m)
    return quarter[np.ix_(*[folded] * quarter.ndim)]


def _corner(full, size):
    return full[(slice(0, size),) * full.ndim]


def _assert_within(actual, reference):
    assert actual.shape == reference.shape
    assert np.abs(actual - reference).max() <= TRANSFORM_RTOL * np.abs(reference).max()


def test_quarter_distances_are_the_lattice_corner():
    for dim, depth in TRANSFORM_GRIDS:
        g = make_grid(dim, depth, 2.0)
        full = _full_distances(g)
        quarter = operators._quarter_distances(g)
        assert np.array_equal(quarter, _corner(full, g.cells_per_axis + 1))
        assert np.array_equal(_full_even(quarter), full)


def _mirrored(quarter_spectrum):
    """A spectrum given at frequencies 0..m in the rfftn layout: mirrored as min(k, 2m - k) on every axis but the last."""
    n = 2 * (quarter_spectrum.shape[0] - 1)
    k = np.arange(n)
    spectrum = quarter_spectrum
    for axis in range(quarter_spectrum.ndim - 1):
        spectrum = spectrum.take(np.minimum(k, n - k), axis=axis)
    return spectrum


def test_kernel_spectrum_matches_full_lattice_rfftn():
    fft = pytest.importorskip("scipy.fft")  # the independent transform reference
    alpha = 0.7
    for dim, depth in TRANSFORM_GRIDS:
        g = make_grid(dim, depth, 2.0)
        m = g.cells_per_axis
        dist = _full_distances(g)
        safe = np.where(dist > 0, dist, 1.0)
        riesz_kernel = np.where(
            dist > 0, g.cell_volume * safe ** (alpha - dim), operators._self_cell_weight(g, alpha)
        )
        kernels = [_full_even(RNG.random((m + 1,) * dim)), riesz_kernel]
        kernels += [(dist < r).astype(float) for r in (0.5 * g.h, 1.5 * g.h, 0.37 * m * g.h, 0.9 * m * g.h)]
        for full in kernels:
            spectrum = operators._kernel_spectrum(_corner(full, m + 1))
            assert spectrum.shape == (m + 1,) * dim
            _assert_within(_mirrored(spectrum), fft.rfftn(full))


# _kernel_spectrum builds the DCT-I from numpy's rfft of each line's even
# extension, as pocketfft's own DCT-I does; it must match scipy's bit for bit
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernel_spectrum_is_scipy_dct1_bit_for_bit(dim):
    fft = pytest.importorskip("scipy.fft")
    rng = np.random.default_rng(dim)
    for m in (2, 3, 4, 5, 7, 8, 16, 31, 32, 64):
        quarter = rng.random((m + 1,) * dim) * 10.0 ** rng.uniform(-8, 8, (m + 1,) * dim)
        before = quarter.copy()
        spectrum = operators._kernel_spectrum(quarter)
        assert spectrum.tobytes() == fft.dctn(quarter, type=1).tobytes()
        assert np.array_equal(quarter, before)


# traced peak of one kernel spectrum, per quarter cell: the 8-byte result plus
# one slab of even extensions and their rffts.  Measured 10.0 (2D, m = 512) and
# 9.9 (3D, m = 64); a 1D quarter is one line, which no slab can cut: 40.5 (m = 4096)
KERNEL_SPECTRUM_PEAK_BYTES_PER_CELL = {1: 42, 2: 11, 3: 11}


@pytest.mark.parametrize("dim, m", [(1, 4096), (2, 512), (3, 64)])
def test_kernel_spectrum_peak_memory(dim, m):
    quarter = np.random.default_rng(dim).random((m + 1,) * dim)
    operators._kernel_spectrum(quarter)  # numpy's first-call allocations are not the transform's
    tracemalloc.start()
    try:
        operators._kernel_spectrum(quarter)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= KERNEL_SPECTRUM_PEAK_BYTES_PER_CELL[dim] * quarter.size


def test_pruned_convolution_matches_full_lattice():
    fft = pytest.importorskip("scipy.fft")
    for dim, depth in TRANSFORM_GRIDS:
        g = make_grid(dim, depth, 2.0)
        m = g.cells_per_axis
        n = 2 * m
        spectrum = operators._kernel_spectrum(RNG.random((m + 1,) * dim))
        for c in (0.0, -1.0):
            values = sample(Sampler.bump((c,) * dim, 0.8), g).values
            reference_hat = fft.rfftn(values, (n,) * dim)
            rows = operators._row_spectrum(values)
            for cols in operators._column_blocks(m, dim):
                _assert_within(operators._forward_block(rows, cols, n), reference_hat[..., cols])
            reference = _corner(fft.irfftn(reference_hat * _mirrored(spectrum), (n,) * dim), m)
            assert reference.min() > 0  # a positive kernel: clipping at zero moves nothing
            _assert_within(operators._convolve(values, spectrum, n), reference)


def test_riesz_normalization_formula():
    assert riesz_normalization(2, 1.0) == pytest.approx(
        math.pi * 2 * math.gamma(0.5) / math.gamma(0.5)
    )
    f = GridFunction(make_grid(2, 3, 2.0), np.random.default_rng(4).random((8, 8)))
    expected = operators._riesz_sums(f, 1.0) / riesz_normalization(2, 1.0)
    assert np.array_equal(riesz(f, 1.0).values, expected)


def _fresh_riesz(f, alpha):
    """riesz from a kernel spectrum built anew, bypassing the cache."""
    g = f.grid
    dist = operators._quarter_distances(g)
    dist.flat[0] = 1.0
    kernel = g.cell_volume * dist ** (alpha - g.dim)
    kernel.flat[0] = operators._self_cell_weight(g, alpha)
    sums = operators._convolve(f.values, operators._kernel_spectrum(kernel), 2 * g.cells_per_axis)
    return sums / riesz_normalization(g.dim, alpha)


def test_riesz_spectrum_cache_follows_grid_and_alpha():
    # the one cached spectrum must never serve a grid or an alpha it was not built for
    a, b = make_grid(2, 4, 2.0), make_grid(2, 4, 3.0)
    fa, fb = GridFunction(a, RNG.random(a.shape)), GridFunction(b, RNG.random(b.shape))
    before = fa.values.copy()
    for f, alpha in [(fa, 1.0), (fb, 1.0), (fa, 1.0), (fa, 0.6), (fb, 0.6), (fa, 1.0)]:
        assert np.array_equal(riesz(f, alpha).values, _fresh_riesz(f, alpha))
    assert np.array_equal(fa.values, before)
    spectrum = operators._riesz_spectrum(a, 1.0)
    assert spectrum.shape == (a.cells_per_axis + 1,) * 2  # the quarter, not the mirrored layout
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0, 0] = 0.0


@pytest.mark.parametrize("dim, depth", [(2, 9), (3, 6)])
def test_riesz_never_holds_the_padded_spectrum(dim, depth):
    g = make_grid(dim, depth, 2.0)
    f = sample(Sampler.bump((0.1,) * dim, 0.6), g)
    riesz(f, 0.8)  # builds and caches the kernel spectrum
    m = g.cells_per_axis
    padded_spectrum_bytes = 16 * (2 * m) ** (dim - 1) * (m + 1)
    tracemalloc.start()
    try:
        riesz(f, 0.8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < padded_spectrum_bytes


# sha256 of hedberg_ratio_field values, recorded before the Riesz kernel
# spectrum was cached and multiplied in place
HEDBERG_FIELD_SHA256 = {
    1: "e300e16f62faf553678b7a3729a54f8f55456601424a209b52413e8195abd027",
    2: "d531e88e2cd240f79dbf7418c6bda1fa3f253fe92f6efbbf6f2703bb10784f4c",
    3: "a0da7b6012173e4c1959b8808a58a56b002bfc0baaa25a3bb3458c89e8b6ebcb",
}


@pytest.mark.parametrize("dim, depth", [(1, 6), (2, 5), (3, 3)])
def test_hedberg_field_bits_pinned(dim, depth):
    f = sample(Sampler.bump((0.1,) * dim, 0.6), make_grid(dim, depth, 2.0))
    before = f.values.copy()
    field = hedberg_ratio_field(f, 0.8, 0.2, LorentzExponents(1.2, 1.5, dim))
    assert hashlib.sha256(field.values.tobytes()).hexdigest() == HEDBERG_FIELD_SHA256[dim]
    assert np.array_equal(f.values, before)


def test_riesz_linearity():
    g = make_grid(2, 4, 2.0)
    f = GridFunction(g, RNG.random(g.shape))
    a = riesz(f, 0.8)
    b = riesz(f.scale(3.0), 0.8)
    assert np.allclose(b.values, 3.0 * a.values, rtol=1e-12)


def test_riesz_far_cell_against_quadrature_oracle():
    # source cell integrated with 5 quadrature points per axis
    g = make_grid(2, 4, 2.0)
    alpha = 1.0
    vals = np.zeros(g.shape)
    src = (12, 12)
    vals[src] = 1.0
    f = GridFunction(g, vals)
    pot = riesz(f, alpha)
    ca = riesz_normalization(2, alpha)
    centers = g.centers().reshape(*g.shape, 2)
    y0 = centers[src]
    offs = (np.arange(5) - 2) / 5 * g.h
    qx, qy = np.meshgrid(offs, offs, indexing="ij")
    quad_pts = y0 + np.stack([qx.ravel(), qy.ravel()], axis=1)
    for probe in ((2, 2), (0, 15), (5, 9)):
        x = centers[probe]
        if np.linalg.norm(x - y0) < 4 * g.h:
            continue
        d = np.sqrt(((quad_pts - x) ** 2).sum(axis=1))
        oracle = float(np.mean(d ** (alpha - 2))) * g.cell_volume / ca
        assert pot.values[probe] == pytest.approx(oracle, rel=1e-3)


def test_riesz_ball_closed_form_at_center():
    g = make_grid(2, 6, 2.0)
    f = sample(Sampler.ball_indicator((0.0, 0.0), 0.5), g)
    pot = riesz(f, 1.0)
    expected = unit_sphere_area(2) * 0.5 / 1.0 / riesz_normalization(2, 1.0)
    m = g.cells_per_axis // 2
    assert pot.values[m, m] == pytest.approx(expected, rel=0.05)


def test_riesz_nonnegative_and_monotone():
    g = make_grid(2, 4, 2.0)
    a = RNG.random(g.shape)
    f = GridFunction(g, a)
    gfun = GridFunction(g, a + RNG.random(g.shape))
    assert np.all(riesz(f, 1.2).values >= 0)
    pf = _point_field(f, lambda h, x: riesz_unnormalized_at(h, x, 1.2))
    pg = _point_field(gfun, lambda h, x: riesz_unnormalized_at(h, x, 1.2))
    assert np.all(pf <= pg)


def test_riesz_field_matches_point_evaluator():
    alpha = 0.7
    for dim, depth, c in FIELD_CASES:
        g = make_grid(dim, depth, 2.0)
        f = sample(Sampler.bump((c,) * dim, 0.8), g)
        field = riesz(f, alpha).values
        point = _point_field(f, lambda h, x: riesz_unnormalized_at(h, x, alpha))
        point /= riesz_normalization(dim, alpha)
        assert np.all(np.abs(field - point) <= FIELD_RTOL * field.max()), (dim, depth, c)


@pytest.mark.parametrize("dim,depth", [(2, 4), (2, 5), (2, 6), (3, 3)])
def test_merging_absorbs_fft_noise(dim, depth):
    # FFT leaves ~1e-16 differences between cells whose exact sums are
    # equal; merging at MERGE_RTOL must give the point evaluators' count
    g = make_grid(dim, depth, 2.0)
    f = sample(Sampler.ball_indicator((0.0,) * dim, 0.5), g)

    def m(values):
        return distribution(GridFunction(g, values), dim).thresholds.size

    mf = maximal(f, MaximalParams(0.0)).values
    assert m(mf) == m(_point_field(f, lambda h, x: maximal_at(h, x, 0.0)))
    pot = riesz(f, 1.0).values
    assert m(pot) == m(_point_field(f, lambda h, x: riesz_unnormalized_at(h, x, 1.0)))


def test_hedberg_field_of_zero_function_is_zero():
    g = make_grid(2, 4, 2.0)
    field = hedberg_ratio_field(GridFunction.zeros(g), 1.0, 0.0, LorentzExponents(1.5, 1.5, 2.0))
    assert field == GridFunction.zeros(g)


def test_hedberg_exponent_errors_by_name():
    g = make_grid(2, 4, 2.0)
    f = sample(Sampler.ball_indicator((0.0, 0.0), 0.5), g)
    with pytest.raises(OperatorError, match="^mu must be in"):
        hedberg_ratio_field(f, 1.0, 1.5, LorentzExponents(1.5, 1.5, 2.0))
    with pytest.raises(OperatorError, match="^alpha must be in"):
        hedberg_ratio_field(f, 2.5, 0.0, LorentzExponents(1.5, 1.5, 2.0))
    with pytest.raises(OperatorError, match="^alpha must be in"):
        riesz(f, 2.0)  # riesz shares hedberg's check
    with pytest.raises(OperatorError, match="^p must equal"):
        hedberg_ratio_field(f, 1.0, 0.0, LorentzExponents(2.5, 1.5, 2.0))


# every cell holds 1e306, so the total mass and the transforms of f overflow:
# maximal leaked numpy's overflow warnings, then GridFunction refused its
# values without naming f
def _past_double_precision():
    g = make_grid(2, 4, 2.0)
    return GridFunction(g, np.full(g.shape, 1e306))


def test_maximal_refuses_an_f_past_double_precision_by_name():
    f = _past_double_precision()
    with pytest.raises(OperatorError, match=r"^f too large: the maximal averages at mu=0\.5 are not finite"):
        maximal(f, MaximalParams(0.5))
    with pytest.raises(OperatorError, match="f too large"):
        hedberg_ratio_field(f, 0.8, 0.2, LorentzExponents(1.2, 1.5, 2.0))


def test_hedberg_pointwise_stable_across_depths():
    vals = []
    for depth in (5, 6, 7):
        g = make_grid(2, depth, 2.0)
        f = sample(Sampler.ball_indicator((0.0, 0.0), 0.5), g)
        field = hedberg_ratio_field(f, 1.0, 0.0, LorentzExponents(1.5, 1.5, 2.0))
        m = g.cells_per_axis // 2
        vals.append(field.values[m - 1, m - 1])  # the cell that (0, 0) snaps to
    assert max(vals) <= 1.2 * min(vals)


# The field against a ratio built here from the point references, the norm
# and the Hedberg powers written out.  The Riesz and maximal fields match the
# point references within FIELD_RTOL of their maxima, and on these bumps every
# cell's Riesz sum and maximal value is at least 1e-2 of its maximum, so the
# ratio's relative error stays below (1 + maximal power) * FIELD_RTOL / 1e-2
# < 1e-9.  Measured: below 1e-15.  mu > 0, so a power that drops mu moves the
# ratio by 8% or more.
HEDBERG_RTOL = 1e-9


@pytest.mark.parametrize("dim, depth, alpha, mu, p, delta", [
    (1, 6, 0.4, 0.2, 0.9, 0.5), (2, 5, 0.8, 0.3, 1.2, 1.5), (3, 3, 0.8, 0.3, 1.2, 2.5)])
def test_hedberg_field_matches_point_references(dim, depth, alpha, mu, p, delta):
    q = 1.5
    g = make_grid(dim, depth, 2.0)
    f = sample(Sampler.bump((0.1,) * dim, 0.6), g)
    field = hedberg_ratio_field(f, alpha, mu, LorentzExponents(p, q, delta)).values.ravel()
    norm = lorentz_norm(f, LorentzExponents(p, q * (delta - p * alpha) / (delta - mu * p), delta))
    maximal_power = (delta - p * alpha) / (delta - mu * p)
    norm_power = p * (alpha - mu) / (delta - mu * p)
    centers = g.centers()
    for cell in np.random.default_rng(31).choice(g.n_cells, 8, replace=False):
        x = centers[cell]
        ratio = riesz_unnormalized_at(f, x, alpha) / (
            maximal_at(f, x, mu) ** maximal_power * norm**norm_power)
        assert field[cell] == pytest.approx(ratio, rel=HEDBERG_RTOL, abs=0.0), (dim, cell)


def test_maximal_weak_type_endpoint_stability():
    # p = delta/dim endpoint of the maximal bound in the weak norm
    delta, mu = 2.0, 0.5
    p = delta / 2
    ratios = []
    for depth in (4, 5, 6):
        g = make_grid(2, depth, 2.0)
        f = sample(Sampler.ball_indicator((0.0, 0.0), 0.5), g)
        mf = maximal(f, MaximalParams(mu))
        weak = lorentz_norm(mf, LorentzExponents(p, math.inf, delta - mu * p))
        ratios.append(weak / choquet_p_norm(f, p, delta))
    for r1, r2 in zip(ratios, ratios[1:]):
        assert r2 < 1.2 * r1


def test_l1_content_bound():
    g = make_grid(2, 4, 2.0)
    rng = np.random.default_rng(5)
    for delta in (0.8, 1.5, 2.0):
        for _ in range(30):
            mask = rng.random(g.shape) < rng.random()
            ratio = l1_content_ratio(GridFunction(g, mask.astype(float)), delta)
            assert ratio <= L1_CONTENT_BOUND + 1e-12
    assert l1_content_ratio(GridFunction.zeros(g), 1.5) == 0.0
    f = sample(Sampler.radial_power(-0.7, center=(0.0, 0.0)), g)
    assert 0 < l1_content_ratio(f, 1.5) <= 1 + 1e-12


def test_l1_content_ratio_refuses_delta_before_the_power():
    f = sample(Sampler.ball_indicator((0.0, 0.0), 0.5), make_grid(2, 3, 2.0))
    for delta in (-1.0, 0.0, 2.5):
        with pytest.raises(ContentError, match=re.escape(f"delta must be in (0, 2], got {delta}")):
            l1_content_ratio(f, delta)


# at delta/dim = 1e-20 f^(delta/dim) rounds every value to 1.0, and this
# constant field, whose ratio is exactly 1, read 7,562,500
def test_l1_content_ratio_refuses_delta_below_its_floor():
    g = make_grid(2, 2, 2.75)
    f = GridFunction(g, np.full(g.shape, 1e6))
    with pytest.raises(ContentError, match=re.escape("delta must be at least 0.001 dim = 0.002 for the "
                                                      "L1-content ratio, got 2e-20")):
        l1_content_ratio(f, 2e-20)
    assert abs(l1_content_ratio(f, L1_CONTENT_DELTA_FLOOR * 2) - 1.0) <= 1e-12


def test_maximal_at_matches_field():
    g = make_grid(2, 4, 2.0)
    f = sample(Sampler.bump((0.0, 0.0), 0.8), g)
    mf = maximal(f, MaximalParams(0.3))
    assert maximal_at(f, (g.h / 2, g.h / 2), 0.3) == pytest.approx(
        mf.values[8, 8], rel=1e-12
    )


# a point with the wrong number of coordinates used to broadcast against the
# centers: on a 2D grid (0.3,) was evaluated at (0.3, 0.3)
@pytest.mark.parametrize("x", [(0.3,), (0.3, 0.3, 0.3)])
def test_point_evaluators_refuse_a_point_of_the_wrong_dimension(x):
    f = sample(Sampler.bump((0.0, 0.0), 0.8), make_grid(2, 4, 2.0))
    message = f"point has {len(x)} coordinates, the grid has 2"
    with pytest.raises(GridError, match=message):
        maximal_at(f, x, 0.5)
    with pytest.raises(GridError, match=message):
        riesz_unnormalized_at(f, x, 1.0)


# the point evaluator had no alpha check: alpha = 0 divided by zero, alpha = -1
# gave a negative potential of a nonnegative f, alpha >= dim a value riesz refuses
@pytest.mark.parametrize("alpha", [0.0, -1.0, 2.0])
def test_riesz_unnormalized_at_refuses_alpha_outside_its_window(alpha):
    f = sample(Sampler.bump((0.0, 0.0), 0.8), make_grid(2, 4, 2.0))
    with pytest.raises(OperatorError, match=r"^alpha must be in \(0, dim\) = \(0, 2\)"):
        riesz_unnormalized_at(f, (0.0, 0.0), alpha)


def test_point_evaluators_snap_a_tie_to_the_first_cell_in_c_order():
    g = make_grid(2, 4, 2.0)  # the origin is a corner of cells (7, 7), (7, 8), (8, 7), (8, 8)
    f = GridFunction(g, np.random.default_rng(5).random(g.shape))
    first = g.centers()[7 * g.cells_per_axis + 7]
    assert maximal_at(f, (0.0, 0.0), 0.5) == maximal_at(f, first, 0.5)
    assert riesz_unnormalized_at(f, (0.0, 0.0), 1.0) == riesz_unnormalized_at(f, first, 1.0)
    assert riesz_unnormalized_at(f, (0.0, 0.0), 1.0) != riesz_unnormalized_at(f, -first, 1.0)


def test_riesz_1d_interval_closed_form():
    # I_alpha(1_[-R,R])(0) = (1/c_alpha) * 2 R^alpha / alpha in one dimension
    g = make_grid(1, 8, 2.0)
    alpha = 0.6
    f = sample(Sampler.ball_indicator((0.0,), 0.5), g)
    pot = riesz(f, alpha)
    expected = 2 * 0.5**alpha / alpha / riesz_normalization(1, alpha)
    assert pot.values[g.cells_per_axis // 2] == pytest.approx(expected, rel=0.02)


def test_maximal_3d_smoke():
    g = make_grid(3, 3, 2.0)
    f = sample(Sampler.ball_indicator((0.0, 0.0, 0.0), 0.6), g)
    mf = maximal(f, MaximalParams(0.5))
    assert np.all(np.isfinite(mf.values))
    m = g.cells_per_axis // 2
    assert mf.values[m, m, m] == pytest.approx(0.6**0.5, rel=0.25)


def test_riesz_3d_ball_closed_form():
    g = make_grid(3, 4, 2.0)
    alpha = 1.5
    f = sample(Sampler.ball_indicator((0.0, 0.0, 0.0), 0.5), g)
    pot = riesz(f, alpha)
    expected = unit_sphere_area(3) * 0.5**alpha / alpha / riesz_normalization(3, alpha)
    m = g.cells_per_axis // 2
    assert pot.values[m, m, m] == pytest.approx(expected, rel=0.1)
