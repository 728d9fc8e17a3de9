"""Property tests: the FFT operator fields against the point evaluators at every cell,
and bit for bit against the unblocked transform pipeline."""

import math
from unittest import mock

import numpy as np
import pytest
from scipy import fft

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capnorm import operators  # noqa: E402
from capnorm.grid import GridFunction, Sampler, make_grid, sample  # noqa: E402
from capnorm.operators import (  # noqa: E402
    MaximalParams,
    default_radius_sweep,
    maximal,
    maximal_at,
    riesz,
    riesz_normalization,
    riesz_unnormalized_at,
    unit_ball_volume,
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


# The unblocked pipeline that the column blocks replaced, kept as the
# bit-for-bit reference: the whole padded spectrum of f, the kernel's DCT-I
# mirrored out to it by `take`, one product and the pruned inverse.
def _reference_forward(values):
    n = 2 * values.shape[-1]
    out = fft.rfft(values, n=n, axis=-1)
    for axis in range(values.ndim - 1):
        out = fft.fft(out, n=n, axis=axis)
    return out


def _reference_sums(f_hat, quarter):
    """Clipped sums of f against the kernel given by its (m+1)^dim quarter."""
    m = f_hat.shape[-1] - 1
    k = np.arange(2 * m)
    spectrum = fft.dctn(quarter, type=1)
    for axis in range(quarter.ndim - 1):
        spectrum = spectrum.take(np.minimum(k, 2 * m - k), axis=axis)
    out = f_hat * spectrum
    for axis in range(out.ndim - 1):
        out = fft.ifft(out, axis=axis, overwrite_x=True)[(slice(None),) * axis + (slice(0, m),)]
    return np.maximum(fft.irfft(out, n=2 * m, axis=-1)[..., :m], 0.0)


def _reference_riesz(f, alpha):
    g = f.grid
    dist = operators._quarter_distances(g)
    dist.flat[0] = 1.0
    kernel = g.cell_volume * dist ** (alpha - g.dim)
    kernel.flat[0] = operators._self_cell_weight(g, alpha)
    return _reference_sums(_reference_forward(f.values), kernel) / riesz_normalization(g.dim, alpha)


def _reference_maximal(f, mu):
    g = f.grid
    vol_unit = unit_ball_volume(g.dim)
    max_offset = (g.cells_per_axis - 1) * g.h * math.sqrt(g.dim)
    f_hat = _reference_forward(f.values)
    dist = operators._quarter_distances(g)
    out = np.zeros(g.shape)
    for r in default_radius_sweep(g):
        scale = r**mu * g.cell_volume / (vol_unit * r**g.dim)
        if r > max_offset:
            np.maximum(out, scale * float(f.values.sum()), out=out)
        else:
            np.maximum(out, scale * _reference_sums(f_hat, (dist < r).astype(np.float64)), out=out)
    return out


@st.composite
def blocked_cases(draw):
    """A 1D-3D grid function, alpha, mu, and a BLOCK_BYTES giving a drawn column-block width.

    The width is any of 1..m + 1 columns, plus a remainder below one
    column; m + 1 is odd, so every even width leaves a narrower last block.
    """
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, (9, 5, 3)[dim - 1]))
    grid = make_grid(dim, depth, draw(st.sampled_from([0.5, 2.0, 2.75])))
    m = grid.cells_per_axis
    column_bytes = 16 * (2 * m) ** (dim - 1)
    block_bytes = draw(st.integers(1, m + 1)) * column_bytes + draw(st.integers(0, column_bytes - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.floats(1e-6, 1e6)) * rng.random(grid.shape) * (rng.random(grid.shape) < draw(st.floats(0.0, 1.0)))
    alpha = draw(st.floats(0.01, 0.99)) * dim
    mu = draw(st.floats(0.0, 1.0, exclude_max=True)) * dim
    return GridFunction(grid, values), alpha, mu, block_bytes


@given(blocked_cases())
@settings(max_examples=40, deadline=None)
@example((sample(Sampler.bump((-1.0,) * 2, 0.8), make_grid(2, 5, 2.0)), 0.7, 0.25, 1))  # width 1
@example((sample(Sampler.bump((0.1,) * 3, 0.6), make_grid(3, 3, 2.0)), 0.8, 0.2, 1))
@example((sample(Sampler.bump((0.1,) * 2, 0.6), make_grid(2, 5, 2.0)), 1.3, 0.0, 16 * 64 * 7))  # 33 = 4 * 7 + 5
@example((sample(Sampler.bump((0.0,), 0.8), make_grid(1, 8, 2.0)), 0.5, 0.5, 16 * 100))  # 257 = 2 * 100 + 57
def test_blocked_fields_are_bit_identical_to_the_unblocked_pipeline(case):
    f, alpha, mu, block_bytes = case
    with mock.patch.object(operators, "BLOCK_BYTES", block_bytes):
        potential = riesz(f, alpha).values
        maximal_field = maximal(f, MaximalParams(mu)).values
    assert potential.tobytes() == _reference_riesz(f, alpha).tobytes()
    assert maximal_field.tobytes() == _reference_maximal(f, mu).tobytes()
