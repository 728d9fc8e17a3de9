"""Fractional maximal operator, Riesz potential, and pointwise diagnostics.

Both operators act on grid functions extended by zero outside the grid.
Ball membership is decided by cell centers (consistent with midpoint
sampling) while ball volumes are the exact continuum ones, which keeps
averages of constants near the constant.

Sums over cells run as one FFT convolution on a 2m-periodic lattice (m
cells per axis), with f zero-padded to 2m points per axis and the m^dim
output cells read from the corner of the circular convolution.  Two
cells are one of 2m - 1 offsets apart per axis, so any period of at
least 2m - 1 keeps wrapped terms off the output cells; 2m is the
smallest such period that is a power of two, a fast FFT length.

Both kernels depend on |offset| only, so they are even along every axis
of the lattice and fixed by their (m+1)^dim quarter of offsets 0..m.
The DFT of such a kernel is real: at frequencies 0..m it is the DCT-I
of the quarter, and frequency 2m - k repeats frequency k.  The kernel
spectrum is that DCT mirrored into the rfftn layout.  The transforms of
f skip what is known to be zero or unread: the forward one transforms
only the lines that hold nonzeros of the padded f, and the inverse one
keeps the first m lines of each axis before transforming the next.
Against full-lattice transforms of the same spectrum this changes no
bits in 1D and 2D; the DCT spectrum changes rounding by about 1e-16 of
the largest value.

The padded lattice holds 2^dim times the grid's cells; a grid whose
padded transform would exceed ``grid.DEFAULT_CELL_CAP`` cells is refused
with GridError before anything is allocated.  FFT is deterministic, so
reruns are byte-identical.  Its rounding leaves noise near 1e-16 of the
largest value, so a sum that is exactly zero can come out slightly
negative and is clipped to zero.  The point evaluators `maximal_at` and
`riesz_unnormalized_at` sum the same cells directly at one point; they
are the exact reference for the fields.

The maximal supremum is taken over one fixed geometric radius sweep,
ratio RADIUS_SWEEP_FACTOR, from one cell side up to twice the grid
diameter; the averaged quantity varies polynomially in the radius, so
the sweep captures the continuum supremum within a factor tied to the
sweep ratio.  f is transformed once per call and its spectrum reused
for every radius of the sweep.  The Riesz potential carries the
classical normalization 1/c_alpha of `riesz_normalization`.  Its kernel
spectrum is built once per (grid, alpha) and kept for the next call, so
a sweep of sources on one grid pays for it once; one spectrum is held at
a time, at most about 64 MB (2^23 float64 values) at the cell cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .choquet import LorentzExponents, choquet_integral, lorentz_norm
from .grid import DEFAULT_CELL_CAP, DyadicGrid, GridError, GridFunction, as_point, distance

RADIUS_SWEEP_FACTOR = 1.25

# the plain integral is at most this times the content integral of f^(delta/dim)
L1_CONTENT_BOUND = 1.0


class OperatorError(ValueError):
    """Invalid operator parameters."""


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def unit_sphere_area(dim: int) -> float:
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def riesz_normalization(dim: int, alpha: float) -> float:
    """c_alpha = pi^(dim/2) 2^alpha Gamma(alpha/2) / Gamma((dim-alpha)/2)."""
    return (
        math.pi ** (dim / 2.0)
        * 2.0**alpha
        * math.gamma(alpha / 2.0)
        / math.gamma((dim - alpha) / 2.0)
    )


def default_radius_sweep(grid: DyadicGrid) -> np.ndarray:
    """Geometric radii h * RADIUS_SWEEP_FACTOR^k from h up to twice the grid diameter."""
    r_max = 2.0 * grid.diameter
    n = int(math.ceil(math.log(r_max / grid.h) / math.log(RADIUS_SWEEP_FACTOR))) + 1
    return grid.h * RADIUS_SWEEP_FACTOR ** np.arange(n)


@dataclass(frozen=True)
class MaximalParams:
    mu: float

    def resolve_radii(self, grid: DyadicGrid) -> np.ndarray:
        """The radius sweep of `maximal` on this grid: `default_radius_sweep`."""
        return default_radius_sweep(grid)

    def validate(self, dim: int):
        if not (0 <= self.mu < dim):
            raise OperatorError(f"mu must be in [0, dim), got {self.mu}")


def _check_alpha(alpha: float, dim: int):
    if not (0 < alpha < dim):
        raise OperatorError(f"alpha must be in (0, dim), got {alpha}")


def _padded_shape(grid: DyadicGrid) -> tuple[int, ...]:
    """Shape (2m,)^dim of the periodic lattice; refuses grids past the cell cap."""
    cells = 2**grid.dim * grid.n_cells
    if cells > DEFAULT_CELL_CAP:
        raise GridError(
            f"convolution on a {grid.dim}D depth-{grid.depth} grid would transform "
            f"{cells} padded cells, exceeding the cap {DEFAULT_CELL_CAP}"
        )
    return (2 * grid.cells_per_axis,) * grid.dim


def _quarter_distances(grid: DyadicGrid) -> np.ndarray:
    """|offset| * h for offsets 0..m per axis: the (m+1)^dim quarter of the 2m-periodic lattice.

    Offset m is read by no output cell.
    """
    sq = np.arange(grid.cells_per_axis + 1, dtype=float) ** 2
    axes = range(grid.dim)
    squares = sum(sq.reshape([-1 if a == axis else 1 for a in axes]) for axis in axes)
    return grid.h * np.sqrt(squares)


def _kernel_spectrum(quarter: np.ndarray) -> np.ndarray:
    """rfftn of the even 2m-periodic kernel given by its (m+1)^dim quarter.

    The DCT-I of the quarter holds frequencies 0..m; frequency k and
    2m - k share a value, so every axis but the last, which rfftn keeps
    at 0..m, is mirrored out to 2m.
    """
    spectrum = fft.dctn(quarter, type=1)
    n = 2 * (quarter.shape[0] - 1)
    k = np.arange(n)
    mirror = np.minimum(k, n - k)
    for axis in range(quarter.ndim - 1):
        spectrum = spectrum.take(mirror, axis=axis)
    return spectrum


def _forward(values: np.ndarray, n: int) -> np.ndarray:
    """rfftn of values zero-padded to n per axis, transforming only lines with nonzeros."""
    out = fft.rfft(values, n=n, axis=-1)
    for axis in range(values.ndim - 1):
        out = fft.fft(out, n=n, axis=axis)
    return out


def _convolve(product: np.ndarray) -> np.ndarray:
    """Sums of f against an even kernel on the 2m-periodic lattice, at the m^dim grid cells.

    product is `_forward` of f times `_kernel_spectrum` of the kernel,
    formed by the caller, and is overwritten; only the first m lines of
    each axis are inverted further.
    """
    m = product.shape[-1] - 1
    out = product
    for axis in range(out.ndim - 1):
        out = fft.ifft(out, axis=axis, overwrite_x=True)[(slice(None),) * axis + (slice(0, m),)]
    return fft.irfft(out, n=2 * m, axis=-1)[..., :m]


def _self_cell_weight(grid: DyadicGrid, alpha: float) -> float:
    """Exact radial integral of |y|^(alpha - dim) over the ball of one cell's volume."""
    rho = (grid.cell_volume / unit_ball_volume(grid.dim)) ** (1.0 / grid.dim)
    return unit_sphere_area(grid.dim) * rho**alpha / alpha


def maximal(f: GridFunction, params: MaximalParams) -> GridFunction:
    """Fractional maximal function: sup over radii of r^mu times the ball average.

    At each cell center x the average over B(x, r) sums the values of
    cells whose center lies in the open ball, times the cell volume,
    divided by the exact continuum ball volume.  f is transformed once and
    its spectrum reused for every radius, so each radius below the largest
    cell offset costs one DCT-I of its ball mask on the (m+1)^dim quarter
    and one pruned inverse; larger radii see every cell and use the total
    mass.  Raises GridError when the (2m)^dim padded lattice exceeds the
    leaf-cell cap.
    """
    grid = f.grid
    params.validate(grid.dim)
    radii = params.resolve_radii(grid)
    n = _padded_shape(grid)[0]
    m = grid.cells_per_axis
    vol_unit = unit_ball_volume(grid.dim)
    total_mass = float(f.values.sum())
    max_offset = (m - 1) * grid.h * math.sqrt(grid.dim)
    f_hat = _forward(f.values, n)
    dist = _quarter_distances(grid)

    out = np.zeros(grid.shape)
    for r in radii:
        scale = r**params.mu * grid.cell_volume / (vol_unit * r**grid.dim)
        if r > max_offset:
            # the ball sees every cell from every center
            np.maximum(out, scale * total_mass, out=out)
            continue
        # f_hat serves every radius, so each product is a new array
        sums = _convolve(f_hat * _kernel_spectrum((dist < r).astype(np.float64)))
        np.maximum(out, scale * np.maximum(sums, 0.0), out=out)
    return GridFunction(grid, out)


@functools.lru_cache(maxsize=1)
def _riesz_spectrum(grid: DyadicGrid, alpha: float) -> np.ndarray:
    """Read-only `_kernel_spectrum` of the Riesz kernel on grid's 2m-periodic lattice.

    The kernel is built from grid.dim, grid.depth and grid.root_side
    (through h) and alpha, all of them in the key; the grid's origin is
    in it too and moves no value.  One spectrum is held at a time.
    """
    dist = _quarter_distances(grid)
    dist.flat[0] = 1.0  # self cell: placeholder, overwritten below
    kernel = grid.cell_volume * dist ** (alpha - grid.dim)
    kernel.flat[0] = _self_cell_weight(grid, alpha)
    spectrum = _kernel_spectrum(kernel)
    spectrum.setflags(write=False)
    return spectrum


def _riesz_sums(f: GridFunction, alpha: float) -> np.ndarray:
    """int f(y) |x - y|^(alpha - dim) dy at every cell center, clipped at zero."""
    grid = f.grid
    n = _padded_shape(grid)[0]
    spectrum = _riesz_spectrum(grid, float(alpha))
    product = _forward(f.values, n)
    product *= spectrum  # the transform is this call's own array
    return np.maximum(_convolve(product), 0.0)


def riesz(f: GridFunction, alpha: float) -> GridFunction:
    """Riesz potential by periodic FFT convolution with the cell-center kernel.

    Distinct cells contribute |x - y|^(alpha - dim) * cell_volume at the
    center distance; the self cell uses the exact radial integral over
    the ball of equal volume (sphere_area * rho^alpha / alpha with
    vol(ball(rho)) = cell_volume), which is error O(h^(alpha+1)) and has
    no tunable constant.  The kernel is built on the (m+1)^dim quarter of
    offsets 0..m and its spectrum is the quarter's DCT-I, once per
    (grid, alpha): a call on the grid and alpha of the one before costs
    only the pruned forward and inverse transforms of f.  The one cached
    spectrum takes at most about 64 MB at the cell cap.  Raises GridError
    when the (2m)^dim padded lattice exceeds the leaf-cell cap.
    """
    _check_alpha(alpha, f.grid.dim)
    return GridFunction(f.grid, _riesz_sums(f, alpha) / riesz_normalization(f.grid.dim, alpha))


def _snap(grid: DyadicGrid, x) -> tuple[int, np.ndarray]:
    """The cell nearest x (the first in C order on a tie) and the distances from its center to all."""
    x = as_point(x)
    if len(x) != grid.dim:
        raise GridError(f"point has {len(x)} coordinates, the grid has {grid.dim}")
    centers = grid.centers()
    cell = int(np.argmin(np.sum((centers - np.asarray(x)) ** 2, axis=1)))
    return cell, distance(centers, centers[cell])


def riesz_unnormalized_at(f: GridFunction, x, alpha: float) -> float:
    """int f(y) |x - y|^(alpha - dim) dy at one point (center-snapped)."""
    grid = f.grid
    cell, d = _snap(grid, x)
    d[cell] = 1.0
    weights = grid.cell_volume * d ** (alpha - grid.dim)
    weights[cell] = _self_cell_weight(grid, alpha)
    return float(np.dot(weights, f.values.ravel()))


def maximal_at(f: GridFunction, x, mu: float) -> float:
    """Fractional maximal function at one point (center-snapped), over the radii of `maximal`."""
    grid = f.grid
    MaximalParams(mu).validate(grid.dim)
    _, d = _snap(grid, x)
    vals = f.values.ravel()
    vol_unit = unit_ball_volume(grid.dim)
    best = 0.0
    for r in default_radius_sweep(grid):
        s = float(vals[d < r].sum()) * grid.cell_volume
        best = max(best, r**mu * s / (vol_unit * r**grid.dim))
    return best


# Hedberg diagnostics -------------------------------------------------------


def _hedberg_factors(f: GridFunction, alpha: float, mu: float, exps: LorentzExponents):
    """Check the exponents; return (maximal_power, norm**norm_power), or None for f = 0.

    The bound reads LHS <= C * M_mu(f)^maximal_power * ||f||^norm_power.
    Main branch p in (delta/dim, delta/alpha): the norm is L^{p, norm_q}
    over the content of exponent delta.  Endpoint p = delta/dim: the plain
    p-norm, Lorentz (p, p).
    """
    dim = f.grid.dim
    p, q, delta = exps.p, exps.q, exps.delta
    _check_alpha(alpha, dim)
    if not (0 <= mu < alpha):
        raise OperatorError(f"mu must be in [0, alpha), got {mu}")
    if not (0 < delta <= dim):
        raise OperatorError(f"delta must be in (0, dim], got {delta}")
    endpoint = p == delta / dim
    if not endpoint and not (delta / dim < p < delta / alpha):
        raise OperatorError(
            f"p must equal delta/dim or lie in (delta/dim, delta/alpha) = "
            f"({delta / dim:g}, {delta / alpha:g}), got {p}"
        )
    maximal_power = (delta - p * alpha) / (delta - mu * p)
    norm_power = p * (alpha - mu) / (delta - mu * p)
    norm_q = q * (delta - p * alpha) / (delta - mu * p) if q != math.inf else math.inf
    if not f.values.any():
        return None
    norm = lorentz_norm(f, LorentzExponents(p, p if endpoint else norm_q, delta))
    return maximal_power, norm**norm_power


def hedberg_ratio(f: GridFunction, x, alpha: float, mu: float, exps: LorentzExponents) -> float:
    """Empirical constant at x for the pointwise Riesz-by-maximal bound.

    Returns 0 for f identically zero (both sides vanish).
    """
    factors = _hedberg_factors(f, alpha, mu, exps)
    if factors is None:
        return 0.0
    maximal_power, norm_factor = factors
    lhs = riesz_unnormalized_at(f, x, alpha)
    mf = maximal_at(f, x, mu)
    # nonzero f has mf > 0 everywhere: some sweep ball reaches the support
    return lhs / (mf**maximal_power * norm_factor)


def hedberg_ratio_field(
    f: GridFunction, alpha: float, mu: float, exps: LorentzExponents
) -> GridFunction:
    """Hedberg ratio at every cell center; the max is the empirical constant."""
    factors = _hedberg_factors(f, alpha, mu, exps)
    if factors is None:
        return GridFunction.zeros(f.grid)
    maximal_power, norm_factor = factors
    lhs = _riesz_sums(f, alpha)
    mf = maximal(f, MaximalParams(mu)).values
    return GridFunction(f.grid, lhs / (mf**maximal_power * norm_factor))


@dataclass(frozen=True)
class L1ContentReport:
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else math.inf
        return self.lhs / self.rhs


def l1_content_bound_check(f: GridFunction, delta: float) -> L1ContentReport:
    """Plain integral of f against the content integral of f^(delta/dim).

    For the dyadic content, measure(E) <= content(E)^(dim/delta) holds
    with constant one, and the layer-cake argument keeps the constant,
    so the ratio is bounded by exactly L1_CONTENT_BOUND = 1.
    """
    lhs = f.lebesgue_integral()
    rhs = choquet_integral(f.power(delta / f.grid.dim), delta) ** (f.grid.dim / delta)
    return L1ContentReport(lhs=lhs, rhs=rhs)
