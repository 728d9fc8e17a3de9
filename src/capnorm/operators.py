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
spectrum is kept as that quarter; a leading-axis frequency k > m reads
2m - k through a reversed view.  The transforms of f never hold the
padded spectrum: the rfft of each last-axis line fills an m^(dim-1) x
(m+1) array, and each block of about BLOCK_BYTES of its columns is
padded and transformed along the leading axes (only lines that hold
nonzeros), multiplied, inverted keeping the first m lines of each axis,
and written back; the irfft of each line then gives the m^dim sums.
Each 1D line transform does not depend on how many lines are batched
with it, so blocking changes no bits.  Against full-lattice transforms
of the same spectrum the pruning changes no bits in 1D and 2D; the DCT
spectrum changes rounding by about 1e-16 of the largest value.

The padded lattice holds 2^dim times the grid's cells; a grid whose
padded transform would exceed ``grid.DEFAULT_CELL_CAP`` cells is refused
with GridError before anything is allocated.  FFT is deterministic, so
reruns are byte-identical.  Its rounding leaves noise near 1e-16 of the
largest value, so a sum that is exactly zero can come out slightly
negative and is clipped to zero.  The point evaluators `maximal_at` and
`riesz_unnormalized_at` sum the same cells directly at one point; they
are the exact reference for the fields and refuse the mu and alpha the
fields refuse.

The maximal supremum is taken over one fixed geometric radius sweep,
ratio RADIUS_SWEEP_FACTOR, from one cell side up to twice the grid
diameter; the averaged quantity varies polynomially in the radius, so
the sweep captures the continuum supremum within a factor tied to the
sweep ratio.  f is transformed once per call, kept block by block, and
its spectrum reused for every radius of the sweep.  The Riesz potential
carries the classical normalization 1/c_alpha of `riesz_normalization`.
Its kernel spectrum quarter is built once per (grid, alpha) and kept for
the next call, so a sweep of sources on one grid pays for it once; one
quarter is held at a time, (m+1)^dim float64 values: about 34 MB at 2D
depth 11 and 64 MB at 1D depth 23, the largest grids the cap admits.

`improved_exponents` is the one rule for the exponents of the improved
Sobolev-Riesz inequalities: the Hedberg bound's norm and verify's sides.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .choquet import LorentzExponents, choquet_integral, lorentz_norm
from .grid import DEFAULT_CELL_CAP, DyadicGrid, GridError, GridFunction, as_point, distance

RADIUS_SWEEP_FACTOR = 1.25

# complex bytes per column block of the padded leading-axis transforms and per
# chunk of last-axis lines.  Riesz on 2D depth 10 runs equally fast from 256 KiB
# to 1 MiB and 25-45% slower at 2 and 4 MiB, where a block and its transform
# scratch outgrow a 2 MiB L2 cache; 512 KiB is the middle of that plateau.
# Blocking changes no bits.
BLOCK_BYTES = 1 << 19

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


def _check_alpha(alpha: float, dim: int, error: type = OperatorError):
    """Refuse an alpha outside (0, dim), or one whose Riesz constants leave double precision.

    Near 0 the normalization grows like 2/alpha and the self-cell weight
    like sphere_area/alpha (its factor rho^alpha rounds to 1 there), so an
    alpha at which either is not finite is refused by name before any
    transform runs.
    """
    if not (0 < alpha < dim):
        raise error(f"alpha must be in (0, dim) = (0, {dim:g}), got {alpha}")
    try:
        constants = (riesz_normalization(dim, alpha), unit_sphere_area(dim) / alpha)
        finite = all(map(math.isfinite, constants))
    except (OverflowError, ValueError):  # math.gamma overflows, or meets its pole once alpha/2 is 0
        finite = False
    if not finite:
        raise error(f"alpha={alpha} is too small: the Riesz normalization or the self-cell "
                    f"weight is not finite in double precision")


def riesz_left_exponent(p: float, delta: float, mu: float, alpha: float) -> float:
    """Target exponent p(delta - mu p)/(delta - alpha p) of the left norm."""
    return p * (delta - mu * p) / (delta - p * alpha)


def riesz_right_q(q: float, p: float, delta: float, mu: float, alpha: float) -> float:
    """Second index q(delta - alpha p)/(delta - mu p) of the right norm."""
    return q * (delta - p * alpha) / (delta - mu * p)


def improved_exponents(
    p: float, q: float, delta: float, mu: float, alpha: float, dim: int, error: type = OperatorError
) -> tuple[LorentzExponents, LorentzExponents]:
    """Checked (left, right) exponents of an improved inequality of order alpha in (0, dim).

    alpha = 1 for the gradient.  Needs mu in [0, alpha); q is not bounded.
    Main branch p in (delta/dim, delta/alpha): left L^{riesz_left_exponent,
    q} over the content of exponent delta - mu p, right L^{p, riesz_right_q}
    over delta.  Endpoint p = delta/dim: left weak (q = inf), right L^{p, p}.
    The right side is also the norm of the Hedberg bound; a q whose right
    index underflows to 0 is refused naming q.
    """
    _check_alpha(alpha, dim, error)
    if not (0 <= mu < alpha):
        raise error(f"mu must be in [0, alpha) = [0, {alpha:g}), got {mu}")
    endpoint = p == delta / dim
    if not endpoint and not (delta / dim < p < delta / alpha):
        raise error(f"p must equal delta/dim or lie in (delta/dim, delta/alpha) = "
                    f"({delta / dim:g}, {delta / alpha:g}), got {p}")
    left_q, right_q = (math.inf, p) if endpoint else (q, riesz_right_q(q, p, delta, mu, alpha))
    left = LorentzExponents(riesz_left_exponent(p, delta, mu, alpha), left_q, delta - mu * p)
    if right_q == 0:  # a positive q, checked by the left side, underflowed
        raise error(f"the right norm's index q(delta - p alpha)/(delta - mu p) "
                    f"underflows to 0 at q={q}")
    return left, LorentzExponents(p, right_q, delta)


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
    """DFT of the even 2m-periodic kernel given by its (m+1)^dim quarter, at frequencies 0..m.

    The DFT of an even kernel is real and is the DCT-I of its quarter;
    frequency 2m - k repeats frequency k, so the quarter holds every value.
    """
    return fft.dctn(quarter, type=1)


def _column_blocks(m: int, dim: int) -> list[slice]:
    """The m + 1 rfft columns in blocks whose padded leading axes hold about BLOCK_BYTES."""
    width = max(1, BLOCK_BYTES // (16 * (2 * m) ** (dim - 1)))
    return [slice(c, min(c + width, m + 1)) for c in range(0, m + 1, width)]


def _row_chunks(lines: int, m: int) -> list[slice]:
    """The lines of an m-cell last axis in chunks whose 2m-point transforms hold about BLOCK_BYTES."""
    size = max(1, BLOCK_BYTES // (16 * m))
    return [slice(r, r + size) for r in range(0, lines, size)]


def _row_spectrum(values: np.ndarray) -> np.ndarray:
    """rfft of every last-axis line of values zero-padded to 2m: the m^(dim-1) x (m+1) rows."""
    m = values.shape[-1]
    lines = values.reshape(-1, m)
    rows = np.empty((lines.shape[0], m + 1), dtype=complex)
    for chunk in _row_chunks(lines.shape[0], m):
        rows[chunk] = fft.rfft(lines[chunk], n=2 * m, axis=-1)
    return rows.reshape(values.shape[:-1] + (m + 1,))


def _forward_block(rows: np.ndarray, cols: slice, n: int) -> np.ndarray:
    """Columns cols of the rfftn of f zero-padded to n per axis, as a new array.

    rows is `_row_spectrum` of f.  Each leading axis is padded and
    transformed in turn, so lines that hold only zeros are never
    transformed.  In 1D it is a copy of rows[..., cols], since
    `_inverse_block` writes its result back into rows.
    """
    block = rows[..., cols]
    for axis in range(rows.ndim - 1):
        block = fft.fft(block, n=n, axis=axis)
    return block if rows.ndim > 1 else block.copy()


def _spectrum_product(block: np.ndarray, spectrum: np.ndarray, cols: slice, out: np.ndarray) -> np.ndarray:
    """out = block times the kernel spectrum at columns cols; out may be block.

    spectrum is the (m+1)^dim `_kernel_spectrum` quarter.  On each leading
    axis, frequency k > m reads frequency 2m - k through a reversed view.
    """
    m = spectrum.shape[-1] - 1
    halves = ((slice(0, m + 1), slice(0, m + 1)), (slice(m + 1, 2 * m), slice(m - 1, 0, -1)))
    for parts in itertools.product(halves, repeat=spectrum.ndim - 1):
        at = tuple(lines for lines, _ in parts) + (slice(None),)
        np.multiply(block[at], spectrum[tuple(freqs for _, freqs in parts) + (cols,)], out=out[at])
    return out


def _inverse_block(product: np.ndarray, rows: np.ndarray, cols: slice):
    """Inverts the leading axes of product into rows[..., cols]; product is overwritten.

    Only the first m lines of each axis are read by the output cells, so
    only they are inverted further.
    """
    m = rows.shape[-1] - 1
    for axis in range(product.ndim - 1):
        product = fft.ifft(product, axis=axis, overwrite_x=True)[(slice(None),) * axis + (slice(0, m),)]
    rows[..., cols] = product


def _clipped_sums(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The first m points of the 2m-point irfft of every line of rows, clipped at zero, into out."""
    m = rows.shape[-1] - 1
    lines, sums = rows.reshape(-1, m + 1), out.reshape(-1, m)
    for chunk in _row_chunks(lines.shape[0], m):
        np.maximum(fft.irfft(lines[chunk], n=2 * m, axis=-1)[:, :m], 0.0, out=sums[chunk])
    return out


def _convolve(values: np.ndarray, spectrum: np.ndarray, n: int) -> np.ndarray:
    """Sums of values against one even kernel on the n-periodic lattice, at the m^dim cells.

    spectrum is the kernel's `_kernel_spectrum` quarter.  Each column
    block is transformed, multiplied and inverted in its own array, so
    the padded spectrum is never held whole; the sums are clipped at zero.
    """
    rows = _row_spectrum(values)
    for cols in _column_blocks(values.shape[-1], values.ndim):
        block = _forward_block(rows, cols, n)
        _inverse_block(_spectrum_product(block, spectrum, cols, out=block), rows, cols)
    return _clipped_sums(rows, np.empty(values.shape))


def _self_cell_weight(grid: DyadicGrid, alpha: float) -> float:
    """Exact radial integral of |y|^(alpha - dim) over the ball of one cell's volume."""
    rho = (grid.cell_volume / unit_ball_volume(grid.dim)) ** (1.0 / grid.dim)
    return unit_sphere_area(grid.dim) * rho**alpha / alpha


def maximal(f: GridFunction, params: MaximalParams) -> GridFunction:
    """Fractional maximal function: sup over radii of r^mu times the ball average.

    At each cell center x the average over B(x, r) sums the values of
    cells whose center lies in the open ball, times the cell volume,
    divided by the exact continuum ball volume.  f is transformed once,
    kept column block by column block, and reused for every radius: each
    radius below the largest cell offset costs one DCT-I of its ball mask
    on the (m+1)^dim quarter and one pruned inverse per block, staged in
    one buffer; larger radii see every cell and use the total mass.
    Raises GridError when the (2m)^dim padded lattice exceeds the
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
    rows = _row_spectrum(f.values)
    f_hat = [(cols, _forward_block(rows, cols, n)) for cols in _column_blocks(m, grid.dim)]
    staging = np.empty_like(f_hat[0][1])
    dist = _quarter_distances(grid)

    sums = np.empty(grid.shape)
    out = np.zeros(grid.shape)
    for r in radii:
        scale = r**params.mu * grid.cell_volume / (vol_unit * r**grid.dim)
        if r > max_offset:
            # the ball sees every cell from every center
            np.maximum(out, scale * total_mass, out=out)
            continue
        spectrum = _kernel_spectrum((dist < r).astype(np.float64))
        for cols, block in f_hat:
            product = _spectrum_product(block, spectrum, cols, out=staging[..., : block.shape[-1]])
            _inverse_block(product, rows, cols)
        np.maximum(out, scale * _clipped_sums(rows, sums), out=out)
    return GridFunction(grid, out)


@functools.lru_cache(maxsize=1)
def _riesz_spectrum(grid: DyadicGrid, alpha: float) -> np.ndarray:
    """Read-only `_kernel_spectrum` quarter of the Riesz kernel on grid's 2m-periodic lattice.

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
    n = _padded_shape(f.grid)[0]
    return _convolve(f.values, _riesz_spectrum(f.grid, float(alpha)), n)


def riesz(f: GridFunction, alpha: float) -> GridFunction:
    """Riesz potential by periodic FFT convolution with the cell-center kernel.

    Distinct cells contribute |x - y|^(alpha - dim) * cell_volume at the
    center distance; the self cell uses the exact radial integral over
    the ball of equal volume (sphere_area * rho^alpha / alpha with
    vol(ball(rho)) = cell_volume), which is error O(h^(alpha+1)) and has
    no tunable constant.  The kernel is built on the (m+1)^dim quarter of
    offsets 0..m and its spectrum is the quarter's DCT-I, once per
    (grid, alpha): a call on the grid and alpha of the one before costs
    only the transforms of f, which run column block by column block and
    never hold the padded spectrum.  The one cached spectrum quarter
    takes (m+1)^dim float64 values, about 34 MB at 2D depth 11.  Raises
    GridError when the (2m)^dim padded lattice exceeds the leaf-cell cap.
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
    _check_alpha(alpha, grid.dim)
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

    The bound reads LHS <= C * M_mu(f)^maximal_power * ||f||^norm_power,
    the norm the right side of `improved_exponents` at exps.
    """
    p, q, delta = exps.p, exps.q, exps.delta
    _, norm_exps = improved_exponents(p, q, delta, mu, alpha, f.grid.dim)
    if not (0 < delta <= f.grid.dim):
        raise OperatorError(f"delta must be in (0, dim], got {delta}")
    maximal_power = (delta - p * alpha) / (delta - mu * p)
    norm_power = p * (alpha - mu) / (delta - mu * p)
    if not f.values.any():
        return None
    return maximal_power, lorentz_norm(f, norm_exps) ** norm_power


def hedberg_ratio(f: GridFunction, x, alpha: float, mu: float, exps: LorentzExponents) -> float:
    """Empirical constant at x for the pointwise Riesz-by-maximal bound.

    Returns 0 for f identically zero (both sides vanish).
    """
    factors = _hedberg_factors(f, alpha, mu, exps)
    lhs = riesz_unnormalized_at(f, x, alpha)  # checks x, also for f = 0
    mf = maximal_at(f, x, mu)
    if factors is None:
        return 0.0
    maximal_power, norm_factor = factors
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
