"""Dyadic grids, cell sets, grid functions, and closed-form samplers.

A :class:`DyadicGrid` tiles a root cube with half-open leaf cells
``[a, a + h)^dim`` so that the dyadic cubes of every level partition the
root exactly; boundary sets of measure zero therefore never straddle two
cells.  Sets are boolean occupancy masks over the leaf cells
(:class:`CellSet`), functions are nonnegative values constant on each
leaf cell (:class:`GridFunction`).  Signed test functions are handled by
the callers, which take absolute values before building a GridFunction.

Sampling uses the midpoint rule (value at the cell center).  Grids for
radial samplers are expected to be placed so the singular point sits on
a cell corner (``origin = -root_side / 2`` does this); cell centers then
never coincide with the singularity.  Samplers, ball shapes and the
point evaluators measure distances by one rule, :func:`distance`;
`DyadicGrid.center_distances` applies it to a whole grid for sampling.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_CELL_CAP = 2**24


class GridError(ValueError):
    """Invalid grid construction or mismatched grid arguments."""


def positive_finite(what: str, value, error: type = GridError) -> float:
    """value as a float; error naming `what` unless it is positive and finite."""
    value = float(value)
    if not (value > 0 and math.isfinite(value)):
        raise error(f"{what} must be positive and finite, got {value}")
    return value


def as_point(coords) -> tuple[float, ...]:
    """Coordinates as a tuple of floats; a scalar is one coordinate."""
    return tuple(float(c) for c in np.atleast_1d(coords))


def distance(points: np.ndarray, center) -> np.ndarray:
    """|x - center| for each row x of an (N, dim) array of points."""
    if len(center) != points.shape[-1]:
        raise GridError(f"center has {len(center)} coordinates, the points have {points.shape[-1]}")
    return np.sqrt(np.sum((points - np.asarray(center)) ** 2, axis=-1))


@dataclass(frozen=True)
class DyadicGrid:
    """Uniform dyadic grid over the root cube ``[origin, origin + root_side)^dim``."""

    dim: int
    depth: int
    root_side: float
    origin: tuple[float, ...]

    def __post_init__(self):
        # make_grid checks dim, depth and the cell cap before a grid is built
        object.__setattr__(self, "origin", as_point(self.origin))
        positive_finite("root_side", self.root_side)
        if len(self.origin) != self.dim:
            raise GridError(f"origin has {len(self.origin)} coordinates, expected {self.dim}")
        if not all(map(math.isfinite, self.origin)):
            raise GridError(f"origin must be finite, got {list(self.origin)}")

    @property
    def cells_per_axis(self) -> int:
        return 2**self.depth

    @property
    def h(self) -> float:
        """Leaf cell side length."""
        return self.root_side * 2.0 ** (-self.depth)

    @property
    def n_cells(self) -> int:
        return 2 ** (self.depth * self.dim)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    @property
    def diameter(self) -> float:
        return self.root_side * math.sqrt(self.dim)

    def _axis_centers(self) -> np.ndarray:
        """The cell-center coordinates along each axis, one row per axis."""
        return np.asarray(self.origin)[:, None] + self.h * (np.arange(self.cells_per_axis) + 0.5)

    def centers(self) -> np.ndarray:
        """All cell centers as an ``(n_cells, dim)`` array in C (row-major) order."""
        grids = np.meshgrid(*self._axis_centers(), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def center_distances(self, center) -> np.ndarray:
        """`distance(self.centers(), center)` in the grid's shape, summed in axis order: bit for bit."""
        if len(center) != self.dim:
            raise GridError(f"center has {len(center)} coordinates, the points have {self.dim}")
        total = functools.reduce(np.add.outer, (self._axis_centers() - np.asarray(center)[:, None]) ** 2)
        return np.sqrt(total, out=total)

    def side_at_level(self, level: int) -> float:
        return self.root_side * 2.0 ** (-level)


def grid_integer(key: str, value) -> int:
    """An integer argument; as in JSON Schema, 3.0 counts as an integer, 3.5, true and "3" do not."""
    integral = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise GridError(f"grid {key} must be an integer, got {json_text(value)}")
    return int(value)


def json_text(value) -> str:
    """value as JSON text, the way a config spells it (true, "3", NaN); its repr where JSON has none."""
    try:
        return json.dumps(value)
    except TypeError:
        return repr(value)


def json_number(value) -> bool:
    """Whether value is a number as JSON has them: a bool, a string or a list is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def grid_dim(value) -> int:
    """A grid dimension: an integer (by grid_integer's rule) of 1, 2 or 3."""
    dim = grid_integer("dim", value)
    if dim not in (1, 2, 3):
        raise GridError(f"dim must be 1, 2 or 3, got {value!r}")
    return dim


def make_grid(dim, depth, root_side, origin=None) -> DyadicGrid:
    """Build a dyadic grid, enforcing the leaf-cell memory cap.

    ``dim`` and ``depth`` may be integral floats such as 3.0.  ``origin``
    defaults to ``-root_side/2`` per axis, which puts the coordinate
    origin on a cell corner at every depth.
    """
    dim, depth = grid_dim(dim), grid_integer("depth", depth)
    if depth < 1:
        raise GridError(f"depth must be >= 1, got {depth}")
    # compare exponents first: a depth read from a file may be too large to power out
    if depth * dim >= DEFAULT_CELL_CAP.bit_length() or 2 ** (depth * dim) > DEFAULT_CELL_CAP:
        raise GridError(
            f"grid would have 2**{depth * dim} leaf cells, exceeding the cap {DEFAULT_CELL_CAP}"
        )
    if origin is None:
        origin = (-root_side / 2.0,) * dim
    return DyadicGrid(dim=dim, depth=depth, root_side=float(root_side), origin=origin)


@dataclass(frozen=True)
class DyadicCube:
    """A dyadic cube of the grid hierarchy: level k and per-axis integer index."""

    level: int
    index: tuple[int, ...]

    def side(self, grid: DyadicGrid) -> float:
        return grid.side_at_level(self.level)


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridError("operands live on different grids")


class CellSet:
    """A finite union of leaf cells, stored as a boolean occupancy mask."""

    __slots__ = ("grid", "mask")

    def __init__(self, grid: DyadicGrid, mask: np.ndarray):
        mask = np.ascontiguousarray(mask, dtype=bool)
        if mask.shape != grid.shape:
            raise GridError(f"mask shape {mask.shape} does not match grid shape {grid.shape}")
        mask.setflags(write=False)
        self.grid = grid
        self.mask = mask

    @classmethod
    def empty(cls, grid: DyadicGrid) -> "CellSet":
        return cls(grid, np.zeros(grid.shape, dtype=bool))

    @classmethod
    def full(cls, grid: DyadicGrid) -> "CellSet":
        return cls(grid, np.ones(grid.shape, dtype=bool))

    @classmethod
    def from_indices(cls, grid: DyadicGrid, flat_indices) -> "CellSet":
        mask = np.zeros(grid.n_cells, dtype=bool)
        mask[np.asarray(flat_indices, dtype=np.intp)] = True
        return cls(grid, mask.reshape(grid.shape))

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    @property
    def measure(self) -> float:
        """Lebesgue measure: cell count times cell volume."""
        return self.count * self.grid.cell_volume

    def is_empty(self) -> bool:
        return not self.mask.any()

    def union(self, other: "CellSet") -> "CellSet":
        _check_same_grid(self, other)
        return CellSet(self.grid, self.mask | other.mask)

    def intersection(self, other: "CellSet") -> "CellSet":
        _check_same_grid(self, other)
        return CellSet(self.grid, self.mask & other.mask)

    def difference(self, other: "CellSet") -> "CellSet":
        _check_same_grid(self, other)
        return CellSet(self.grid, self.mask & ~other.mask)

    def complement(self) -> "CellSet":
        return CellSet(self.grid, ~self.mask)

    def issubset(self, other: "CellSet") -> bool:
        _check_same_grid(self, other)
        return bool(np.all(~self.mask | other.mask))

    def __or__(self, other):
        return self.union(other)

    def __and__(self, other):
        return self.intersection(other)

    def __sub__(self, other):
        return self.difference(other)

    def __eq__(self, other):
        return (
            isinstance(other, CellSet)
            and self.grid == other.grid
            and np.array_equal(self.mask, other.mask)
        )

    def __repr__(self):
        return f"CellSet(depth={self.grid.depth}, dim={self.grid.dim}, cells={self.count})"


class GridFunction:
    """Nonnegative function constant on each leaf cell of a dyadic grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: DyadicGrid, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise GridError(f"values shape {values.shape} does not match grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise GridError("grid function values must be finite")
        if np.any(values < 0):
            raise GridError("grid function values must be nonnegative")
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: DyadicGrid) -> "GridFunction":
        return cls(grid, np.zeros(grid.shape))

    @property
    def support(self) -> CellSet:
        return CellSet(self.grid, self.values > 0)

    def superlevel(self, lam: float) -> CellSet:
        """Cells where the value is strictly greater than ``lam``."""
        return CellSet(self.grid, self.values > lam)

    def max(self) -> float:
        return float(self.values.max())

    def scale(self, c: float) -> "GridFunction":
        if c < 0:
            raise GridError("scale factor must be nonnegative")
        return GridFunction(self.grid, self.values * c)

    def power(self, exponent: float) -> "GridFunction":
        return GridFunction(self.grid, self.values**exponent)

    def restrict(self, cells: CellSet) -> "GridFunction":
        _check_same_grid(self, cells)
        return GridFunction(self.grid, np.where(cells.mask, self.values, 0.0))

    def lebesgue_integral(self) -> float:
        """Plain Lebesgue integral: sum of values times cell volume."""
        return float(self.values.sum()) * self.grid.cell_volume

    def __add__(self, other):
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __eq__(self, other):
        return (
            isinstance(other, GridFunction)
            and self.grid == other.grid
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"GridFunction(depth={self.grid.depth}, dim={self.grid.dim}, max={self.values.max():g})"


@dataclass(frozen=True)
class Sampler:
    """Closed-form function descriptor sampled at cell centers.

    Kinds:
      constant        value
      radial_power    |x - center|^exponent, optional truncation annulus
                      eps_inner <= |x - center| < r_outer (zero outside)
      ball_indicator  1 on B(center, radius)
      linear          coeffs . x + offset  (signed: sample refuses it, evaluate does not)
      bump            amplitude * (1 - |x - center|^2 / radius^2)_+^2

    All but ball_indicator have a closed-form |grad| (evaluate with
    gradient).  Radii must be positive and finite, and a center must have
    one coordinate per axis of the points it is evaluated at.
    """

    kind: str
    value: float = 0.0
    center: tuple[float, ...] = ()
    exponent: float = 0.0
    radius: float = 0.0
    coeffs: tuple[float, ...] = ()
    offset: float = 0.0
    amplitude: float = 1.0
    annulus: Optional[tuple[float, float]] = None

    @classmethod
    def constant(cls, value: float) -> "Sampler":
        return cls(kind="constant", value=float(value))

    @classmethod
    def radial_power(cls, exponent, center, annulus=None) -> "Sampler":
        if annulus is not None:
            eps_inner, r_outer = annulus
            if not (0 <= eps_inner < r_outer):
                raise GridError(f"invalid truncation annulus {annulus}")
            annulus = (float(eps_inner), float(r_outer))
        return cls(
            kind="radial_power",
            exponent=float(exponent),
            center=as_point(center),
            annulus=annulus,
        )

    @classmethod
    def ball_indicator(cls, center, radius) -> "Sampler":
        return cls(
            kind="ball_indicator",
            center=as_point(center),
            radius=positive_finite("sampler radius", radius),
        )

    @classmethod
    def linear(cls, coeffs, offset=0.0) -> "Sampler":
        return cls(
            kind="linear",
            coeffs=tuple(float(c) for c in np.atleast_1d(coeffs)),
            offset=float(offset),
        )

    @classmethod
    def bump(cls, center, radius, amplitude=1.0) -> "Sampler":
        return cls(
            kind="bump",
            center=as_point(center),
            radius=positive_finite("sampler radius", radius),
            amplitude=float(amplitude),
        )

    def evaluate(self, points: np.ndarray, gradient: bool = False) -> np.ndarray:
        """Raw (possibly signed) values at the given points, shape (N, dim); with gradient, |grad|."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        if self.kind == "constant":
            return np.zeros(n) if gradient else np.full(n, self.value)
        if self.kind == "linear":
            if gradient:
                return np.full(n, float(np.linalg.norm(self.coeffs)))
            return points @ np.asarray(self.coeffs) + self.offset
        return self._of_radius(distance(points, self.center), gradient)

    def _of_radius(self, r: np.ndarray, gradient: bool) -> np.ndarray:
        """A distance kind's values (with gradient, |grad|) at distances r, in place where it can."""
        if self.kind == "radial_power":
            with np.errstate(divide="ignore"):
                vals = r ** (self.exponent - 1.0 if gradient else self.exponent)
            if gradient:
                vals *= abs(self.exponent)
            if self.annulus is not None:
                eps_inner, r_outer = self.annulus
                vals[~((r >= eps_inner) & (r < r_outer))] = 0.0
            return vals
        if self.kind == "ball_indicator" and not gradient:
            return (r < self.radius).astype(np.float64)
        if self.kind == "bump":
            t = 1.0 - (r / self.radius) ** 2
            t[~(t > 0)] = 0.0  # np.where(t > 0, t, 0.0) in place: a NaN reads 0 too
            if gradient:
                vals = self.amplitude * 4.0 * r
                vals /= self.radius**2
                vals *= t
                return vals
            t **= 2
            t *= self.amplitude
            return t
        raise GridError(f"{self.kind!r} sampler has no closed-form {'gradient' if gradient else 'value'}")

    def _at_centers(self, grid: DyadicGrid, gradient: bool) -> np.ndarray:
        """evaluate at the cell centers, in the grid's shape; a distance kind reads center_distances."""
        if self.kind in ("constant", "linear"):
            return self.evaluate(grid.centers(), gradient).reshape(grid.shape)
        return self._of_radius(grid.center_distances(self.center), gradient)


def sample(sampler: Sampler, grid: DyadicGrid) -> GridFunction:
    """Midpoint-rule sampling onto a grid; values must be finite and >= 0."""
    vals = sampler._at_centers(grid, gradient=False)
    if not np.all(np.isfinite(vals)):
        raise GridError("sampler produced non-finite values at cell centers")
    return GridFunction(grid, vals)


def gradient_magnitude(sampler: Sampler, grid: DyadicGrid) -> GridFunction:
    """|grad u| sampled at cell centers, from the closed-form gradient."""
    vals = sampler._at_centers(grid, gradient=True)
    if not np.all(np.isfinite(vals)):
        raise GridError("gradient sampler produced non-finite values")
    return GridFunction(grid, vals)
