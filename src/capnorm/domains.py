"""John domains with explicit constants and the mean-value ball.

Supported shapes and their John constants (curve: straight segment to
the center, or two segments through a quadrant center for the L-shape):

  ball(c, k)            alpha = beta = k, center c.
  rectangle(c, a, b)    alpha = min(a, b)/2 (inradius), beta =
                        sqrt(a^2+b^2)/2 (circumradius).  For any convex
                        domain the straight segment to the incenter
                        works: dist to the boundary along the segment is
                        at least (t/len) * inradius >= (inradius/beta) t.
  l_shape(anchor, s)    three quadrants of a side-s square; center at
                        the lower-left quadrant center.  alpha = s/4,
                        beta = s: within a quadrant the square constants
                        (s/4, s*sqrt2/4) apply and the connecting leg to
                        the center keeps distance >= s/4 while total arc
                        length stays <= 0.854 s.
  punctured_ball(c, k)  the ball minus the 2^dim finest cells touching
                        the puncture corner; carries the ball constants
                        (its test functions are C^1 away from the
                        puncture).

A cell belongs to a domain iff its center is inside the continuum shape.
The mean-value ball B(x0, c_ball * alpha^2 / beta) uses a configurable
constant c_ball (default 1/4), reported with every experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import CellSet, DyadicGrid

DEFAULT_MEAN_BALL_CONSTANT = 0.25


class DomainError(ValueError):
    """Shape does not fit the grid or an invalid shape parameter."""


@dataclass(frozen=True)
class Shape:
    kind: str
    center: tuple[float, ...] = ()
    radius: float = 0.0
    sides: tuple[float, float] = (0.0, 0.0)
    anchor: tuple[float, ...] = ()
    size: float = 0.0

    @classmethod
    def ball(cls, center, radius) -> "Shape":
        if radius <= 0:
            raise DomainError(f"ball radius must be positive, got {radius}")
        return cls(kind="ball", center=tuple(float(c) for c in np.atleast_1d(center)),
                   radius=float(radius))

    @classmethod
    def rectangle(cls, center, a, b) -> "Shape":
        if a <= 0 or b <= 0:
            raise DomainError(f"rectangle sides must be positive, got {a}, {b}")
        return cls(kind="rectangle", center=tuple(float(c) for c in np.atleast_1d(center)),
                   sides=(float(a), float(b)))

    @classmethod
    def l_shape(cls, anchor, size) -> "Shape":
        if size <= 0:
            raise DomainError(f"l_shape size must be positive, got {size}")
        anchor = tuple(float(c) for c in np.atleast_1d(anchor))
        if len(anchor) != 2:
            raise DomainError("l_shape is two-dimensional")
        return cls(kind="l_shape", anchor=anchor, size=float(size))

    @classmethod
    def punctured_ball(cls, center, radius) -> "Shape":
        if radius <= 0:
            raise DomainError(f"ball radius must be positive, got {radius}")
        return cls(kind="punctured_ball",
                   center=tuple(float(c) for c in np.atleast_1d(center)),
                   radius=float(radius))

    @property
    def dim(self) -> int:
        if self.kind in ("ball", "punctured_ball", "rectangle"):
            return len(self.center)
        return 2

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind in ("ball", "punctured_ball"):
            c = np.asarray(self.center)
            return c - self.radius, c + self.radius
        if self.kind == "rectangle":
            c = np.asarray(self.center)
            half = np.asarray(self.sides) / 2.0
            return c - half, c + half
        a = np.asarray(self.anchor)
        return a, a + self.size

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        if self.kind in ("ball", "punctured_ball"):
            r = np.sqrt(np.sum((points - np.asarray(self.center)) ** 2, axis=-1))
            return r < self.radius
        if self.kind == "rectangle":
            rel = np.abs(points - np.asarray(self.center))
            half = np.asarray(self.sides) / 2.0
            return np.all(rel < half, axis=-1)
        rel = points - np.asarray(self.anchor)
        inside_square = np.all((rel >= 0) & (rel < self.size), axis=-1)
        upper_right = np.all(rel >= self.size / 2.0, axis=-1)
        return inside_square & ~upper_right

    @property
    def diameter(self) -> float:
        if self.kind in ("ball", "punctured_ball"):
            return 2 * self.radius
        if self.kind == "rectangle":
            return math.hypot(*self.sides)
        return self.size * math.sqrt(2.0)

    def john_constants(self) -> tuple[float, float, tuple[float, ...]]:
        """(alpha, beta, john_center) per the derivations in the module docstring."""
        if self.kind in ("ball", "punctured_ball"):
            return self.radius, self.radius, self.center
        if self.kind == "rectangle":
            a, b = self.sides
            return min(a, b) / 2.0, math.hypot(a, b) / 2.0, self.center
        s = self.size
        x0 = (self.anchor[0] + s / 4.0, self.anchor[1] + s / 4.0)
        return s / 4.0, s, x0


@dataclass(frozen=True)
class JohnDomain:
    shape: Shape
    alpha_john: float
    beta_john: float
    center_x0: tuple[float, ...]
    cells: CellSet

    @property
    def grid(self) -> DyadicGrid:
        return self.cells.grid

    @property
    def diameter_bound(self) -> float:
        return 2.0 * self.beta_john


@dataclass(frozen=True)
class MeanValueBall:
    center: tuple[float, ...]
    radius: float
    c_ball: float


def make_john_domain(shape: Shape, grid: DyadicGrid) -> JohnDomain:
    """Discretize a shape (cell centers inside) with its John constants."""
    if shape.dim != grid.dim:
        raise DomainError(f"shape dimension {shape.dim} does not match grid dimension {grid.dim}")
    lo, hi = shape.bounding_box()
    root_lo = np.asarray(grid.origin)
    root_hi = root_lo + grid.root_side
    if np.any(lo < root_lo - 1e-12 * grid.root_side) or np.any(hi > root_hi + 1e-12 * grid.root_side):
        raise DomainError("shape does not fit inside the grid root")
    centers = grid.centers()
    mask = shape.contains(centers).reshape(grid.shape)

    if shape.kind == "punctured_ball":
        # drop the 2^dim finest cells whose closure touches the puncture;
        # the puncture must sit on a cell corner
        c = np.asarray(shape.center)
        rel = (c - root_lo) / grid.h
        snapped = np.round(rel)
        if np.any(np.abs(rel - snapped) > 1e-9):
            raise DomainError("puncture must sit on a cell corner of the grid")
        m = grid.cells_per_axis
        mask = mask.copy()
        for off in np.ndindex(*(2,) * grid.dim):
            idx = snapped.astype(int) - 1 + np.asarray(off)
            if np.all(idx >= 0) and np.all(idx < m):
                mask[tuple(idx)] = False

    if not mask.any():
        raise DomainError("shape contains no cell centers at this grid depth")
    alpha, beta, x0 = shape.john_constants()
    return JohnDomain(shape=shape, alpha_john=alpha, beta_john=beta,
                      center_x0=x0, cells=CellSet(grid, mask))


def mean_value_ball(domain: JohnDomain, c_ball: float = DEFAULT_MEAN_BALL_CONSTANT) -> MeanValueBall:
    """B(x0, c_ball * alpha^2 / beta); must lie inside the domain cells."""
    radius = c_ball * domain.alpha_john**2 / domain.beta_john
    ball = MeanValueBall(center=domain.center_x0, radius=radius, c_ball=c_ball)
    grid = domain.grid
    inside = _ball_mask(grid, ball)
    # containment is checked against the continuum shape: for punctured
    # shapes the averaging set is the ball intersected with the domain
    # cells, which excludes the puncture cells
    in_shape = domain.shape.contains(grid.centers()).reshape(grid.shape)
    if not np.all(~inside | in_shape):
        raise DomainError("mean-value ball sticks out of the domain")
    return ball


def _ball_mask(grid: DyadicGrid, ball: MeanValueBall) -> np.ndarray:
    centers = grid.centers()
    d = np.sqrt(np.sum((centers - np.asarray(ball.center)) ** 2, axis=-1))
    return (d < ball.radius).reshape(grid.shape)


def mean_value(
    values: np.ndarray, grid: DyadicGrid, ball: MeanValueBall, within: Optional[CellSet] = None
) -> float:
    """Average of per-cell values over the cells whose center lies in the ball.

    `values` holds one value per cell of `grid` and may be signed, which
    centered test functions need (pass ``f.values`` for a GridFunction).
    `within` restricts to domain cells (used for punctured shapes).
    """
    values = np.asarray(values, dtype=float).reshape(grid.shape)
    mask = _ball_mask(grid, ball)
    if within is not None:
        mask &= within.mask
    if not mask.any():
        raise DomainError("mean-value ball contains no cell centers")
    return float(values[mask].mean())
