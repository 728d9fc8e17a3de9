"""Choquet integrals and Lorentz-type quasi-norms over the dyadic content.

Every functional here is computed in closed form from the step
distribution of a grid function: the map ``lam -> content({f > lam})``
is piecewise constant with jumps exactly at the distinct positive values
of f, so layer-cake integrals reduce to finite sums.  No lambda
quadrature appears in the production path (a quadrature oracle lives in
the tests only).

There are two closed forms on a distribution: the Lorentz integral form
`lorentz_norm_of` and the dyadic-level sum `dyadic_sum_norm_of`.  The
Choquet integral is the Lorentz (1, 1) case, the Choquet p-norm the
(p, p) case, and the classical Lorentz norm with Lebesgue measure the
case delta = dim, where the content of a cell set is its measure.

Both, and `interp.interpolation_norm_of`, return through one guard,
`checked_norm`, which is told only whether the function is zero: it
checks (p, q), gives 0.0 for a zero function and refuses any other
result that is not positive and finite (an overflow, a division by zero
or an underflow) as an ExponentError naming the norm.

Superlevel sets use strict inequality {f > lam} throughout.  At every
delta, one sort of the positive values, repeats kept, gives the
clusters: sorted neighbours are merged into one threshold wherever their
gap is at most MERGE_RTOL (1e-12) relative, to avoid spurious zero-width
steps.  Merging is transitive over adjacent gaps, so a cluster can be
wider than MERGE_RTOL; its threshold is the cluster maximum.  Below dim,
the same order gives each cell its cluster index for the tree sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .content import ContentEngine, _check_delta
from .grid import CellSet, GridFunction

MERGE_RTOL = 1e-12
_GAP_SLICE = 1 << 14  # values per slice of the gap test, which bounds its temporaries


class ExponentError(ValueError):
    """Invalid Lorentz exponents."""


def _check_lorentz(p: float, q: float):
    """Refuse a p outside (0, inf) or a q outside (0, inf], each by name."""
    if not (0 < p < math.inf):
        raise ExponentError(f"p must be in (0, inf), got {p}")
    if not (0 < q):
        raise ExponentError(f"q must be in (0, inf], got {q}")


@dataclass(frozen=True)
class LorentzExponents:
    """Primary exponent p in (0, inf), secondary q in (0, inf], content delta (checked by `distribution`)."""

    p: float
    q: float
    delta: float

    def __post_init__(self):
        _check_lorentz(self.p, self.q)


@dataclass(frozen=True)
class StepDistribution:
    """Piecewise-constant distribution function of a grid function.

    thresholds: the m distinct (merged) positive values v_1 < ... < v_m.
    plateaus:   h_j = content({f > lam}) for lam in [v_j, v_{j+1}), with
                v_0 = 0, so plateaus[0] is the content of the support and
                the distribution vanishes for lam >= v_m.
    """

    thresholds: np.ndarray
    plateaus: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        h = np.asarray(self.plateaus, dtype=np.float64)
        if t.shape != h.shape or t.ndim != 1:
            raise ValueError("thresholds and plateaus must be 1-d arrays of equal length")
        t.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "plateaus", h)

    @property
    def is_zero(self) -> bool:
        return self.thresholds.size == 0

    def content_at(self, lam: float) -> float:
        """content({f > lam}) for lam >= 0."""
        if self.is_zero:
            return 0.0
        j = int(np.searchsorted(self.thresholds, lam, side="right"))
        if j >= self.thresholds.size:
            return 0.0
        return float(self.plateaus[j])


def _clusters(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted positive values at MERGE_RTOL; returns (opens, reps).

    A cluster opens at every value whose gap to the previous value exceeds
    MERGE_RTOL times the value; opens[i] is True there (and at 0).  A
    repeated value has gap 0 and never opens one, so ordered may hold
    repeats.  Merging is transitive over adjacent gaps, so a chain of
    values each within MERGE_RTOL of the next forms one cluster that can
    be wider than MERGE_RTOL.  reps are the cluster maxima (each cluster's
    last value), strictly increasing.  ordered must be nonempty.  The gap
    test runs over slices of _GAP_SLICE values, so no temporary is as
    large as ordered.
    """
    opens = np.empty(ordered.size, dtype=bool)
    opens[0] = True
    for start in range(1, ordered.size, _GAP_SLICE):
        stop = min(start + _GAP_SLICE, ordered.size)
        right = ordered[start:stop]
        np.greater(right - ordered[start - 1:stop - 1], MERGE_RTOL * right, out=opens[start:stop])
    return opens, ordered[np.append(opens[1:], True)]


def _counting_distribution(f: GridFunction) -> StepDistribution:
    """Step distribution with Lebesgue measure: each plateau counts the cells above it.

    One in-place sort of the positive values, repeats kept, gives the clusters; the
    cells above a threshold are those sorted past its cluster's start, so
    no cell is looked up and nothing is counted per value.
    """
    values = f.values.ravel()
    ordered = values[values > 0]
    ordered.sort()
    if ordered.size == 0:
        return StepDistribution(np.empty(0), np.empty(0))
    opens, reps = _clusters(ordered)
    cells_from = ordered.size - np.flatnonzero(opens)  # cells in clusters >= j
    return StepDistribution(reps, cells_from * f.grid.cell_volume)


def distribution(f: GridFunction, delta: float) -> StepDistribution:
    """Exact step distribution of f under the dyadic content of exponent delta.

    At every delta one sort of the positive values, repeats kept, gives
    the clusters (_clusters).  For delta < dim the positive cells are
    sorted by value, so the same order gives each cell its cluster index,
    and all superlevel sets are evaluated in one bottom-up pass over the
    dyadic tree, in which each node's cost is a step function of that
    index (ContentEngine.superlevel_contents); every plateau is
    bit-identical to a from-scratch pass on its set.  For delta == dim the
    content of a cell set equals its Lebesgue measure, so plateaus are
    computed by counting.  A delta outside (0, dim] is a ContentError for
    every f, the zero function included.
    """
    _check_delta(delta, f.grid.dim)
    if delta == f.grid.dim:
        return _counting_distribution(f)
    grid = f.grid
    flat = f.values.ravel()
    cells = np.flatnonzero(flat > 0)
    if cells.size == 0:
        return StepDistribution(np.empty(0), np.empty(0))
    cells = cells[np.argsort(flat[cells])]
    opens, reps = _clusters(flat[cells])
    levels = np.full(flat.size, -1, dtype=np.int32)
    levels[cells] = np.cumsum(opens, dtype=np.int32) - 1
    engine = ContentEngine(grid, delta)
    return StepDistribution(reps, engine.superlevel_contents(levels.reshape(grid.shape), reps.size))


# closed forms on a step distribution ------------------------------------


def checked_norm(name: str, is_zero: bool, p: float, q: float,
                 closed_form: Callable[[], float]) -> float:
    """The norm closed_form() of a nonzero function after a check of (p, q); 0.0 where is_zero.

    A nonzero function has a positive norm, so a result that is not
    positive and finite, from a power that overflows (a float power raises
    OverflowError where numpy's returns inf), a division by zero or an
    underflow to zero, is an ExponentError naming the norm, p and q: such
    exponents lie outside double precision for this function.
    """
    _check_lorentz(p, q)
    if is_zero:
        return 0.0
    try:
        with np.errstate(all="ignore"):  # the result is checked below
            norm = closed_form()
    except (OverflowError, ZeroDivisionError):
        norm = math.inf
    if not (0 < norm < math.inf):
        raise ExponentError(
            f"the {name} at p={p:g}, q={q:g} is not finite and positive in double precision")
    return norm


def lorentz_norm_of(dist: StepDistribution, p: float, q: float) -> float:
    """(p/q sum_j (v_j^q - v_{j-1}^q) h_j^{q/p})^{1/q}, or max_j v_j h_j^{1/p} for q = inf.

    (1, 1) is the layer-cake integral and (p, p) the p-norm, bit for bit:
    at q = p the factor p/q and the power q/p are exactly one.  Returns
    through `checked_norm`.
    """

    def closed_form():
        if q == math.inf:
            # sup of lam * h(lam)^(1/p); on each plateau the sup sits at the
            # right endpoint approached from below, exact for step data
            return float(np.max(dist.thresholds * dist.plateaus ** (1.0 / p)))
        ext = np.concatenate([[0.0], dist.thresholds]) ** q
        h = dist.plateaus if q == p else dist.plateaus ** (q / p)  # h ** 1.0 is h
        return float((p / q) * np.sum(np.diff(ext) * h)) ** (1.0 / q)

    return checked_norm("Lorentz norm", dist.is_zero, p, q, closed_form)


def _largest_pow2_below(v: float) -> int:
    """Largest integer i with 2^i < v, exact for float v > 0."""
    mantissa, exp = math.frexp(v)  # v = mantissa * 2^exp, mantissa in [0.5, 1)
    return exp - 2 if mantissa == 0.5 else exp - 1


def dyadic_sum_norm_of(dist: StepDistribution, p: float, q: float) -> float:
    """Dyadic-level quasi-norm: sum over i of 2^{iq} h(2^i)^{q/p}.

    Levels with 2^i >= max f contribute zero; levels below the least
    positive value all see the full support and are summed as a closed
    geometric tail.  One searchsorted finds the heights of the levels in
    between; a level whose plateau underflowed to 0.0 adds no term.
    Comparable to the integral form within [(q/(p(2^q-1)))^{1/q},
    (q 2^q/(p(2^q-1)))^{1/q}] for finite q (h is nonincreasing, so each
    dyadic slab brackets the integrand), and within [1/2, 1] relative for
    q = inf.  Returns through `checked_norm`, which also refuses a tail
    factor 1 - 2^-q that rounds to zero.
    """

    def closed_form():
        i_tail = _largest_pow2_below(float(dist.thresholds[0]))  # levels <= i_tail: whole support
        i_top = _largest_pow2_below(float(dist.thresholds[-1]))  # last level with a nonzero term
        levels = np.ldexp(1.0, np.arange(i_tail + 1, i_top + 1))  # the 2^i in [v_1, v_m)
        heights = dist.plateaus[np.searchsorted(dist.thresholds, levels, side="right")]
        steps = zip(levels.tolist(), heights.tolist())
        tail, h0 = math.ldexp(1.0, i_tail), float(dist.plateaus[0])
        if q == math.inf:
            return max([tail * h0 ** (1.0 / p)] + [lam * h ** (1.0 / p) for lam, h in steps])
        total = h0 ** (q / p) * tail**q / (1.0 - 2.0**-q)
        for lam, h in steps:
            if h > 0:
                total += lam**q * h ** (q / p)
        return total ** (1.0 / q)

    return checked_norm("dyadic sum norm", dist.is_zero, p, q, closed_form)


def dyadic_sum_comparability(p: float, q: float) -> tuple[float, float]:
    """Bounds on (dyadic sum norm) / (integral norm) for finite q."""
    if q == math.inf:
        return (0.5, 1.0)
    lo = (q / (p * (2.0**q - 1.0))) ** (1.0 / q)
    hi = (q * 2.0**q / (p * (2.0**q - 1.0))) ** (1.0 / q)
    return (lo, hi)


# grid-function front ends -------------------------------------------------


def choquet_integral(f: GridFunction, delta: float) -> float:
    return lorentz_norm_of(distribution(f, delta), 1.0, 1.0)


def choquet_p_norm(f: GridFunction, p: float, delta: float) -> float:
    return lorentz_norm_of(distribution(f, delta), p, p)


def lorentz_norm(f: GridFunction, exps: LorentzExponents) -> float:
    return lorentz_norm_of(distribution(f, exps.delta), exps.p, exps.q)


def lorentz_norm_dyadic(f: GridFunction, exps: LorentzExponents) -> float:
    return dyadic_sum_norm_of(distribution(f, exps.delta), exps.p, exps.q)


def lebesgue_embedding_constant(dim: int, delta: float, q: float) -> float:
    """Constant C in ||f||_{L^{p,q}(Leb)} <= C ||f||_{L^{p delta/dim, q}(H^delta)}.

    For the dyadic content, measure(E) <= content(E)^{dim/delta} with
    constant one, which propagates to C = (dim/delta)^{1/q} for finite q
    and C = 1 for q = inf.
    """
    if q == math.inf:
        return 1.0
    return (dim / delta) ** (1.0 / q)
