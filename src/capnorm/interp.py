"""K-functional numerics between two content-integral spaces.

The splitting family is restricted to level truncations: for a cut c,
f1 = min(f, c) carries the low part and f0 = (f - c)_+ the high part.
This is the standard near-optimal family for Lorentz-type couples; the
computed K(t) is therefore an upper bound on the true infimum and every
comparison downstream is a bounded-ratio check, never an equality.

On a step function the truncation norms come from one distribution: with
cuts at the thresholds v_k, f1 keeps thresholds up to v_k and f0 shifts
the remaining ones down by v_k, both reusing the same plateau contents.
K_upper(t) is then the lower envelope of finitely many lines a_c + t*b_c.

The interpolation norm integrates [t^-eta K(t)]^q dt/t exactly on that
envelope: closed forms on the two pure-power tails, adaptive quadrature
between envelope breakpoints.  A 64-point geometric t-grid (tails below
1e-6 relative by construction) is kept for reporting K(t) series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .choquet import StepDistribution, distribution, lorentz_norm_of
from .grid import GridFunction

T_GRID_POINTS = 64
TAIL_RELATIVE = 1e-6


class InterpError(ValueError):
    """Invalid interpolation parameters."""


@dataclass(frozen=True)
class InterpPair:
    """Endpoints p0 < p1, interpolation parameter eta, outer exponent q."""

    p0: float
    p1: float
    delta: float
    eta: float
    q_interp: float

    def __post_init__(self):
        if not (0 < self.p0 < self.p1 < math.inf):
            raise InterpError(f"need 0 < p0 < p1 < inf, got {self.p0}, {self.p1}")
        if not (0 < self.eta < 1):
            raise InterpError(f"eta must be in (0, 1), got {self.eta}")
        if not (self.p0 < self.q_interp < math.inf):
            raise InterpError(f"q_interp must be in (p0, inf), got {self.q_interp}")
        if self.delta <= 0:
            raise InterpError(f"delta must be positive, got {self.delta}")

    @property
    def p(self) -> float:
        """Target exponent: 1/p = (1-eta)/p0 + eta/p1."""
        return 1.0 / ((1.0 - self.eta) / self.p0 + self.eta / self.p1)


def _truncation_lines(dist: StepDistribution, p0: float, p1: float) -> tuple[np.ndarray, np.ndarray]:
    """Norm pairs (a_c, b_c) = (||(f-c)+||_{p0}, ||min(f,c)||_{p1}) over all cuts.

    Cuts sweep 0 and every threshold; c = v_m already gives f0 = 0, so
    the c = infinity splitting is included.
    """
    thr = dist.thresholds
    h = dist.plateaus
    m = thr.size
    a = np.empty(m + 1)
    b = np.empty(m + 1)
    ext = np.concatenate([[0.0], thr])
    for k in range(m + 1):
        c = ext[k]
        # f1 = min(f, c): thresholds v_1..v_k with the original plateaus
        low = StepDistribution(thr[:k], h[:k])
        # f0 = (f - c)_+: thresholds v_{k+1}-c, ..., v_m - c, plateaus h_k..
        high = StepDistribution(thr[k:] - c, h[k:])
        a[k] = lorentz_norm_of(high, p0, p0)
        b[k] = lorentz_norm_of(low, p1, p1)
    return a, b


def k_functional_upper(f: GridFunction, pair: InterpPair, t: float) -> float:
    """min over truncation cuts of ||f0||_{p0} + t ||f1||_{p1}."""
    if t <= 0:
        raise InterpError(f"t must be positive, got {t}")
    dist = distribution(f, pair.delta)
    if dist.is_zero:
        return 0.0
    a, b = _truncation_lines(dist, pair.p0, pair.p1)
    return float(np.min(a + t * b))


def _envelope_min(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.min(a[None, :] + np.outer(t, b), axis=1)


def _report_t_grid(a: np.ndarray, b: np.ndarray, eta: float, q: float) -> np.ndarray:
    """Geometric t-grid whose truncated tails fall below TAIL_RELATIVE.

    Small t: K <= t ||f||_{p1}, integrand ~ t^{(1-eta)q}; large t:
    K <= ||f||_{p0}, integrand ~ t^{-eta q}.  Cutoffs follow from those
    two closed-form bounds around the crossover t* = ||f||_A0/||f||_A1.
    """
    norm0 = a[0]  # cut c = 0: f0 = f
    norm1 = b[-1]  # cut c = max: f1 = f
    t_star = norm0 / norm1
    lo = t_star * TAIL_RELATIVE ** (1.0 / ((1.0 - eta) * q))
    hi = t_star * TAIL_RELATIVE ** (-1.0 / (eta * q))
    return np.geomspace(lo, hi, T_GRID_POINTS)


def _segment_integral(a: float, b: float, eta: float, q: float, t0: float, t1: float) -> float:
    """int_{t0}^{t1} [t^-eta (a + b t)]^q dt/t, with closed pure-power forms."""
    if a == 0.0:
        e = (1.0 - eta) * q
        return b**q * (t1**e - t0**e) / e
    if b == 0.0:
        e = -eta * q
        return a**q * (t1**e - t0**e) / e
    val, _ = integrate.quad(
        lambda s: (math.exp(-eta * s) * (a + b * math.exp(s))) ** q,
        math.log(t0),
        math.log(t1),
        epsabs=0.0,
        epsrel=1e-10,
        limit=200,
    )
    return val


def _lower_envelope(a: np.ndarray, b: np.ndarray):
    """Lower envelope of the lines t -> a_c + t b_c over t > 0.

    Returns (hull, breaks): the active (intercept, slope) pairs in order
    of increasing t (slopes strictly decreasing) and the crossing points
    between consecutive ones.
    """
    by_slope: dict[float, float] = {}
    for ai, bi in zip(a, b):
        bi, ai = float(bi), float(ai)
        if bi not in by_slope or ai < by_slope[bi]:
            by_slope[bi] = ai
    hull: list[tuple[float, float]] = []
    for bi in sorted(by_slope, reverse=True):  # steepest first: active near t = 0
        ai = by_slope[bi]
        while hull:
            aj, bj = hull[-1]
            if ai <= aj:
                hull.pop()  # smaller slope and intercept: previous line is useless
                continue
            t_new = (ai - aj) / (bj - bi)
            if len(hull) >= 2:
                ak, bk = hull[-2]
                t_prev = (aj - ak) / (bk - bj)
                if t_new <= t_prev:
                    hull.pop()
                    continue
            break
        hull.append((ai, bi))
    breaks = [(a1 - a0) / (b0 - b1) for (a0, b0), (a1, b1) in zip(hull, hull[1:])]
    return hull, breaks


def interpolation_norm(f: GridFunction, pair: InterpPair) -> float:
    """{ int_0^inf [t^-eta K_upper(t)]^q dt/t }^(1/q) on the truncation family."""
    dist = distribution(f, pair.delta)
    if dist.is_zero:
        return 0.0
    a, b = _truncation_lines(dist, pair.p0, pair.p1)
    hull, breaks = _lower_envelope(a, b)
    eta, q = pair.eta, pair.q_interp
    # the envelope must start on the pure-slope line (cut at max f, so
    # f0 = 0) and end on the pure-intercept line (cut 0, f1 = 0), else
    # one of the tails diverges
    if hull[0][0] != 0.0 or hull[-1][1] != 0.0:
        raise InterpError("tail criterion unreachable: envelope tails are not pure powers")
    edges = [0.0] + breaks + [math.inf]
    total = 0.0
    for (ai, bi), t0, t1 in zip(hull, edges[:-1], edges[1:]):
        if t1 == math.inf:
            e = -eta * q
            total += ai**q * (-(t0**e)) / e  # integral from t0 to infinity
        else:
            total += _segment_integral(ai, bi, eta, q, t0, t1)
    return total ** (1.0 / q)


def k_profile(f: GridFunction, pair: InterpPair) -> tuple[np.ndarray, np.ndarray]:
    """(t_grid, K_upper(t)) on the reporting grid."""
    dist = distribution(f, pair.delta)
    if dist.is_zero:
        t = np.geomspace(1e-3, 1e3, T_GRID_POINTS)
        return t, np.zeros_like(t)
    a, b = _truncation_lines(dist, pair.p0, pair.p1)
    t = _report_t_grid(a, b, pair.eta, pair.q_interp)
    return t, _envelope_min(a, b, t)
