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
So, as in `choquet`, the closed forms `interpolation_norm_of` and
`k_profile_of` take that distribution; `interpolation_norm` and
`k_profile` are one-line front ends that build it from f.

The truncation norms of all m + 1 cuts come from a prefix sum (f1) and
Abel sums in row blocks of bounded size (f0).  There an endpoint norm
||f||_p0 or ||f||_p1 outside double precision is refused by name, for
K(t), its profile and the interpolation norm alike.

The interpolation norm integrates [t^-eta K(t)]^q dt/t on that envelope:
closed forms on the two pure-power tails, and between envelope
breakpoints one fixed panelled Gauss-Legendre rule in s = ln t, whose
difference from a lower-order rule is an error estimate checked against
QUAD_RTOL.  A 64-point geometric t-grid (tails below 1e-6 relative by
construction) is kept for reporting K(t) series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .choquet import StepDistribution, checked_norm, distribution
from .grid import GridFunction, positive_finite

T_GRID_POINTS = 64
TAIL_RELATIVE = 1e-6
LINE_BLOCK = 1 << 18  # elements of one Abel-sum block in _truncation_lines
GL_LOW, GL_HIGH = 10, 20  # the estimate rule and the value rule
QUAD_RTOL = 1e-10  # largest accepted error estimate, relative to the total
QUAD_PANEL_LIMIT = 1 << 20  # panels of one quadrature; each holds GL_HIGH + GL_LOW nodes


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


@np.errstate(all="ignore")  # the endpoint norms are checked
def _truncation_lines(dist: StepDistribution, p0: float, p1: float) -> tuple[np.ndarray, np.ndarray]:
    """Norm pairs (a_c, b_c) = (||(f-c)+||_{p0}, ||min(f,c)||_{p1}) over all cuts.

    Cuts sweep c = v_k for k = 0..m with v_0 = 0; c = v_m already gives
    f0 = 0, so the c = infinity splitting is included.  f1 keeps the
    plateaus of v_1..v_k, so b_k^{p1} is a prefix sum.  By Abel summation
    a_k^{p0} = sum_{j>k} (v_j - v_k)^{p0} w_j with w_j = h_{j-1} - h_j >= 0
    (h_m = 0), summed over row blocks of at most LINE_BLOCK elements whose
    columns start after the block's first row, so the lower triangle is
    mostly skipped.  The endpoint norms a_0 = ||f||_{p0} and b_m = ||f||_{p1}
    of the nonzero dist must be positive and finite, else InterpError.
    """
    h = dist.plateaus
    m = h.size
    v = np.concatenate([[0.0], dist.thresholds])
    b = np.concatenate([[0.0], np.cumsum(np.diff(v**p1) * h)]) ** (1.0 / p1)
    w = -np.diff(np.concatenate([[h[0]], h, [0.0]]))  # w_0 = 0: no cut lies below v_0
    a = np.zeros(m + 1)  # a_m = 0: f0 vanishes
    buf = np.empty(max(LINE_BLOCK, m))  # one row of m columns when m > LINE_BLOCK
    k0 = 0
    while k0 < m:
        cols = m - k0  # j = k0 + 1 .. m
        k1 = min(m, k0 + max(1, LINE_BLOCK // cols))
        d = buf[: (k1 - k0) * cols].reshape(k1 - k0, cols)
        np.subtract(v[None, k0 + 1 :], v[k0:k1, None], out=d)
        np.maximum(d, 0.0, out=d)  # j <= k contributes nothing
        np.power(d, p0, out=d)
        a[k0:k1] = d @ w[k0 + 1 :]
        k0 = k1
    a **= 1.0 / p0
    for name, p, norm in (("p0", p0, a[0]), ("p1", p1, b[-1])):
        if not (0 < norm < math.inf):
            raise InterpError(f"the endpoint norm ||f||_{name} at {name}={p:g} is not finite "
                              "and positive in double precision")
    return a, b


def k_functional_upper(f: GridFunction, pair: InterpPair, t: float) -> float:
    """min over truncation cuts of ||f0||_{p0} + t ||f1||_{p1}, for t in (0, inf)."""
    t = positive_finite("t", t, InterpError)
    dist = distribution(f, pair.delta)
    if dist.is_zero:
        return 0.0
    a, b = _truncation_lines(dist, pair.p0, pair.p1)
    return float(np.min(a + t * b))


def _report_t_grid(a: np.ndarray, b: np.ndarray, pair: InterpPair) -> np.ndarray:
    """Geometric t-grid whose truncated tails fall below TAIL_RELATIVE.

    Small t: K <= t ||f||_{p1}, integrand ~ t^{(1-eta)q}; large t:
    K <= ||f||_{p0}, integrand ~ t^{-eta q}.  Cutoffs follow from those
    two closed-form bounds around the crossover t* = ||f||_A0/||f||_A1,
    both norms positive and finite by `_truncation_lines`.  A cutoff
    outside double precision (a small eta q or (1 - eta) q) is an
    InterpError.
    """
    eta, q = pair.eta, pair.q_interp
    norm0 = float(a[0])  # cut c = 0: f0 = f
    norm1 = float(b[-1])  # cut c = max: f1 = f
    t_star = norm0 / norm1
    lo = t_star * TAIL_RELATIVE ** (1.0 / ((1.0 - eta) * q))
    try:
        hi = t_star * TAIL_RELATIVE ** (-1.0 / (eta * q))
    except OverflowError:  # a float power raises where numpy's returns inf
        hi = math.inf
    # every line a_c + t b_c is at most norm0 + t norm1, so K stays finite on the grid
    if not (lo > 0 and norm0 + hi * norm1 < math.inf):
        raise InterpError(f"the report t-grid at eta={eta:g}, q={q:g} leaves double precision")
    return np.geomspace(lo, hi, T_GRID_POINTS)


def _interior_integrals(a, b, eta: float, q: float, t0, t1) -> tuple[np.ndarray, float]:
    """int_{t0}^{t1} [t^-eta (a + b t)]^q dt/t per segment, and the summed error estimate.

    In s = ln t the integrand's log-slope lies in [-eta q, (1-eta) q], so a
    panel of s-length L <= 1 / max(1, q max(eta, 1-eta)) changes it by at
    most a factor e, and its nearest complex singularity (Im s = pi) stays
    far from the panel.  All panels of all segments share one GL_HIGH-point
    rule, the value, and one GL_LOW-point rule; the summed |difference| is
    the estimate.  One bincount per rule sums the panels per segment.  More
    than QUAD_PANEL_LIMIT panels in all (a huge q) is an InterpError,
    raised before any node is placed.
    """
    a, b, s0, s1 = (np.asarray(x, dtype=np.float64) for x in (a, b, np.log(t0), np.log(t1)))
    panels = np.maximum(1, np.ceil((s1 - s0) * max(1.0, q * max(eta, 1.0 - eta))))
    if not panels.sum() <= QUAD_PANEL_LIMIT:  # NaN breaks fail too
        raise InterpError(f"the quadrature at eta={eta:g}, q={q:g} needs {panels.sum():.3g} panels, "
                          f"above QUAD_PANEL_LIMIT = {QUAD_PANEL_LIMIT}")
    panels = panels.astype(np.int64)
    seg = np.repeat(np.arange(a.size), panels)
    first = np.cumsum(panels) - panels  # panel index at which each segment starts
    width = ((s1 - s0) / panels)[seg]
    left = s0[seg] + (np.arange(seg.size) - first[seg]) * width
    sums = []
    for order in (GL_HIGH, GL_LOW):
        x, wt = leggauss(order)
        s = left[:, None] + 0.5 * width[:, None] * (x + 1.0)
        g = (np.exp(-eta * s) * (a[seg, None] + b[seg, None] * np.exp(s))) ** q
        sums.append(np.bincount(seg, weights=0.5 * width * (g @ wt), minlength=a.size))
    return sums[0], float(np.sum(np.abs(sums[0] - sums[1])))


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


def interpolation_norm_of(dist: StepDistribution, pair: InterpPair) -> float:
    """{ int_0^inf [t^-eta K_upper(t)]^q dt/t }^(1/q) on the truncation family of dist.

    Returns through choquet's `checked_norm` at (pair.p, q): 0.0 for f = 0,
    and an ExponentError where a power past the endpoint norms leaves
    double precision.
    """
    eta, q = pair.eta, pair.q_interp

    def closed_form():
        a, b = _truncation_lines(dist, pair.p0, pair.p1)
        hull, breaks = _lower_envelope(a, b)
        # the envelope must start on the pure-slope line (cut at max f, so
        # f0 = 0) and end on the pure-intercept line (cut 0, f1 = 0), else
        # one of the tails diverges
        if hull[0][0] != 0.0 or hull[-1][1] != 0.0:
            raise InterpError("tail criterion unreachable: envelope tails are not pure powers")
        if not breaks:  # the one line (0, 0): every truncation norm underflowed, K vanishes
            return 0.0
        e0, e1 = (1.0 - eta) * q, eta * q
        # pure powers on the tails: b^q t^e0 below the first break, a^q t^-e1 above the last
        head = hull[0][1] ** q * breaks[0] ** e0 / e0
        tail = hull[-1][0] ** q * breaks[-1] ** -e1 / e1
        inner, estimate = _interior_integrals(
            [ai for ai, _ in hull[1:-1]], [bi for _, bi in hull[1:-1]], eta, q, breaks[:-1], breaks[1:]
        )
        total = head + float(np.sum(inner)) + tail
        if estimate > QUAD_RTOL * total:
            raise InterpError(f"quadrature error estimate {estimate:.3g} exceeds {QUAD_RTOL:g} of the total {total:.6g}")
        return total ** (1.0 / q)

    return checked_norm("interpolation norm", dist, pair.p, q, closed_form)


def k_profile_of(dist: StepDistribution, pair: InterpPair) -> tuple[np.ndarray, np.ndarray]:
    """(t_grid, K_upper(t)) of dist on the reporting grid."""
    if dist.is_zero:
        t = np.geomspace(1e-3, 1e3, T_GRID_POINTS)
        return t, np.zeros_like(t)
    a, b = _truncation_lines(dist, pair.p0, pair.p1)
    t = _report_t_grid(a, b, pair)
    return t, np.min(a[None, :] + np.outer(t, b), axis=1)


def interpolation_norm(f: GridFunction, pair: InterpPair) -> float:
    return interpolation_norm_of(distribution(f, pair.delta), pair)


def k_profile(f: GridFunction, pair: InterpPair) -> tuple[np.ndarray, np.ndarray]:
    return k_profile_of(distribution(f, pair.delta), pair)
