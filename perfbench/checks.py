"""Correctness gate: references computed independently of the code under test.

Each check returns a Check.  rel_dev is the largest relative deviation
of a checked output from its reference, so the benchmark can report how
close the outputs sit to their tolerances as well as whether they pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from capnorm import CellSet, content_value

# Gauss-Legendre rule for the envelope segments of the interpolation reference
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_PIECE = 0.5  # widest sub-interval in log t


@dataclass
class Check:
    ok: bool
    rel_dev: float = 0.0
    detail: str = ""


def fail(detail: str) -> Check:
    return Check(False, math.inf, detail)


def rel_dev(value: float, ref: float) -> float:
    value, ref = float(value), float(ref)
    if value == ref:
        return 0.0
    if not (math.isfinite(value) and math.isfinite(ref)):
        return math.inf
    return abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)


def close(value: float, ref: float, tol: float, what: str) -> Check:
    d = rel_dev(value, ref)
    return Check(d <= tol, d, "" if d <= tol else f"{what}: {value!r} vs reference {ref!r}")


def combine(checks: list[Check]) -> Check:
    bad = [c.detail for c in checks if not c.ok]
    dev = max((c.rel_dev for c in checks), default=0.0)
    return Check(not bad, dev, "; ".join(bad))


# distributions ----------------------------------------------------------------


def plateaus_from_scratch(f, delta: float, dist, rng, n: int = 6) -> Check:
    """Plateaus at seeded thresholds equal a from-scratch content of {f > v}.

    plateaus[0] is the content of {f > 0}; plateaus[j] that of
    {f > thresholds[j-1]}.  Equality is bitwise: the DP is deterministic.
    """
    t, h = np.asarray(dist.thresholds), np.asarray(dist.plateaus)
    if t.size == 0 or np.any(np.diff(t) <= 0) or t[0] <= 0:
        return fail(f"thresholds are not positive and increasing (m={t.size})")
    picks = {0} | set(rng.choice(t.size, size=min(n, t.size), replace=False).tolist())
    for j in sorted(picks):
        level = 0.0 if j == 0 else t[j - 1]
        ref = content_value(CellSet(f.grid, f.values > level), delta)
        if h[j] != ref:
            return fail(f"plateau {j} of {t.size}: {h[j]!r} vs from-scratch {ref!r}")
    return Check(True)


def plateaus_lebesgue(values: np.ndarray, cell_volume: float, thresholds, plateaus, rng, n: int = 6) -> Check:
    """At delta = dim (or with Lebesgue measure) plateaus are cell counts times the cell volume."""
    t, h = np.asarray(thresholds), np.asarray(plateaus)
    if t.size == 0 or t.size != h.size or np.any(np.diff(t) <= 0):
        return fail("malformed Lebesgue distribution")
    picks = {0} | set(rng.choice(t.size, size=min(n, t.size), replace=False).tolist())
    for j in sorted(picks):
        level = 0.0 if j == 0 else t[j - 1]
        ref = int(np.count_nonzero(values > level)) * cell_volume
        if h[j] != ref:
            return fail(f"Lebesgue plateau {j}: {h[j]!r} vs count {ref!r}")
    return Check(True)


# closed forms on a step distribution, written out independently ------------------


def _widths(t: np.ndarray, power: float) -> np.ndarray:
    """t_j^power - t_{j-1}^power with t_{-1} = 0."""
    tp = t**power
    return tp - np.concatenate([[0.0], tp[:-1]])


def lorentz_ref(t, h, p: float, q: float) -> float:
    t, h = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
    if t.size == 0:
        return 0.0
    if q == math.inf:
        return float(np.max(t * h ** (1.0 / p)))
    return float(p / q * np.sum(_widths(t, q) * h ** (q / p))) ** (1.0 / q)


def p_norm_ref(t, h, p: float) -> float:
    t, h = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
    if t.size == 0:
        return 0.0
    return float(np.sum(_widths(t, p) * h)) ** (1.0 / p)


def dyadic_ref(t, h, p: float, q: float) -> float:
    """sum over integers i of 2^{iq} h(2^i)^{q/p}, summed term by term.

    Levels below the smallest threshold all see plateau h_0; 80 of them
    are summed explicitly, which leaves a tail below 2^{-80 q} relative.
    """
    t, h = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
    if t.size == 0:
        return 0.0
    top = math.ceil(math.log2(t[-1])) + 1
    bottom = math.floor(math.log2(t[0])) - 80
    lam = np.ldexp(1.0, np.arange(bottom, top + 1))
    j = np.searchsorted(t, lam, side="right")
    heights = np.where(j < t.size, h[np.minimum(j, t.size - 1)], 0.0)
    if q == math.inf:
        return float(np.max(lam * heights ** (1.0 / p)))
    return float(np.sum(lam**q * heights ** (q / p))) ** (1.0 / q)


# interpolation ------------------------------------------------------------------


def truncation_lines_ref(t, h, p0: float, p1: float) -> tuple[np.ndarray, np.ndarray]:
    """(||(f - c)_+||_{p0}, ||min(f, c)||_{p1}) for the cuts c in {0} u thresholds."""
    t, h = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
    m = t.size
    cuts = np.concatenate([[0.0], t])
    low = np.concatenate([[0.0], np.cumsum(_widths(t, p1) * h)]) ** (1.0 / p1)
    high = np.empty(m + 1)
    for k, c in enumerate(cuts):
        high[k] = p_norm_ref(t[k:] - c, h[k:], p0)
    return high, low


def envelope_ref(a: np.ndarray, b: np.ndarray) -> tuple[list[int], list[float]]:
    """Walk the lower envelope of t -> a_k + t b_k from t = 0 to infinity."""
    cur = int(np.lexsort((b, a))[0])  # smallest intercept, then smallest slope
    hull, breaks = [cur], []
    while True:
        cand = np.flatnonzero(b < b[cur])
        if cand.size == 0:
            return hull, breaks
        cross = (a[cand] - a[cur]) / (b[cur] - b[cand])
        first = cand[cross == cross.min()]
        cur = int(first[np.argmin(b[first])])
        hull.append(cur)
        breaks.append(float(cross.min()))


def _segment_ref(a: float, b: float, eta: float, q: float, s0: float, s1: float) -> float:
    pieces = max(1, math.ceil((s1 - s0) / _GL_PIECE))
    edges = np.linspace(s0, s1, pieces + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        s = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * float(np.dot(_GL_WEIGHTS, (np.exp(-eta * s) * (a + b * np.exp(s))) ** q))
    return total


def interpolation_ref(t, h, p0: float, p1: float, eta: float, q: float) -> float:
    """{int_0^inf [t^-eta K(t)]^q dt/t}^(1/q) on the envelope of the truncation lines."""
    if np.asarray(t).size == 0:
        return 0.0
    a, b = truncation_lines_ref(t, h, p0, p1)
    hull, breaks = envelope_ref(a, b)
    first, last = hull[0], hull[-1]
    if a[first] != 0.0 or b[last] != 0.0:
        return math.nan
    # pure-power tails in closed form, quadrature in log t in between
    total = b[first] ** q * breaks[0] ** ((1.0 - eta) * q) / ((1.0 - eta) * q)
    total += a[last] ** q * breaks[-1] ** (-eta * q) / (eta * q)
    for k, t0, t1 in zip(hull[1:-1], breaks[:-1], breaks[1:]):
        total += _segment_ref(a[k], b[k], eta, q, math.log(t0), math.log(t1))
    return total ** (1.0 / q)


def k_values_ref(t, h, p0: float, p1: float, t_grid) -> np.ndarray:
    a, b = truncation_lines_ref(t, h, p0, p1)
    return np.min(a[None, :] + np.outer(np.asarray(t_grid), b), axis=1)
