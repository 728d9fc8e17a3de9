"""Experiment runners for the inequality checks and sharpness scalings.

Every experiment is one pattern: sweep grid depths (or truncation radii),
compute the two sides of one inequality with the exact norm machinery,
and emit a self-contained ExperimentReport: full parameter record,
(label, value) series, a pass/fail verdict, and a config hash.
Re-running with the embedded parameters reproduces the series
bit-identically.

Two skeletons carry the pattern.  _ratio_sweep runs the depth sweep of
poincare, poincare_weak, poincare_sobolev, riesz_bound and maximal_bound:
each runner validates its exponents, records its params and passes a
per-depth sides function.  _eps_sweep runs the truncation sweep of the
two sharpness runners and fits the log-log slope.  compact_support and
hedberg keep their own loops.  All seven depth runners record their
depths through _depth_list, which refuses an empty or non-increasing
list.  EXPERIMENTS declares each experiment once for the CLI: its
runner's name and the defaults the signature lacks.

Every side is one Lorentz norm, ``lorentz_norm`` at some (p, q, delta);
a plain p-norm is the (p, p) case.  One rule, _improved_exponents, gives
the two sides of the Sobolev-Poincare (order alpha = 1) and Riesz
(order alpha) inequalities, with its delta/dim endpoint; the gradient
sides call the riesz_* window formulas at alpha = 1.0.

Stability verdicts operationalize existential constants: the measured
left/right ratio may grow by at most GROWTH_FACTOR_LIMIT per grid
refinement across the sweep.  A genuinely unbounded constant grows
geometrically in the cell size, which this catches; a convergent ratio
passes with margin.

The infimum over the shift b is evaluated at the mean value over the
John ball; a golden-section scan over b runs alongside as a diagnostic
and must not beat the ball mean by more than a factor two.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .choquet import LorentzExponents, lorentz_norm
from .domains import JohnDomain, Shape, make_john_domain, mean_value, mean_value_ball
from .grid import DyadicGrid, GridFunction, Sampler, gradient_magnitude, make_grid, sample
from .operators import MaximalParams, RieszParams, hedberg_ratio_field, maximal, riesz

GROWTH_FACTOR_LIMIT = 1.2
SLOPE_TOLERANCE = 0.05
RHS_VARIATION_LIMIT = 0.10
HEDBERG_STABILITY = 0.20
B_SCAN_FACTOR = 2.0
# Second index of the uniform-boundedness norm in sharpness runs: the weak
# norm (q = inf) is the member of the Lorentz family whose truncation tails
# converge fastest, so the uniformity claim is visible at moderate
# truncation radii; finite values can be configured.
DEFAULT_QT = math.inf


class VerifyError(ValueError):
    """An exponent constraint of a check is violated (reported by name)."""


# exponent windows -----------------------------------------------------------


def riesz_left_exponent(p: float, delta: float, mu: float, alpha: float) -> float:
    """Target exponent p(delta - mu p)/(delta - alpha p) of the left norm."""
    return p * (delta - mu * p) / (delta - p * alpha)


def riesz_right_q(q: float, p: float, delta: float, mu: float, alpha: float) -> float:
    """Second index q(delta - alpha p)/(delta - mu p) of the right norm."""
    return q * (delta - p * alpha) / (delta - mu * p)


def riesz_q_lower(p: float, delta: float, mu: float, alpha: float, dim: int) -> float:
    """Lower admissibility bound delta(delta - mu p)/(dim (delta - alpha p)) for q."""
    return delta * (delta - mu * p) / (dim * (delta - p * alpha))


def _improved_exponents(
    p: float, q: Optional[float], delta: float, mu: float, alpha: float, dim: int
) -> tuple[LorentzExponents, LorentzExponents]:
    """Checked (left, right) exponents of an improved inequality of order alpha.

    alpha = 1 for the gradient, alpha for the Riesz potential.  Needs mu
    in [0, alpha).  Main branch: p in (delta/dim, delta/alpha) and q
    above riesz_q_lower; left L^{riesz_left_exponent, q} over the content
    of exponent delta - mu p, right L^{p, riesz_right_q} over delta.
    Endpoint p = delta/dim: the left norm is weak (q = inf) and the right
    one the p-norm L^{p, p}; q is not read.
    """
    if not (0 <= mu < alpha):
        raise VerifyError(f"mu must be in [0, {alpha:g}), got {mu}")
    endpoint = p == delta / dim
    if not endpoint and not (delta / dim < p < delta / alpha):
        raise VerifyError(
            f"p must be delta/dim or in (delta/dim, delta/alpha) = "
            f"({delta / dim:g}, {delta / alpha:g}), got {p}"
        )
    left_p = riesz_left_exponent(p, delta, mu, alpha)
    left_delta = delta - mu * p
    if endpoint:
        return LorentzExponents(left_p, math.inf, left_delta), LorentzExponents(p, p, delta)
    q_lo = riesz_q_lower(p, delta, mu, alpha, dim)
    if q is None or not (q_lo < q < math.inf):
        raise VerifyError(f"q must be in ({q_lo:g}, inf), got {q}")
    right = LorentzExponents(p, riesz_right_q(q, p, delta, mu, alpha), delta)
    return LorentzExponents(left_p, q, left_delta), right


def gradient_eta_window(p: float, s: float, delta: float, mu: float) -> tuple[float, float]:
    """Admissible (open, closed] exponent window for the gradient blow-up family."""
    return (1.0 - delta / p, -(delta - mu * p) / s)


def gradient_slope_prediction(eta: float, p: float, s: float, delta: float, mu: float) -> float:
    return eta + (delta - mu * p) / s


def riesz_eta_window(p: float, s: float, delta: float, mu: float, alpha: float) -> tuple[float, float]:
    """Open exponent window for the Riesz blow-up family."""
    return (-delta / p, -(delta - mu * p) / s - alpha)


def riesz_blowup_prediction(eta: float, p: float, s: float, delta: float, mu: float, alpha: float) -> float:
    return eta + alpha + (delta - mu * p) / s


# report infrastructure ------------------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(ys) against log(xs)."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> SlopeFit:
    xs = tuple(float(x) for x in xs)
    ys = tuple(float(y) for y in ys)
    if len(xs) < 4:
        raise VerifyError(f"slope fit needs at least 4 points, got {len(xs)}")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise VerifyError("slope fit needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residual**2)) / ss_tot
    return SlopeFit(xs=xs, ys=ys, slope=float(slope), intercept=float(intercept), r_squared=r2)


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    params: dict
    series: tuple[tuple[str, float], ...]
    verdict: bool
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "series": [[label, value] for label, value in self.series],
            "verdict": self.verdict,
            "provenance": self.provenance,
        }


def config_hash(params: dict) -> str:
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()


def _report(experiment: str, params: dict, series, verdict: bool) -> ExperimentReport:
    return ExperimentReport(
        experiment=experiment,
        params=params,
        series=tuple((str(k), float(v)) for k, v in series),
        verdict=bool(verdict),
        provenance={"version": __version__, "config_hash": config_hash(params)},
    )


def growth_factors_ok(ratios: Sequence[float]) -> bool:
    """All ratios finite; consecutive growth below GROWTH_FACTOR_LIMIT; zeros pass."""
    if any(not math.isfinite(r) for r in ratios):
        return False
    for prev, cur in zip(ratios, ratios[1:]):
        if prev == 0.0:
            if cur != 0.0:
                return False
            continue
        if cur / prev >= GROWTH_FACTOR_LIMIT:
            return False
    return True


def _depth_list(depths: Sequence[int]) -> list:
    """The depths of a sweep as a list: at least one, strictly increasing."""
    depths = list(depths)
    if not depths or any(a >= b for a, b in zip(depths, depths[1:])):
        raise VerifyError(f"depths must be a nonempty strictly increasing list, got {depths}")
    return depths


def _safe_ratio(lhs: float, rhs: float, what: str) -> float:
    if lhs == 0.0:
        return 0.0
    if rhs == 0.0:
        raise VerifyError(f"{what}: right side vanished while the left side is {lhs:g}")
    return lhs / rhs


def _golden_min(fun: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section scan of 60 steps; returns the minimal observed value."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return min(fc, fd)


# sweep skeletons ------------------------------------------------------------


def _ratio_sweep(experiment: str, params: dict, sides: Callable[[int], tuple]) -> ExperimentReport:
    """Over params["depths"]: sides(depth) = (lhs, rhs, *extra entries); ratios judged by growth."""
    series, ratios = [], []
    for depth in params["depths"]:
        lhs, rhs, *extra = sides(depth)
        ratio = _safe_ratio(lhs, rhs, experiment)
        ratios.append(ratio)
        series += [(f"lhs@d{depth}", lhs), (f"rhs@d{depth}", rhs), (f"ratio@d{depth}", ratio), *extra]
    return _report(experiment, params, series, growth_factors_ok(ratios))


def _eps_sweep(
    experiment: str,
    params: dict,
    predicted_key: str,
    fields: Callable[[DyadicGrid, float], tuple[GridFunction, GridFunction]],
    slope_ok: Callable[[float, float], bool],
) -> tuple[SlopeFit, ExperimentReport]:
    """Over params["eps_list"] on one grid: fields(grid, eps) = (left, right) grid functions.

    Their norms are the sides, in L^{s,q} over the content of exponent
    delta - mu p and in L^{p,qt}.  The verdict needs slope_ok(fitted slope,
    predicted) and a right-side variation below RHS_VARIATION_LIMIT.
    """
    grid = make_grid(params["dim"], params["depth"], params["root_side"])
    delta, p = params["delta"], params["p"]
    left = LorentzExponents(params["s"], params["q"], delta - params["mu"] * p)
    right = LorentzExponents(p, params["qt"], delta)
    lhs_vals, rhs_vals, series = [], [], []
    for eps in params["eps_list"]:
        left_fn, right_fn = fields(grid, eps)
        lhs, rhs = lorentz_norm(left_fn, left), lorentz_norm(right_fn, right)
        lhs_vals.append(lhs)
        rhs_vals.append(rhs)
        series += [(f"lhs@eps={eps:g}", lhs), (f"rhs@eps={eps:g}", rhs)]
    fit = fit_loglog(params["eps_list"], lhs_vals)
    predicted = params[predicted_key]
    rhs_variation = max(rhs_vals) / min(rhs_vals) - 1.0
    series += [("fitted_slope", fit.slope), (predicted_key, predicted),
               ("r_squared", fit.r_squared), ("rhs_variation", rhs_variation)]
    verdict = slope_ok(fit.slope, predicted) and rhs_variation < RHS_VARIATION_LIMIT
    return fit, _report(experiment, params, series, verdict)


# shared geometry ------------------------------------------------------------


def _domain_at_depth(shape: Shape, depth: int, root_side=None) -> JohnDomain:
    origin = None
    if root_side is None:  # the smallest origin-centred root holding the shape
        lo, hi = shape.bounding_box()
        root_side = 2.0 * float(max(np.max(np.abs(lo)), np.max(np.abs(hi))))
        origin = (-root_side / 2.0,) * shape.dim
    return make_john_domain(shape, make_grid(shape.dim, depth, root_side, origin))


def _domain_params(shape: Shape, sampler: Sampler, **record) -> dict:
    """Params of a run on a John domain: its arguments, John constants and growth limit."""
    alpha_john, beta_john, x0 = shape.john_constants()
    return {
        "shape": repr(shape), "sampler": repr(sampler), **record,
        "alpha_john": alpha_john, "beta_john": beta_john, "john_center": list(x0),
        "growth_limit": GROWTH_FACTOR_LIMIT,
    }


def _poincare_sides(
    shape: Shape, u: Sampler, depth: int, c_ball: float, root_side
) -> tuple[JohnDomain, GridFunction, GridFunction]:
    """(domain, |u - u_B| on the domain, |grad u| on the domain) at one depth."""
    domain = _domain_at_depth(shape, depth, root_side)
    ball = mean_value_ball(domain, c_ball)
    grid = domain.grid
    raw = u.evaluate(grid.centers()).reshape(grid.shape)
    if np.ptp(raw[domain.cells.mask]) == 0.0:
        u_ball = float(raw[domain.cells.mask].flat[0]) if domain.cells.count else 0.0
    else:
        u_ball = mean_value(raw, grid, ball, within=domain.cells)
    w = np.where(domain.cells.mask, np.abs(raw - u_ball), 0.0)
    diff = GridFunction(grid, w)
    grad = gradient_magnitude(u, grid).restrict(domain.cells)
    return domain, diff, grad


def _john_factor(domain: JohnDomain) -> float:
    """beta (beta/alpha)^{2 dim}, the John weight of the gradient side."""
    return domain.beta_john * (domain.beta_john / domain.alpha_john) ** (2 * domain.grid.dim)


def _b_scan_ok(domain: JohnDomain, u: Sampler, exps: LorentzExponents, lhs: float) -> float:
    """1.0 unless some shift b beats the ball mean by more than B_SCAN_FACTOR."""
    grid = domain.grid
    raw = u.evaluate(grid.centers()).reshape(grid.shape)
    vals = raw[domain.cells.mask]

    def norm_at(b):
        w = np.where(domain.cells.mask, np.abs(raw - b), 0.0)
        return lorentz_norm(GridFunction(grid, w), exps)

    best = _golden_min(norm_at, float(vals.min()), float(vals.max()))
    return float(lhs <= B_SCAN_FACTOR * best + 1e-12)


# experiments ----------------------------------------------------------------


def poincare_check(
    shape: Shape,
    sampler: Sampler,
    delta: float,
    p: float,
    q: float,
    depths: Sequence[int],
    c_ball: float = 0.25,
    root_side: Optional[float] = None,
    b_scan: bool = True,
) -> ExperimentReport:
    """Mean-oscillation norm against the John-weighted gradient norm.

    Ratio R = ||u - u_B||_{p,q,delta} / (beta (beta/alpha)^{2 dim}
    ||grad u||_{p,q,delta}) per depth; passes when finite and growing by
    less than the stability limit per refinement.
    """
    dim = shape.dim
    if not (delta / dim < p < math.inf):
        raise VerifyError(f"p must be in (delta/dim, inf) = ({delta / dim:g}, inf), got {p}")
    if not (delta / dim < q < math.inf):
        raise VerifyError(f"q must be in (delta/dim, inf) = ({delta / dim:g}, inf), got {q}")
    exps = LorentzExponents(p, q, delta)

    def sides(depth):
        domain, diff, grad = _poincare_sides(shape, sampler, depth, c_ball, root_side)
        lhs = lorentz_norm(diff, exps)
        rhs = _john_factor(domain) * lorentz_norm(grad, exps)
        if not (b_scan and lhs > 0):
            return lhs, rhs
        # diagnostic only: recorded after the ratio, never gates the verdict
        return lhs, rhs, (f"b_scan_ok@d{depth}", _b_scan_ok(domain, sampler, exps, lhs))

    params = _domain_params(shape, sampler, delta=delta, p=p, q=q,
                            depths=_depth_list(depths), c_ball=c_ball, root_side=root_side)
    return _ratio_sweep("poincare", params, sides)


def poincare_weak_check(
    shape: Shape,
    sampler: Sampler,
    delta: float,
    p: float,
    depths: Sequence[int],
    c_ball: float = 0.25,
    root_side: Optional[float] = None,
) -> ExperimentReport:
    """Endpoint p = delta/dim: weak norm on the left, plain p-norm on the right."""
    if p != delta / shape.dim:
        raise VerifyError(f"endpoint check requires p = delta/dim = {delta / shape.dim:g}, got {p}")
    weak, strong = LorentzExponents(p, math.inf, delta), LorentzExponents(p, p, delta)

    def sides(depth):
        domain, diff, grad = _poincare_sides(shape, sampler, depth, c_ball, root_side)
        return lorentz_norm(diff, weak), _john_factor(domain) * lorentz_norm(grad, strong)

    params = _domain_params(shape, sampler, delta=delta, p=p, depths=_depth_list(depths),
                            c_ball=c_ball, root_side=root_side)
    return _ratio_sweep("poincare_weak", params, sides)


def poincare_sobolev_check(
    shape: Shape,
    sampler: Sampler,
    mu: float,
    delta: float,
    p: float,
    q: Optional[float],
    depths: Sequence[int],
    c_ball: float = 0.25,
    root_side: Optional[float] = None,
) -> ExperimentReport:
    """Sobolev-improved oscillation norm over the lowered content dimension.

    The sides are those of _improved_exponents at alpha = 1: main branch
    p in (delta/dim, delta), endpoint p = delta/dim.
    """
    left, right = _improved_exponents(p, q, delta, mu, 1.0, shape.dim)

    def sides(depth):
        _, diff, grad = _poincare_sides(shape, sampler, depth, c_ball, root_side)
        return lorentz_norm(diff, left), lorentz_norm(grad, right)

    params = _domain_params(shape, sampler, mu=mu, delta=delta, p=p, q=q, left_p=left.p,
                            left_delta=left.delta, depths=_depth_list(depths), c_ball=c_ball,
                            root_side=root_side, endpoint=p == delta / shape.dim)
    return _ratio_sweep("poincare_sobolev", params, sides)


def compact_support_check(
    shape: Shape,
    sampler: Sampler,
    delta: float,
    p: float,
    q: float,
    mu: float,
    depths: Sequence[int],
    root_side: Optional[float] = None,
) -> ExperimentReport:
    """Shift-free bounds for functions supported strictly inside the domain.

    Four variants per depth: strong (diam-weighted gradient), its weak
    endpoint at p = delta/dim, the Sobolev form, and its weak endpoint.
    The sampled support must keep a margin of at least 2 cells inside
    the domain boundary.
    """
    from scipy import ndimage

    dim = shape.dim
    if not (delta / dim < p < delta):
        raise VerifyError(f"p must be in (delta/dim, delta) = ({delta / dim:g}, {delta:g}), got {p}")
    if not (delta / dim < q < math.inf):
        raise VerifyError(f"q must be in (delta/dim, inf), got {q}")
    if not (0 <= mu < 1):
        raise VerifyError(f"mu must be in [0, 1), got {mu}")
    p_end = delta / dim
    diam = shape.diameter
    params = _domain_params(shape, sampler, delta=delta, p=p, q=q, mu=mu,
                            depths=_depth_list(depths), root_side=root_side, diam=diam)
    strong, p_norm = LorentzExponents(p, q, delta), LorentzExponents(p_end, p_end, delta)
    # variant -> (exponents of f's norm, gradient factor, exponents of the gradient's norm)
    variants = {
        "strong": (strong, diam, strong),
        "weak": (LorentzExponents(p_end, math.inf, delta), diam, p_norm),
        "sobolev": (LorentzExponents(riesz_left_exponent(p, delta, mu, 1.0), q, delta - mu * p),
                    1.0, LorentzExponents(p, riesz_right_q(q, p, delta, mu, 1.0), delta)),
        "sobolev_weak": (LorentzExponents(riesz_left_exponent(p_end, delta, mu, 1.0), math.inf,
                                          delta - mu * p_end), 1.0, p_norm),
    }
    per_variant = {v: [] for v in variants}
    series = []
    for depth in params["depths"]:
        domain = _domain_at_depth(shape, depth, root_side)
        grid = domain.grid
        f = sample(sampler, grid)
        box = np.ones((3,) * grid.dim, dtype=bool)  # sup-norm margin
        grown = ndimage.binary_dilation(f.support.mask, structure=box, iterations=2)
        if not np.all(~grown | domain.cells.mask):
            raise VerifyError("support touches the domain boundary (needs a 2-cell margin)")
        grad = gradient_magnitude(sampler, grid).restrict(domain.cells)
        fr = f.restrict(domain.cells)
        for v, (left, factor, right) in variants.items():
            lhs, rhs = lorentz_norm(fr, left), factor * lorentz_norm(grad, right)
            ratio = _safe_ratio(lhs, rhs, f"compact_support {v}")
            per_variant[v].append(ratio)
            series.append((f"{v}@d{depth}", ratio))
    verdict = all(growth_factors_ok(ratios) for ratios in per_variant.values())
    return _report("compact_support", params, series, verdict)


def riesz_boundedness_check(
    sampler: Sampler,
    alpha: float,
    mu: float,
    delta: float,
    p: float,
    q: Optional[float],
    depths: Sequence[int],
    dim: int = 2,
    root_side: float = 2.0,
) -> ExperimentReport:
    """Riesz potential norm over the lowered content against the source norm."""
    if not (0 < alpha < dim):
        raise VerifyError(f"alpha must be in (0, dim), got {alpha}")
    left, right = _improved_exponents(p, q, delta, mu, alpha, dim)

    def sides(depth):
        ff = sample(sampler, make_grid(dim, depth, root_side))
        return lorentz_norm(riesz(ff, RieszParams(alpha)), left), lorentz_norm(ff, right)

    params = {
        "sampler": repr(sampler), "alpha": alpha, "mu": mu, "delta": delta, "p": p, "q": q,
        "left_p": left.p, "left_delta": left.delta, "depths": _depth_list(depths),
        "dim": dim, "root_side": root_side, "endpoint": p == delta / dim,
        "growth_limit": GROWTH_FACTOR_LIMIT,
    }
    return _ratio_sweep("riesz_bound", params, sides)


def maximal_inequality_check(
    sampler: Sampler,
    delta: float,
    mu: float,
    p: float,
    s: float,
    r: float,
    depths: Sequence[int],
    dim: int = 2,
    root_side: float = 2.0,
) -> ExperimentReport:
    """Fractional maximal operator between Lorentz-content norms."""
    p_hi = math.inf if mu == 0 else delta / mu
    if not (delta / dim < p < p_hi):
        raise VerifyError(f"p must be in (delta/dim, delta/mu) = ({delta / dim:g}, {p_hi:g}), got {p}")
    if not (delta / dim < r < math.inf):
        raise VerifyError(f"r must be in (delta/dim, inf) = ({delta / dim:g}, inf), got {r}")
    if not (0 < s <= r):
        raise VerifyError(f"s must be in (0, r] = (0, {r:g}], got {s}")
    left_delta = delta - mu * p

    def sides(depth):
        ff = sample(sampler, make_grid(dim, depth, root_side))
        mf = maximal(ff, MaximalParams(mu))
        lhs = lorentz_norm(mf, LorentzExponents(p, r, left_delta))
        return lhs, lorentz_norm(ff, LorentzExponents(p, s, delta))

    params = {
        "sampler": repr(sampler), "delta": delta, "mu": mu, "p": p, "s": s, "r": r,
        "left_delta": left_delta, "depths": _depth_list(depths), "dim": dim,
        "root_side": root_side, "growth_limit": GROWTH_FACTOR_LIMIT,
    }
    return _ratio_sweep("maximal_bound", params, sides)


def hedberg_constant_check(
    sampler: Sampler,
    alpha: float,
    mu: float,
    delta: float,
    p: float,
    q: float,
    depths: Sequence[int],
    dim: int = 2,
    root_side: float = 2.0,
) -> ExperimentReport:
    """Sup over the grid of the pointwise Riesz-by-maximal ratio, per depth."""
    params = {
        "sampler": repr(sampler), "alpha": alpha, "mu": mu, "delta": delta, "p": p, "q": q,
        "depths": _depth_list(depths), "dim": dim, "root_side": root_side,
        "stability": HEDBERG_STABILITY,
    }
    exps = LorentzExponents(p, q, delta)
    sups = []
    series = []
    for depth in params["depths"]:
        ff = sample(sampler, make_grid(dim, depth, root_side))
        sup = hedberg_ratio_field(ff, alpha, mu, exps).max()
        sups.append(sup)
        series.append((f"sup_ratio@d{depth}", sup))
    finite = all(math.isfinite(s) for s in sups)
    spread_ok = finite and (max(sups) <= (1.0 + HEDBERG_STABILITY) * min(sups))
    return _report("hedberg", params, series, finite and spread_ok)


def sharpness_poincare(
    delta: float,
    mu: float,
    p: float,
    s: float,
    q: float,
    eta: float,
    eps_list: Sequence[float],
    depth: int = 8,
    dim: int = 2,
    root_side: float = 2.0,
    qt: float = DEFAULT_QT,
) -> tuple[SlopeFit, ExperimentReport]:
    """Scaling of the truncated radial-power family against its gradient.

    u_eps = |x|^eta on the annulus eps <= |x| < 1.  The truncated
    left norm ||u_eps||_{L^{s,q}} over the content of exponent
    delta - mu p follows an exact power law in eps with slope
    eta + (delta - mu p)/s; the gradient norm stays uniformly bounded.
    Verdict: fitted slope within SLOPE_TOLERANCE of the prediction and
    right-norm variation below RHS_VARIATION_LIMIT.
    """
    s_lo = riesz_left_exponent(p, delta, mu, 1.0)
    if not (s > s_lo):
        raise VerifyError(f"s must exceed p(delta-mu p)/(delta-p) = {s_lo:g}, got {s}")
    lo, hi = gradient_eta_window(p, s, delta, mu)
    if not (lo < eta <= hi):
        raise VerifyError(f"eta must lie in ({lo:g}, {hi:g}], got {eta}")

    def fields(grid, eps):
        u = Sampler.radial_power(eta, center=(0.0,) * dim, annulus=(eps, 1.0))
        return sample(u, grid), gradient_magnitude(u, grid)

    params = {
        "delta": delta, "mu": mu, "p": p, "s": s, "q": q, "eta": eta,
        "eps_list": [float(e) for e in sorted(eps_list)], "depth": depth, "dim": dim,
        "root_side": root_side, "qt": qt,
        "predicted_slope": gradient_slope_prediction(eta, p, s, delta, mu),
        "slope_tolerance": SLOPE_TOLERANCE, "rhs_variation_limit": RHS_VARIATION_LIMIT,
    }
    return _eps_sweep("sharpness_poincare", params, "predicted_slope", fields,
                      lambda slope, predicted: abs(slope - predicted) <= SLOPE_TOLERANCE)


def sharpness_riesz(
    delta: float,
    mu: float,
    alpha: float,
    p: float,
    s: float,
    q: float,
    eta: float,
    eps_list: Sequence[float],
    depth: int = 10,
    dim: int = 2,
    root_side: float = 20.48,
    qt: float = DEFAULT_QT,
    outer_radius: float = 10.0,
) -> tuple[SlopeFit, ExperimentReport]:
    """Blow-up of the Riesz potential of the truncated radial family.

    f_eps = |x|^eta on eps <= |x| < outer_radius.  The potential norm
    must blow up at least like eps^(eta + alpha + (delta - mu p)/s)
    (slope at most the prediction, up to tolerance) while the source
    norm stays uniformly bounded.
    """
    s_lo = riesz_left_exponent(p, delta, mu, alpha)
    if not (s > s_lo):
        raise VerifyError(f"s must exceed p(delta-mu p)/(delta-p alpha) = {s_lo:g}, got {s}")
    lo, hi = riesz_eta_window(p, s, delta, mu, alpha)
    if not (lo < eta < hi):
        raise VerifyError(f"eta must lie in ({lo:g}, {hi:g}), got {eta}")

    def fields(grid, eps):
        fs = Sampler.radial_power(eta, center=(0.0,) * dim, annulus=(eps, outer_radius))
        ff = sample(fs, grid)
        return riesz(ff, RieszParams(alpha)), ff

    params = {
        "delta": delta, "mu": mu, "alpha": alpha, "p": p, "s": s, "q": q, "eta": eta,
        "eps_list": [float(e) for e in sorted(eps_list)], "depth": depth, "dim": dim,
        "root_side": root_side, "qt": qt, "outer_radius": outer_radius,
        "predicted_blowup": riesz_blowup_prediction(eta, p, s, delta, mu, alpha),
        "slope_tolerance": SLOPE_TOLERANCE, "rhs_variation_limit": RHS_VARIATION_LIMIT,
    }
    return _eps_sweep("sharpness_riesz", params, "predicted_blowup", fields,
                      lambda slope, predicted: slope <= predicted + SLOPE_TOLERANCE)


# registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """A `capnorm verify` experiment: the name of its runner in this module,
    looked up when it runs and never bound here, and its default config,
    keyed by the runner's keyword names."""

    runner: str
    defaults: dict


def _declare(runner: str, **required) -> Experiment:
    """The runner's keyword defaults, read once at import, then the values its signature lacks."""
    params = inspect.signature(globals()[runner]).parameters.values()
    defaults = {par.name: par.default for par in params if par.default is not par.empty}
    return Experiment(runner, {**defaults, **required})


_UNIT_BALL = {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0}
_LINEAR = {"kind": "linear", "coeffs": [1.0, 0.0]}
_INDICATOR = {"kind": "ball_indicator", "center": [0.0, 0.0], "radius": 0.5}
# qt is given as text so that the echoed config stays plain JSON
EXPERIMENTS = {
    "poincare": _declare("poincare_check", shape=_UNIT_BALL, sampler=_LINEAR, delta=2.0, p=1.5,
                         q=1.5, depths=[4, 5, 6]),
    "poincare_weak": _declare("poincare_weak_check", shape=_UNIT_BALL, sampler=_LINEAR, delta=2.0,
                              p=1.0, depths=[4, 5, 6]),
    "poincare_sobolev": _declare("poincare_sobolev_check", shape=_UNIT_BALL, sampler=_LINEAR,
                                 mu=0.0, delta=2.0, p=1.5, q=6.0, depths=[4, 5, 6]),
    "compact_support": _declare("compact_support_check", shape=_UNIT_BALL,
                                sampler={"kind": "bump", "center": [0.0, 0.0], "radius": 0.7},
                                delta=2.0, p=1.5, q=1.5, mu=0.0, depths=[4, 5, 6]),
    "riesz_bound": _declare("riesz_boundedness_check", sampler=_INDICATOR, alpha=1.0, mu=0.0,
                            delta=2.0, p=1.5, q=6.0, depths=[4, 5, 6]),
    "maximal_bound": _declare("maximal_inequality_check", sampler=_INDICATOR, delta=2.0, mu=0.0,
                              p=1.5, s=1.5, r=1.5, depths=[4, 5, 6]),
    "hedberg": _declare("hedberg_constant_check", sampler=_INDICATOR, alpha=1.0, mu=0.0,
                        delta=2.0, p=1.5, q=1.5, depths=[5, 6, 7]),
    "sharpness_poincare": _declare("sharpness_poincare", delta=2.0, mu=0.0, p=1.05, s=4.0, q=4.0,
                                   eta=-0.8, eps_list=[0.25, 0.125, 0.0625, 0.03125], qt="inf"),
    "sharpness_riesz": _declare("sharpness_riesz", delta=2.0, mu=0.0, alpha=1.0, p=1.5, s=8.0,
                                q=8.0, eta=-1.3, eps_list=[0.5, 0.25, 0.125, 0.0625], qt="inf"),
}
