"""Experiment runners for the inequality checks and sharpness scalings.

Every experiment is one pattern: sweep grid depths (or truncation radii),
compute the two sides of one inequality with the exact norm machinery,
and emit a self-contained ExperimentReport: full parameter record,
(label, value) series, a pass/fail verdict, and a config hash.
Re-running with the runner keywords of the recorded parameters as a
config reproduces the series bit-identically, since one rule, _params,
records them: every runner calls it on its locals() as its first
statement, which records each argument (shape and sampler through
to_config, the inverse of the config parsers here; depths and eps_list
as the lists _depth_list and _eps_list check before any grid is built,
each depth as grid_integer's int) and what the runner derives, such as
poincare_weak's endpoint p = delta/dim.  _params is also where delta
meets content._check_delta, before any window is read off it.  The sweep
skeletons add the limits of their verdicts.

One point loop, _sweep, runs every experiment; compact_support and
hedberg call it directly, the rest through two adapters.  _ratio_sweep
labels lhs/rhs/ratio@d<depth> and judges ratio growth; _eps_sweep labels
lhs/rhs@eps=<eps> and fits the log-log slope.  EXPERIMENTS declares each
experiment once for the CLI: its runner's name and the defaults the
signature lacks.

Grid roots are fixed: a John-domain run sizes its root from the shape
(params record root_side None), sharpness_riesz uses RIESZ_ROOT_SIDE
and every other run ROOT_SIDE.

Every side is one Lorentz norm, ``lorentz_norm`` at some (p, q, delta);
a plain p-norm is the (p, p) case.  One rule, operators.improved_exponents,
gives the two sides of the Sobolev-Poincare and compact-support Sobolev
(order alpha = 1) and Riesz (order alpha) inequalities, with its delta/dim
endpoint; _improved_exponents adds the q window above riesz_q_lower.

Stability verdicts operationalize existential constants: the measured
left/right ratio may grow by at most GROWTH_FACTOR_LIMIT per grid
refinement across the sweep.  A genuinely unbounded constant grows
geometrically in the cell size, which this catches; a convergent ratio
passes with margin.

The infimum over the shift b is evaluated at the mean value over the
John ball; a golden-section scan over b runs alongside as a diagnostic
and must not beat the ball mean by more than a factor two.  The golden
section keeps its best point inside the bracket, so the running minimum
only falls.  The scan stops once that minimum fails the factor-two test,
which no later point can undo, or after B_SCAN_STEPS steps, when the
bracket is B_SCAN_RTOL of the range of u: 2 + 15 norm evaluations, each
a content-tree sweep at delta < dim.  Its points are a prefix of any
longer scan's, so b_scan_ok is 1.0 wherever a longer scan's is, and
reads 1.0 where that scan's reads 0.0 only if it found its lower minimum
after the bracket narrowed to B_SCAN_RTOL.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__
from .choquet import LorentzExponents, lorentz_norm
from .content import _check_delta
from .domains import (DEFAULT_MEAN_BALL_CONSTANT, JohnDomain, Shape, make_john_domain, mean_value,
                      mean_value_ball)
from .grid import (GridFunction, Sampler, gradient_magnitude, grid_integer, json_number, json_text, make_grid,
                   sample)
from .operators import (MaximalParams, _check_alpha, _check_mu, hedberg_ratio_field, improved_exponents,
                        maximal, riesz, riesz_left_exponent)

GROWTH_FACTOR_LIMIT = 1.2
SLOPE_TOLERANCE = 0.05
RHS_VARIATION_LIMIT = 0.10
HEDBERG_STABILITY = 0.20
B_SCAN_FACTOR = 2.0
# The b-scan's bracket shrinks by INVPHI per golden step; it stops after
# B_SCAN_STEPS = 15 steps, at B_SCAN_RTOL of its start.  Its verdict
# compares at a factor of B_SCAN_FACTOR, far coarser than 1e-3.
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
B_SCAN_RTOL = 1e-3
B_SCAN_STEPS = math.ceil(math.log(B_SCAN_RTOL) / math.log(INVPHI))
# Second index of the uniform-boundedness norm in sharpness runs: the weak
# norm (q = inf) is the member of the Lorentz family whose truncation tails
# converge fastest, so the uniformity claim is visible at moderate
# truncation radii.
SHARPNESS_QT = math.inf
# Root side of the grids not sized from a shape: [-1, 1)^dim, the origin on a cell corner.
ROOT_SIDE = 2.0
# sharpness_riesz samples |x|^eta out to RIESZ_OUTER_RADIUS; its root
# [-10.24, 10.24)^dim holds that ball, with cells of side 0.02 at depth 10.
RIESZ_ROOT_SIDE = 20.48
RIESZ_OUTER_RADIUS = 10.0
# the constructors of Sampler and Shape that a config can name
SAMPLER_KINDS = ("constant", "radial_power", "ball_indicator", "linear", "bump")
SHAPE_KINDS = ("ball", "rectangle", "l_shape", "punctured_ball")


class VerifyError(ValueError):
    """An exponent constraint of a check is violated (reported by name)."""


# exponent windows -----------------------------------------------------------


def riesz_q_lower(p: float, delta: float, mu: float, alpha: float, dim: int) -> float:
    """Lower admissibility bound delta(delta - mu p)/(dim (delta - alpha p)) for q."""
    return delta * (delta - mu * p) / (dim * (delta - p * alpha))


def _improved_exponents(p: float, q: Optional[float], delta: float, mu: float, alpha: float,
                        dim: int) -> tuple[LorentzExponents, LorentzExponents]:
    """`improved_exponents` as VerifyError, with q in (riesz_q_lower, inf) on the main branch."""
    # the windows first, at a q every side accepts: riesz_q_lower divides by delta - alpha p
    sides = improved_exponents(p, math.inf, delta, mu, alpha, dim, VerifyError)
    if p == delta / dim:  # q is not read
        return sides
    q_lo = riesz_q_lower(p, delta, mu, alpha, dim)
    if q is None or not (q_lo < q < math.inf):
        raise VerifyError(f"q must be in ({q_lo:g}, inf), got {q}")
    return improved_exponents(p, q, delta, mu, alpha, dim, VerifyError)


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


class ConfigError(ValueError):
    """A config that names an unknown kind or key, or holds a value that is refused."""


def _construct(cls, kinds: tuple, kind, keys: dict, **defaults):
    """cls.<kind>(**keys), defaults filling the keywords it takes that keys lack.

    An unknown kind, a missing or unknown key, a value other than a
    number, a list of numbers or null, or a value the constructor refuses
    is a ConfigError naming the kind.
    """
    what = f"{cls.__name__.lower()} kind {kind!r}"
    if kind not in kinds:
        raise ConfigError(f"unknown {what}; choose from {list(kinds)}")
    for key, value in keys.items():
        if not (value is None or json_number(value)
                or isinstance(value, list) and all(map(json_number, value))):
            raise ConfigError(f"{what}: {key} must be a number, a list of numbers or null, got {value!r}")
    build = getattr(cls, kind)
    taken = inspect.signature(build).parameters
    try:
        return build(**{**{k: v for k, v in defaults.items() if k in taken}, **keys})
    except (TypeError, ValueError) as exc:  # TypeError: a key or a JSON type; ValueError: a value
        raise ConfigError(f"{what}: {exc}") from exc


def sampler_from_config(cfg: dict, dim: int = 2) -> Sampler:
    """Sampler.<kind> of a dim-dimensional run; a missing center is the origin."""
    keys = dict(cfg)
    sampler = _construct(Sampler, SAMPLER_KINDS, keys.pop("kind", None), keys,
                         center=(0.0,) * dim)
    for key, noun in (("center", "coordinates"), ("coeffs", "entries")):
        size = len(getattr(sampler, key))
        if key in keys and size != dim:
            raise ConfigError(f"sampler {key} has {size} {noun} but the run has dim {dim}")
    return sampler


def shape_from_config(cfg: dict) -> Shape:
    keys = dict(cfg)
    return _construct(Shape, SHAPE_KINDS, keys.pop("shape", None), keys)


def to_config(obj, kind_key: str) -> dict:
    """The config that rebuilds a Sampler (kind_key "kind") or a Shape ("shape"), tuples as lists."""
    config = {kind_key: obj.kind}
    for key in inspect.signature(getattr(type(obj), obj.kind)).parameters:
        value = getattr(obj, key)
        config[key] = list(value) if isinstance(value, tuple) else value
    return config


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """(slope, r_squared) of the least-squares line of log(ys) against log(xs)."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.size < 4:
        raise VerifyError(f"slope fit needs at least 4 points, got {xs.size}")
    if (xs <= 0).any() or (ys <= 0).any():
        raise VerifyError("slope fit needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residual**2)) / ss_tot
    return float(slope), r2


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


def _report(experiment: str, params: dict, series, verdict: bool) -> ExperimentReport:
    config_hash = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()
    return ExperimentReport(
        experiment=experiment,
        params=params,
        series=tuple((str(k), float(v)) for k, v in series),
        verdict=bool(verdict),
        provenance={"version": __version__, "config_hash": config_hash},
    )


def growth_factors_ok(ratios: Sequence[float]) -> bool:
    """All ratios finite; consecutive growth below GROWTH_FACTOR_LIMIT; zeros pass."""
    return all(map(math.isfinite, ratios)) and all(
        cur == 0.0 if prev == 0.0 else cur / prev < GROWTH_FACTOR_LIMIT
        for prev, cur in zip(ratios, ratios[1:]))


def _depth_list(depths: Sequence[int]) -> list:
    """The depths of a sweep as a list of ints (grid_integer's rule): at least one, strictly increasing."""
    depths = [grid_integer("depth", depth) for depth in depths]
    if not depths or any(a >= b for a, b in zip(depths, depths[1:])):
        raise VerifyError(f"depths must be a nonempty strictly increasing list, got {depths}")
    return depths


def _eps_list(eps_list: Sequence[float]) -> list:
    """The truncation radii of a sweep, sorted, as floats: at least 4 positive finite numbers, no
    two labelled alike."""
    eps = list(eps_list) if isinstance(eps_list, (list, tuple)) else []
    if len(eps) < 4 or not all(json_number(e) and 0 < e < math.inf for e in eps):
        raise VerifyError("eps_list must hold at least 4 positive values, each a finite number, "
                          f"got {json_text(eps_list)}")
    eps = sorted(float(e) for e in eps)
    labels = [f"{e:g}" for e in eps]
    for label, twin in zip(labels, labels[1:]):  # sorted, so a repeated label sits next to its twin
        if label == twin:
            raise VerifyError(f"eps_list repeats the label eps={label}, got {eps}")
    return eps


def _eps_inside(eps: list, outer_radius: float):
    """Refuse a truncation radius (of a list _eps_list gave) not below the annuli's outer radius."""
    if eps[-1] >= outer_radius:
        raise VerifyError(f"eps_list must hold values below the outer radius {outer_radius:g}, "
                          f"got {json_text(eps)}")


# runner argument -> its recorded form; every other argument is recorded as given
_RECORDED = {"shape": lambda shape: to_config(shape, "shape"), "depths": _depth_list,
             "depth": lambda depth: grid_integer("depth", depth),
             "sampler": lambda sampler: to_config(sampler, "kind"), "eps_list": _eps_list}


def _infinite(value) -> bool:
    """Whether value, or a number in its lists or dicts, is infinite."""
    if isinstance(value, (list, dict)):
        return any(map(_infinite, value.values() if isinstance(value, dict) else value))
    return isinstance(value, float) and math.isinf(value)


def _params(arguments: dict, **derived) -> dict:
    """Every runner argument in its recorded form, then `derived`.

    A run on a shape also records root_side None (its root is sized from
    the shape) and the John constants.  A value derived through an
    exponent check (left_p, a predicted slope) is added after that check.
    Strict JSON has no infinity, so a recorded value that holds one is a
    VerifyError naming its key.  Every runner calls this first, so delta
    is checked here, before any p, q or eta window is read off it.
    """
    dim = arguments["shape"].dim if "shape" in arguments else arguments["dim"]
    _check_delta(arguments["delta"], dim)
    params = {key: _RECORDED.get(key, lambda v: v)(value) for key, value in arguments.items()}
    if "shape" in arguments:
        alpha_john, beta_john, x0 = arguments["shape"].john_constants()
        params.update(root_side=None, alpha_john=alpha_john, beta_john=beta_john,
                      john_center=list(x0))
    params.update(derived)
    for key, value in params.items():
        if _infinite(value):
            raise VerifyError(f"{key} must hold only finite numbers (strict JSON has no infinity), "
                              f"got {value}")
    return params


def _safe_ratio(lhs: float, rhs: float, what: str) -> float:
    if lhs == 0.0:
        return 0.0
    if rhs == 0.0:
        raise VerifyError(f"{what}: right side vanished while the left side is {lhs:g}")
    return lhs / rhs


def _golden_min(
    fun: Callable[[float], float], lo: float, hi: float, settled: Callable[[float], bool]
) -> float:
    """Golden-section scan of fun on [lo, hi]; returns the minimal observed value.

    The best point so far stays inside the bracket, so min(fc, fd) is the
    running minimum.  The scan stops once settled(running minimum) holds,
    or after B_SCAN_STEPS steps, when the bracket is B_SCAN_RTOL (hi - lo):
    at most 2 + B_SCAN_STEPS evaluations.  A count of steps, not a test on
    b - a, so a bracket a few ulps wide cannot stall it.
    """
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(B_SCAN_STEPS):
        if settled(min(fc, fd)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = fun(d)
    return min(fc, fd)


# sweep skeletons ------------------------------------------------------------


def _sweep(points: Sequence, at: Callable[[object], tuple[tuple, list]]) -> tuple[list, list]:
    """The one point loop: at(point) = (judged values, entries) -> (series, one column per value)."""
    series, judged = [], []
    for point in points:
        values, entries = at(point)
        judged.append(values)
        series += entries
    return series, list(zip(*judged))


def _ratio_sweep(experiment: str, params: dict, sides: Callable[[int], tuple]) -> ExperimentReport:
    """Over params["depths"]: sides(depth) = (lhs, rhs, *extra entries); ratios judged by growth."""

    def at(depth):
        lhs, rhs, *extra = sides(depth)
        ratio = _safe_ratio(lhs, rhs, experiment)
        entries = [(f"lhs@d{depth}", lhs), (f"rhs@d{depth}", rhs), (f"ratio@d{depth}", ratio)]
        return (ratio,), entries + extra

    series, (ratios,) = _sweep(params["depths"], at)
    params = {**params, "growth_limit": GROWTH_FACTOR_LIMIT}
    return _report(experiment, params, series, growth_factors_ok(ratios))


def _eps_sweep(
    experiment: str,
    params: dict,
    predicted_key: str,
    predicted: float,
    fields: Callable[[float], tuple[GridFunction, GridFunction]],
    slope_ok: Callable[[float, float], bool],
) -> ExperimentReport:
    """Over params["eps_list"]: fields(eps) = (left, right) grid functions.

    Each runner samples the pair afresh for each eps on its one grid.
    The norms of the pair are the sides, in L^{s,q} over the content of
    exponent delta - mu p and in L^{p,SHARPNESS_QT}.  The verdict needs
    slope_ok(fitted slope, predicted) and a right-side variation below
    RHS_VARIATION_LIMIT; params record both limits, qt, and predicted
    under predicted_key.
    """
    qt = "inf" if SHARPNESS_QT == math.inf else SHARPNESS_QT  # as `--q inf` reads it
    params = {**params, predicted_key: predicted, "qt": qt,
              "slope_tolerance": SLOPE_TOLERANCE, "rhs_variation_limit": RHS_VARIATION_LIMIT}
    delta, p = params["delta"], params["p"]
    left = LorentzExponents(params["s"], params["q"], delta - params["mu"] * p)
    right = LorentzExponents(p, SHARPNESS_QT, delta)

    def at(eps):
        left_fn, right_fn = fields(eps)
        lhs, rhs = lorentz_norm(left_fn, left), lorentz_norm(right_fn, right)
        return (lhs, rhs), [(f"lhs@eps={eps:g}", lhs), (f"rhs@eps={eps:g}", rhs)]

    series, (lhs_vals, rhs_vals) = _sweep(params["eps_list"], at)
    slope, r_squared = fit_loglog(params["eps_list"], lhs_vals)
    rhs_variation = max(rhs_vals) / min(rhs_vals) - 1.0
    series += [("fitted_slope", slope), (predicted_key, predicted),
               ("r_squared", r_squared), ("rhs_variation", rhs_variation)]
    verdict = slope_ok(slope, predicted) and rhs_variation < RHS_VARIATION_LIMIT
    return _report(experiment, params, series, verdict)


# shared geometry ------------------------------------------------------------


def _domain_at_depth(shape: Shape, depth: int) -> JohnDomain:
    """The shape on the smallest origin-centred root that holds it."""
    lo, hi = shape.bounding_box()
    root_side = 2.0 * float(max(np.max(np.abs(lo)), np.max(np.abs(hi))))
    return make_john_domain(shape, make_grid(shape.dim, depth, root_side))


def _poincare_sides(
    shape: Shape, u: Sampler, depth: int, c_ball: float
) -> tuple[JohnDomain, np.ndarray, GridFunction, GridFunction]:
    """(domain, u at the cell centers, |u - u_B| and |grad u| on the domain) at one depth."""
    domain = _domain_at_depth(shape, depth)
    ball = mean_value_ball(domain, c_ball)
    grid = domain.grid
    raw = u.evaluate(grid.centers()).reshape(grid.shape)
    if np.ptp(raw[domain.cells.mask]) == 0.0:
        u_ball = float(raw[domain.cells.mask].flat[0])
    else:
        u_ball = mean_value(raw, grid, ball, within=domain.cells)
    w = np.where(domain.cells.mask, np.abs(raw - u_ball), 0.0)
    diff = GridFunction(grid, w)
    grad = gradient_magnitude(u, grid).restrict(domain.cells)
    return domain, raw, diff, grad


def _john_factor(domain: JohnDomain) -> float:
    """beta (beta/alpha)^{2 dim}, the John weight of the gradient side."""
    return domain.beta_john * (domain.beta_john / domain.alpha_john) ** (2 * domain.grid.dim)


def _b_scan_ok(domain: JohnDomain, raw: np.ndarray, exps: LorentzExponents, lhs: float) -> float:
    """1.0 unless some shift b beats the ball mean by more than B_SCAN_FACTOR.

    raw holds u at the cell centers, as _poincare_sides computed it.
    """
    grid = domain.grid
    vals = raw[domain.cells.mask]

    def norm_at(b):
        w = np.where(domain.cells.mask, np.abs(raw - b), 0.0)
        return lorentz_norm(GridFunction(grid, w), exps)

    def ok(best):
        return lhs <= B_SCAN_FACTOR * best + 1e-12

    # a running minimum only falls, so a failed verdict is final
    best = _golden_min(norm_at, float(vals.min()), float(vals.max()), lambda best: not ok(best))
    return float(ok(best))


# experiments ----------------------------------------------------------------


def poincare_check(
    shape: Shape,
    sampler: Sampler,
    delta: float,
    p: float,
    q: float,
    depths: Sequence[int],
    c_ball: float = DEFAULT_MEAN_BALL_CONSTANT,
    b_scan: bool = True,
) -> ExperimentReport:
    """Mean-oscillation norm against the John-weighted gradient norm.

    Ratio R = ||u - u_B||_{p,q,delta} / (beta (beta/alpha)^{2 dim}
    ||grad u||_{p,q,delta}) per depth; passes when finite and growing by
    less than the stability limit per refinement.
    """
    params = _params(locals())
    if not isinstance(b_scan, bool):
        raise VerifyError(f"b_scan must be true or false, got {b_scan!r}")
    dim = shape.dim
    if not (delta / dim < p < math.inf):
        raise VerifyError(f"p must be in (delta/dim, inf) = ({delta / dim:g}, inf), got {p}")
    if not (delta / dim < q < math.inf):
        raise VerifyError(f"q must be in (delta/dim, inf) = ({delta / dim:g}, inf), got {q}")
    exps = LorentzExponents(p, q, delta)

    def sides(depth):
        domain, raw, diff, grad = _poincare_sides(shape, sampler, depth, c_ball)
        lhs = lorentz_norm(diff, exps)
        rhs = _john_factor(domain) * lorentz_norm(grad, exps)
        if not (b_scan and lhs > 0):
            return lhs, rhs
        # diagnostic only: recorded after the ratio, never gates the verdict
        return lhs, rhs, (f"b_scan_ok@d{depth}", _b_scan_ok(domain, raw, exps, lhs))

    return _ratio_sweep("poincare", params, sides)


def poincare_weak_check(
    shape: Shape,
    sampler: Sampler,
    delta: float,
    depths: Sequence[int],
    c_ball: float = DEFAULT_MEAN_BALL_CONSTANT,
) -> ExperimentReport:
    """Endpoint p = delta/dim, recorded in params: weak norm left, plain p-norm right."""
    params = _params(locals(), p=delta / shape.dim)
    p = params["p"]
    weak, strong = LorentzExponents(p, math.inf, delta), LorentzExponents(p, p, delta)

    def sides(depth):
        domain, _, diff, grad = _poincare_sides(shape, sampler, depth, c_ball)
        return lorentz_norm(diff, weak), _john_factor(domain) * lorentz_norm(grad, strong)

    return _ratio_sweep("poincare_weak", params, sides)


def poincare_sobolev_check(
    shape: Shape,
    sampler: Sampler,
    mu: float,
    delta: float,
    p: float,
    q: Optional[float],
    depths: Sequence[int],
    c_ball: float = DEFAULT_MEAN_BALL_CONSTANT,
) -> ExperimentReport:
    """Sobolev-improved oscillation norm over the lowered content dimension.

    The sides are those of _improved_exponents at alpha = 1: main branch
    p in (delta/dim, delta), endpoint p = delta/dim.
    """
    params = _params(locals())
    left, right = _improved_exponents(p, q, delta, mu, 1.0, shape.dim)
    params.update(left_p=left.p, left_delta=left.delta, endpoint=p == delta / shape.dim)

    def sides(depth):
        _, _, diff, grad = _poincare_sides(shape, sampler, depth, c_ball)
        return lorentz_norm(diff, left), lorentz_norm(grad, right)

    return _ratio_sweep("poincare_sobolev", params, sides)


def _box_grow(mask: np.ndarray, cells: int) -> np.ndarray:
    """The cells within `cells` cells of `mask` in the sup norm; cells outside the grid are empty."""
    grown = np.pad(mask, cells)
    for axis in range(mask.ndim):  # separable: any over a window of 2 cells + 1, one axis at a time
        grown = sliding_window_view(grown, 2 * cells + 1, axis=axis).any(axis=-1)
    return grown


def compact_support_check(
    shape: Shape,
    sampler: Sampler,
    delta: float,
    p: float,
    q: float,
    mu: float,
    depths: Sequence[int],
) -> ExperimentReport:
    """Shift-free bounds for functions supported strictly inside the domain.

    Four variants per depth: strong (diam-weighted gradient), its weak
    endpoint at p = delta/dim, the Sobolev form, and its weak endpoint.
    The sampled support must keep a margin of at least 2 cells inside
    the domain boundary.
    """
    params = _params(locals(), diam=shape.diameter, growth_limit=GROWTH_FACTOR_LIMIT)
    dim = shape.dim
    if not (delta / dim < p < delta):
        raise VerifyError(f"p must be in (delta/dim, delta) = ({delta / dim:g}, {delta:g}), got {p}")
    if not (delta / dim < q < math.inf):
        raise VerifyError(f"q must be in (delta/dim, inf) = ({delta / dim:g}, inf), got {q}")
    p_end, diam = delta / dim, params["diam"]
    strong, p_norm = LorentzExponents(p, q, delta), LorentzExponents(p_end, p_end, delta)
    # variant -> (exponents of f's norm, exponents of the gradient's norm, gradient factor)
    variants = {
        "strong": (strong, strong, diam),
        "weak": (LorentzExponents(p_end, math.inf, delta), p_norm, diam),
        "sobolev": (*improved_exponents(p, q, delta, mu, 1.0, dim, VerifyError), 1.0),
        "sobolev_weak": (*improved_exponents(p_end, q, delta, mu, 1.0, dim, VerifyError), 1.0),
    }

    def at(depth):
        domain = _domain_at_depth(shape, depth)
        grid = domain.grid
        f = sample(sampler, grid)
        if not np.all(~_box_grow(f.support.mask, 2) | domain.cells.mask):
            raise VerifyError("support touches the domain boundary (needs a 2-cell margin)")
        grad = gradient_magnitude(sampler, grid).restrict(domain.cells)
        fr = f.restrict(domain.cells)
        ratios = tuple(_safe_ratio(lorentz_norm(fr, left), factor * lorentz_norm(grad, right),
                                   f"compact_support {v}")
                       for v, (left, right, factor) in variants.items())
        return ratios, [(f"{v}@d{depth}", ratio) for v, ratio in zip(variants, ratios)]

    series, per_variant = _sweep(params["depths"], at)
    return _report("compact_support", params, series, all(map(growth_factors_ok, per_variant)))


def riesz_boundedness_check(
    sampler: Sampler,
    alpha: float,
    mu: float,
    delta: float,
    p: float,
    q: Optional[float],
    depths: Sequence[int],
    dim: int = 2,
) -> ExperimentReport:
    """Riesz potential norm over the lowered content against the source norm."""
    params = _params(locals(), root_side=ROOT_SIDE)
    left, right = _improved_exponents(p, q, delta, mu, alpha, dim)
    params.update(left_p=left.p, left_delta=left.delta, endpoint=p == delta / dim)

    def sides(depth):
        ff = sample(sampler, make_grid(dim, depth, ROOT_SIDE))
        return lorentz_norm(riesz(ff, alpha), left), lorentz_norm(ff, right)

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
) -> ExperimentReport:
    """Fractional maximal operator between Lorentz-content norms."""
    params = _params(locals(), left_delta=delta - mu * p, root_side=ROOT_SIDE)
    _check_mu(mu, dim, "dim", VerifyError)
    p_hi = math.inf if mu == 0 else delta / mu
    if not (delta / dim < p < p_hi):
        raise VerifyError(f"p must be in (delta/dim, delta/mu) = ({delta / dim:g}, {p_hi:g}), got {p}")
    if not (delta / dim < r < math.inf):
        raise VerifyError(f"r must be in (delta/dim, inf) = ({delta / dim:g}, inf), got {r}")
    if not (0 < s <= r):
        raise VerifyError(f"s must be in (0, r] = (0, {r:g}], got {s}")
    left_delta = params["left_delta"]

    def sides(depth):
        ff = sample(sampler, make_grid(dim, depth, ROOT_SIDE))
        mf = maximal(ff, MaximalParams(mu))
        lhs = lorentz_norm(mf, LorentzExponents(p, r, left_delta))
        return lhs, lorentz_norm(ff, LorentzExponents(p, s, delta))

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
) -> ExperimentReport:
    """Sup over the grid of the pointwise Riesz-by-maximal ratio, per depth."""
    params = _params(locals(), root_side=ROOT_SIDE, stability=HEDBERG_STABILITY)
    exps = LorentzExponents(p, q, delta)

    def at(depth):
        ff = sample(sampler, make_grid(dim, depth, ROOT_SIDE))
        sup = hedberg_ratio_field(ff, alpha, mu, exps).max()
        return (sup,), [(f"sup_ratio@d{depth}", sup)]

    series, (sups,) = _sweep(params["depths"], at)
    ok = all(map(math.isfinite, sups)) and max(sups) <= (1.0 + HEDBERG_STABILITY) * min(sups)
    return _report("hedberg", params, series, ok)


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
) -> ExperimentReport:
    """Scaling of the truncated radial-power family against its gradient.

    u_eps = |x|^eta on the annulus eps <= |x| < 1, each eps below 1.
    The truncated left norm ||u_eps||_{L^{s,q}} over the content of
    exponent delta - mu p follows an exact power law in eps with slope
    eta + (delta - mu p)/s; the gradient norm stays uniformly bounded.
    Verdict: fitted slope within SLOPE_TOLERANCE of the prediction and
    right-norm variation below RHS_VARIATION_LIMIT.
    """
    params = _params(locals(), root_side=ROOT_SIDE)
    if not (0 < p < delta):  # riesz_left_exponent divides by delta - p
        raise VerifyError(f"p must be in (0, delta) = (0, {delta:g}), got {p}")
    _check_mu(mu, 1.0, "alpha", VerifyError)  # the gradient is of order alpha = 1
    s_lo = riesz_left_exponent(p, delta, mu, 1.0)
    if not (s > s_lo):
        raise VerifyError(f"s must exceed p(delta-mu p)/(delta-p) = {s_lo:g}, got {s}")
    lo, hi = gradient_eta_window(p, s, delta, mu)
    if not (lo < eta <= hi):
        raise VerifyError(f"eta must lie in ({lo:g}, {hi:g}], got {eta}")

    _eps_inside(params["eps_list"], 1.0)
    grid = make_grid(dim, depth, ROOT_SIDE)

    def fields(eps):
        u = Sampler.radial_power(eta, (0.0,) * dim, (eps, 1.0))
        return sample(u, grid), gradient_magnitude(u, grid)

    return _eps_sweep("sharpness_poincare", params, "predicted_slope",
                      gradient_slope_prediction(eta, p, s, delta, mu), fields,
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
) -> ExperimentReport:
    """Blow-up of the Riesz potential of the truncated radial family.

    f_eps = |x|^eta on eps <= |x| < RIESZ_OUTER_RADIUS, each eps below
    it, on the root [-RIESZ_ROOT_SIDE/2, RIESZ_ROOT_SIDE/2)^dim.  The
    potential norm must blow up at least like
    eps^(eta + alpha + (delta - mu p)/s) (slope at most the prediction,
    up to tolerance) while the source norm stays uniformly bounded.
    """
    params = _params(locals(), root_side=RIESZ_ROOT_SIDE, outer_radius=RIESZ_OUTER_RADIUS)
    # riesz_left_exponent divides by delta - p alpha; the p bound does not divide by
    # alpha, so that alpha = 0 passes it and is refused by name
    if not (p > 0 and p * alpha < delta):
        raise VerifyError(f"p must be positive with p*alpha < delta = {delta:g}, got {p}")
    _check_alpha(alpha, dim, VerifyError)
    _check_mu(mu, alpha, "alpha", VerifyError)
    s_lo = riesz_left_exponent(p, delta, mu, alpha)
    if not (s > s_lo):
        raise VerifyError(f"s must exceed p(delta-mu p)/(delta-p alpha) = {s_lo:g}, got {s}")
    lo, hi = riesz_eta_window(p, s, delta, mu, alpha)
    if not (lo < eta < hi):
        raise VerifyError(f"eta must lie in ({lo:g}, {hi:g}), got {eta}")

    _eps_inside(params["eps_list"], RIESZ_OUTER_RADIUS)
    grid = make_grid(dim, depth, RIESZ_ROOT_SIDE)

    def fields(eps):
        ff = sample(Sampler.radial_power(eta, (0.0,) * dim, (eps, RIESZ_OUTER_RADIUS)), grid)
        return riesz(ff, alpha), ff

    return _eps_sweep("sharpness_riesz", params, "predicted_blowup",
                      riesz_blowup_prediction(eta, p, s, delta, mu, alpha), fields,
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
EXPERIMENTS = {
    "poincare": _declare("poincare_check", shape=_UNIT_BALL, sampler=_LINEAR, delta=2.0, p=1.5,
                         q=1.5, depths=[4, 5, 6]),
    "poincare_weak": _declare("poincare_weak_check", shape=_UNIT_BALL, sampler=_LINEAR, delta=2.0,
                              depths=[4, 5, 6]),
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
                                   eta=-0.8, eps_list=[0.25, 0.125, 0.0625, 0.03125]),
    "sharpness_riesz": _declare("sharpness_riesz", delta=2.0, mu=0.0, alpha=1.0, p=1.5, s=8.0,
                                q=8.0, eta=-1.3, eps_list=[0.5, 0.25, 0.125, 0.0625]),
}
