import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnorm.domains import Shape
from capnorm.grid import Sampler, gradient_magnitude, make_grid, sample
from capnorm.operators import riesz, riesz_left_exponent, riesz_right_q
from capnorm import operators, verify
from capnorm.verify import (
    VerifyError,
    fit_loglog,
    gradient_eta_window,
    gradient_slope_prediction,
    growth_factors_ok,
    riesz_blowup_prediction,
    riesz_eta_window,
    riesz_q_lower,
)

BALL = Shape.ball((0.0, 0.0), 1.0)
LINEAR = Sampler.linear([1.0, 0.0])


# independent re-derivations of every window formula: each one below is
# rearranged algebraically (reciprocal or expanded form), not a re-typing
def _sobolev_left_indep(p, delta, mu):
    return 1.0 / ((delta - p) / (p * delta - mu * p * p))


def _sobolev_right_q_indep(q, p, delta, mu):
    return q / ((delta - mu * p) / (delta - p))


def _sobolev_q_lower_indep(p, delta, mu, dim):
    return (delta * delta - delta * mu * p) / (dim * delta - dim * p)


def _riesz_left_indep(p, delta, mu, alpha):
    return 1.0 / ((delta - p * alpha) / (p * delta - mu * p * p))


def _riesz_right_q_indep(q, p, delta, mu, alpha):
    return q / ((delta - mu * p) / (delta - p * alpha))


def _riesz_q_lower_indep(p, delta, mu, alpha, dim):
    return (delta * delta - delta * mu * p) / (dim * delta - dim * p * alpha)


def _gradient_window_indep(p, s, delta, mu):
    return ((p - delta) / p, (mu * p - delta) / s)


def _riesz_window_indep(p, s, delta, mu, alpha):
    return (-delta / p, (mu * p - delta) / s - alpha)


def test_window_formulas_against_independent_derivations():
    rng = np.random.default_rng(1)
    for _ in range(100):
        delta = rng.uniform(0.5, 2.0)
        mu = rng.uniform(0.0, 0.9)
        alpha = rng.uniform(0.1, 1.9)
        p = rng.uniform(delta / 2 + 1e-3, delta - 1e-3)
        q = rng.uniform(0.5, 8.0)
        s = rng.uniform(1.0, 9.0)
        assert riesz_left_exponent(p, delta, mu, 1.0) == pytest.approx(
            _sobolev_left_indep(p, delta, mu), rel=1e-12)
        assert riesz_right_q(q, p, delta, mu, 1.0) == pytest.approx(
            _sobolev_right_q_indep(q, p, delta, mu), rel=1e-12)
        assert riesz_q_lower(p, delta, mu, 1.0, 2) == pytest.approx(
            _sobolev_q_lower_indep(p, delta, mu, 2), rel=1e-12)
        assert riesz_left_exponent(p, delta, mu, alpha) == pytest.approx(
            _riesz_left_indep(p, delta, mu, alpha), rel=1e-12)
        assert riesz_right_q(q, p, delta, mu, alpha) == pytest.approx(
            _riesz_right_q_indep(q, p, delta, mu, alpha), rel=1e-12)
        assert riesz_q_lower(p, delta, mu, alpha, 2) == pytest.approx(
            _riesz_q_lower_indep(p, delta, mu, alpha, 2), rel=1e-12)
        w1, w2 = gradient_eta_window(p, s, delta, mu)
        i1, i2 = _gradient_window_indep(p, s, delta, mu)
        assert w1 == pytest.approx(i1, rel=1e-12) and w2 == pytest.approx(i2, rel=1e-12)
        r1, r2 = riesz_eta_window(p, s, delta, mu, alpha)
        j1, j2 = _riesz_window_indep(p, s, delta, mu, alpha)
        assert r1 == pytest.approx(j1, rel=1e-12) and r2 == pytest.approx(j2, rel=1e-12)


def test_window_reference_values():
    # dim 2: p=1.5, delta=2, mu=0 gives left exponent 6
    assert riesz_left_exponent(1.5, 2.0, 0.0, 1.0) == pytest.approx(6.0)
    # mu=0.5, p=1.2: 1.2*1.4/0.8 = 2.1
    assert riesz_left_exponent(1.2, 2.0, 0.5, 1.0) == pytest.approx(2.1)
    # riesz: p=1.5, alpha=1, delta=2 -> 6
    assert riesz_left_exponent(1.5, 2.0, 0.0, 1.0) == pytest.approx(6.0)
    # gradient window for p=1.05, s=4: (1 - 2/1.05, -0.5]
    lo, hi = gradient_eta_window(1.05, 4.0, 2.0, 0.0)
    assert lo == pytest.approx(1 - 2 / 1.05)
    assert hi == pytest.approx(-0.5)
    # riesz window for p=1.5, s=8, alpha=1: (-4/3, -1.25)
    lo, hi = riesz_eta_window(1.5, 8.0, 2.0, 0.0, 1.0)
    assert lo == pytest.approx(-4.0 / 3.0)
    assert hi == pytest.approx(-1.25)
    assert gradient_slope_prediction(-0.8, 1.05, 4.0, 2.0, 0.0) == pytest.approx(-0.3)
    assert riesz_blowup_prediction(-1.3, 1.5, 8.0, 2.0, 0.0, 1.0) == pytest.approx(-0.05)


def test_fit_loglog_exact_power_law():
    xs = np.array([0.25, 0.125, 0.0625, 0.03125])
    slope, r_squared = fit_loglog(xs, xs**-0.3)
    assert slope == pytest.approx(-0.3, abs=1e-12)
    assert r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_loglog_needs_four_positive_points():
    with pytest.raises(VerifyError):
        fit_loglog([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(VerifyError):
        fit_loglog([1.0, 2.0, 3.0, -4.0], [1.0, 2.0, 3.0, 4.0])


def test_growth_factors():
    assert growth_factors_ok([1.0, 1.1, 1.2])
    assert not growth_factors_ok([1.0, 1.3])
    assert growth_factors_ok([0.0, 0.0])
    assert not growth_factors_ok([0.0, 0.5])
    assert not growth_factors_ok([1.0, math.inf])


def test_safe_ratio_refuses_a_vanishing_right_side():
    assert verify._safe_ratio(0.0, 0.0, "poincare") == 0.0
    with pytest.raises(VerifyError, match="poincare: right side vanished while the left side is 0.5"):
        verify._safe_ratio(0.5, 0.0, "poincare")


def test_growth_factor_verdict_at_the_limit():
    # the limit 1.2 stated as a literal: a growth of 1.19 passes and one of 1.205 fails
    assert growth_factors_ok([1.0, 1.19])
    assert not growth_factors_ok([1.0, 1.205])


def test_poincare_constant_u_reports_exact_zero():
    rep = verify.poincare_check(BALL, Sampler.constant(3.3), 2.0, 1.5, 1.5, [3, 4])
    ratios = [v for k, v in rep.series if k.startswith("ratio")]
    assert ratios == [0.0, 0.0]
    assert rep.verdict


def test_poincare_linear_stable():
    rep = verify.poincare_check(BALL, LINEAR, 2.0, 1.5, 1.5, [3, 4, 5])
    assert rep.verdict
    ratios = [v for k, v in rep.series if k.startswith("ratio")]
    assert all(0 < r < math.inf for r in ratios)
    scans = [v for k, v in rep.series if k.startswith("b_scan_ok")]
    assert all(s == 1.0 for s in scans)


def test_poincare_ratio_scale_invariant():
    rep1 = verify.poincare_check(BALL, LINEAR, 2.0, 1.5, 1.5, [4], b_scan=False)
    rep2 = verify.poincare_check(
        BALL, Sampler.linear([5.0, 0.0]), 2.0, 1.5, 1.5, [4], b_scan=False
    )
    r1 = dict(rep1.series)["ratio@d4"]
    r2 = dict(rep2.series)["ratio@d4"]
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_poincare_exponent_validation():
    with pytest.raises(VerifyError, match="p must"):
        verify.poincare_check(BALL, LINEAR, 2.0, 0.9, 1.5, [3])
    with pytest.raises(VerifyError, match="q must"):
        verify.poincare_check(BALL, LINEAR, 2.0, 1.5, 0.9, [3])


def test_poincare_weak_records_its_endpoint_p():
    ball = Shape.ball((0.0, 0.0, 0.0), 1.0)
    rep = verify.poincare_weak_check(ball, Sampler.linear([1.0, 0.0, 0.0]), 2.2, [3, 4])
    assert rep.params["p"] == 0.7333333333333334 == 2.2 / 3


def test_sobolev_validation_by_name():
    with pytest.raises(VerifyError, match="mu"):
        verify.poincare_sobolev_check(BALL, LINEAR, 1.5, 2.0, 1.5, 6.0, [3])
    with pytest.raises(VerifyError, match="p must"):
        verify.poincare_sobolev_check(BALL, LINEAR, 0.0, 2.0, 2.5, 6.0, [3])
    with pytest.raises(VerifyError, match="q must"):
        verify.poincare_sobolev_check(BALL, LINEAR, 0.0, 2.0, 1.5, 2.0, [3])


def test_riesz_bound_validation():
    f = Sampler.ball_indicator((0.0, 0.0), 0.5)
    with pytest.raises(VerifyError, match="alpha"):
        verify.riesz_boundedness_check(f, 2.5, 0.0, 2.0, 1.5, 6.0, [3])
    with pytest.raises(VerifyError, match="mu"):
        verify.riesz_boundedness_check(f, 1.0, 1.0, 2.0, 1.5, 6.0, [3])
    with pytest.raises(VerifyError, match="p must"):
        verify.riesz_boundedness_check(f, 1.0, 0.0, 2.0, 2.2, 6.0, [3])
    with pytest.raises(VerifyError, match="q must"):
        verify.riesz_boundedness_check(f, 1.0, 0.0, 2.0, 1.5, 3.9, [3])


def test_maximal_bound_validation():
    f = Sampler.ball_indicator((0.0, 0.0), 0.5)
    with pytest.raises(VerifyError, match="p must"):
        verify.maximal_inequality_check(f, 2.0, 0.5, 4.5, 1.0, 1.5, [3])
    with pytest.raises(VerifyError, match="r must"):
        verify.maximal_inequality_check(f, 2.0, 0.0, 1.5, 1.0, 0.9, [3])
    with pytest.raises(VerifyError, match="s must"):
        verify.maximal_inequality_check(f, 2.0, 0.0, 1.5, 2.0, 1.5, [3])


def test_maximal_bound_zero_function():
    rep = verify.maximal_inequality_check(
        Sampler.constant(0.0), 2.0, 0.0, 1.5, 1.5, 1.5, [3, 4]
    )
    assert rep.verdict
    assert all(v == 0.0 for k, v in rep.series if k.startswith("ratio"))


def test_sharpness_poincare_window_errors():
    with pytest.raises(VerifyError, match="eta"):
        verify.sharpness_poincare(2.0, 0.0, 1.05, 4.0, 4.0, -0.4,
                                  [0.25, 0.125, 0.0625, 0.03125], depth=4)
    with pytest.raises(VerifyError, match="s must"):
        verify.sharpness_poincare(2.0, 0.0, 1.5, 4.0, 4.0, -0.8,
                                  [0.25, 0.125, 0.0625, 0.03125], depth=4)


def test_sharpness_riesz_window_errors():
    with pytest.raises(VerifyError, match="eta"):
        verify.sharpness_riesz(2.0, 0.0, 1.0, 1.5, 8.0, 8.0, -1.0,
                               [0.5, 0.25, 0.125, 0.0625], depth=4)


@pytest.fixture
def no_grid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built before eps_list was checked")

    monkeypatch.setattr(verify, "make_grid", refuse)
    monkeypatch.setattr(verify, "sample", refuse)


@pytest.mark.parametrize("eps_list", [[0.5, 0.25, 0.125], [0.5, 0.25, 0.125, 0.0]])
def test_sharpness_eps_list_refused_before_any_grid(eps_list, no_grid):
    # three radii used to compute three depth-10 fields before the fit refused them
    with pytest.raises(VerifyError, match="^eps_list must hold at least 4 positive values"):
        verify.sharpness_riesz(2.0, 0.0, 1.0, 1.5, 8.0, 8.0, -1.3, eps_list)


# a radius at or past the outer one used to run three 1M-cell Riesz potentials
# before the annulus refused it as "invalid truncation annulus (20.0, 10.0)";
# NaN passed and failed the same way mid-sweep; a string, null or a bare number
# failed with Python's TypeError text, and true was spelled True
_FINITE = "eps_list must hold at least 4 positive values, each a finite number, got "


@pytest.mark.parametrize("experiment, eps_list, message", [
    ("sharpness_riesz", [0.5, 0.25, 0.125, 20],
     "eps_list must hold values below the outer radius 10, got [0.125, 0.25, 0.5, 20.0]"),
    ("sharpness_riesz", [0.5, 0.25, 0.125, verify.RIESZ_OUTER_RADIUS],
     "eps_list must hold values below the outer radius 10, got [0.125, 0.25, 0.5, 10.0]"),
    ("sharpness_poincare", [0.5, 0.25, 0.125, 1],
     "eps_list must hold values below the outer radius 1, got [0.125, 0.25, 0.5, 1.0]"),
    ("sharpness_poincare", [0.25, 0.125, 0.0625, math.nan], _FINITE + "[0.25, 0.125, 0.0625, NaN]"),
    ("sharpness_riesz", "a", _FINITE + '"a"'),
    ("sharpness_riesz", None, _FINITE + "null"),
    ("sharpness_poincare", 0.5, _FINITE + "0.5"),
    ("sharpness_poincare", [True, 0.25, 0.125, 0.0625], _FINITE + "[true, 0.25, 0.125, 0.0625]"),
])
def test_sharpness_eps_list_refused_by_name_before_any_grid(experiment, eps_list, message, no_grid):
    runner = getattr(verify, verify.EXPERIMENTS[experiment].runner)
    with pytest.raises(VerifyError) as refused:
        runner(**{**verify.EXPERIMENTS[experiment].defaults, "eps_list": eps_list})
    assert str(refused.value) == message


# traced peak bytes per cell of a sharpness run at 2D depth 9, with the Riesz
# kernel spectrum built inside it.  While a Sampler.annuli cut held the radii
# and powers of the grid through the sweep, the peaks were 58.5 (riesz) and
# 48.7 (poincare) B/cell; sampling each eps afresh they are 42.5 and 26.0
# (numpy 2.4.6).
@pytest.mark.parametrize("experiment, bytes_per_cell", [("sharpness_riesz", 45),
                                                        ("sharpness_poincare", 35)])
def test_sharpness_peak_memory(experiment, bytes_per_cell):
    runner = getattr(verify, verify.EXPERIMENTS[experiment].runner)
    cfg = verify.EXPERIMENTS[experiment].defaults
    runner(**{**cfg, "depth": 4})  # numpy's first-call allocations are not the sweep's
    operators._riesz_spectrum.cache_clear()
    tracemalloc.start()
    try:
        runner(**{**cfg, "depth": 9})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_cell * 4**9


def _sweep_fields(runner, monkeypatch, **overrides):
    """The fields(eps) callback a sharpness runner hands to _eps_sweep, at its default exponents."""
    captured = []
    monkeypatch.setattr(verify, "_eps_sweep", lambda *args: captured.append(args[4]))
    cfg = {**verify.EXPERIMENTS[runner].defaults, **overrides}
    getattr(verify, verify.EXPERIMENTS[runner].runner)(**cfg)
    return captured[0], cfg


def _same_bits(a, b):
    return a.grid == b.grid and a.values.tobytes() == b.values.tobytes()


# each eps must see what sampling its own truncated sampler gives
@pytest.mark.parametrize("dim, depth", [(1, 5), (1, 8), (2, 3), (2, 5), (3, 2), (3, 4)])
def test_sharpness_shared_fields_equal_sampling(dim, depth, monkeypatch):
    center = (0.0,) * dim
    # the default delta = 2 is above dim in 1D, where delta = 1 takes p and eta inside their windows
    poincare_1d, riesz_1d = ({"delta": 1.0, "p": 0.5}, {"delta": 1.0, "eta": -0.65}) if dim == 1 else ({}, {})
    fields, cfg = _sweep_fields("sharpness_poincare", monkeypatch, dim=dim, depth=depth, **poincare_1d)
    grid = make_grid(dim, depth, verify.ROOT_SIDE)
    for eps in (0.5, 0.25, 0.2, 0.125, 0.03125, 0.25):
        u = Sampler.radial_power(cfg["eta"], center, annulus=(eps, 1.0))
        left, right = fields(eps)
        assert _same_bits(left, sample(u, grid)) and _same_bits(right, gradient_magnitude(u, grid))

    # alpha must lie below dim; eta = -1.3 stays inside the window at alpha = 0.5, delta = 2
    fields, cfg = _sweep_fields("sharpness_riesz", monkeypatch, dim=dim, depth=depth, alpha=0.5,
                                **riesz_1d)
    grid = make_grid(dim, depth, verify.RIESZ_ROOT_SIDE)
    for eps in (2.0, 0.5, 0.25, 0.125, 0.5):
        u = Sampler.radial_power(cfg["eta"], center, annulus=(eps, verify.RIESZ_OUTER_RADIUS))
        left, right = fields(eps)
        assert _same_bits(right, sample(u, grid))
        assert _same_bits(left, riesz(sample(u, grid), cfg["alpha"]))


def test_sharpness_runners_return_one_report_with_the_slope_in_the_series():
    rep = verify.sharpness_poincare(2.0, 0.0, 1.05, 4.0, 4.0, -0.8,
                                    [0.25, 0.125, 0.0625, 0.03125], depth=4)
    assert isinstance(rep, verify.ExperimentReport)
    series = dict(rep.series)
    lhs = [series[f"lhs@eps={eps:g}"] for eps in rep.params["eps_list"]]
    slope, r_squared = fit_loglog(rep.params["eps_list"], lhs)
    assert (series["fitted_slope"], series["r_squared"]) == (slope, r_squared)


def test_report_reproducible():
    rep1 = verify.poincare_check(BALL, LINEAR, 2.0, 1.5, 1.5, [3, 4])
    rep2 = verify.poincare_check(BALL, LINEAR, 2.0, 1.5, 1.5, [3, 4])
    assert rep1.to_dict() == rep2.to_dict()
    assert rep1.provenance["config_hash"] == rep2.provenance["config_hash"]


def test_compact_support_margin_guard():
    with pytest.raises(VerifyError, match="margin"):
        verify.compact_support_check(BALL, Sampler.bump((0.0, 0.0), 0.99),
                                     2.0, 1.5, 1.5, 0.0, [4])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_grow_matches_binary_dilation(dim):
    # the margin test's growth: two dilations by the 3^dim box, zero outside the grid
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(dim)
    box = np.ones((3,) * dim, dtype=bool)
    for _ in range(40):
        mask = rng.random(tuple(rng.integers(1, 13, size=dim))) < rng.uniform(0.0, 0.2)
        ref = ndimage.binary_dilation(mask, structure=box, iterations=2)
        np.testing.assert_array_equal(verify._box_grow(mask, 2), ref)


def test_compact_support_zero_function():
    rep = verify.compact_support_check(BALL, Sampler.constant(0.0),
                                       2.0, 1.5, 1.5, 0.0, [3, 4])
    assert rep.verdict
    assert all(v == 0.0 for _, v in rep.series)


def test_fit_loglog_returns_slope_and_r_squared():
    slope, r_squared = fit_loglog([1.0, 2.0, 4.0, 8.0], [2.0, 4.0, 8.0, 16.0])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert r_squared == pytest.approx(1.0, abs=1e-12)


def test_riesz_bound_zero_function():
    rep = verify.riesz_boundedness_check(
        Sampler.constant(0.0), 1.0, 0.0, 2.0, 1.5, 6.0, [3, 4]
    )
    assert rep.verdict
    assert all(v == 0.0 for k, v in rep.series if k.startswith("ratio"))


def test_john_constants_recorded_in_report():
    rep = verify.poincare_check(BALL, LINEAR, 2.0, 1.5, 1.5, [3], b_scan=False)
    assert rep.params["alpha_john"] == 1.0
    assert rep.params["beta_john"] == 1.0
    assert rep.params["john_center"] == [0.0, 0.0]


def test_ball_radius_family_recorded():
    # ratios across ball radii 1, 2, 4 are recorded as diagnostics; no
    # trend in the John-constant dependence is asserted
    ratios = {}
    for k in (1.0, 2.0, 4.0):
        rep = verify.poincare_check(Shape.ball((0.0, 0.0), k), LINEAR,
                                    2.0, 1.5, 1.5, [4, 5], b_scan=False)
        assert rep.verdict
        ratios[k] = dict(rep.series)["ratio@d5"]
    assert all(math.isfinite(r) and r > 0 for r in ratios.values())


# the b-scan ---------------------------------------------------------------


def _golden_points_60(fun, lo, hi):
    """The b-scan's golden section before its stop rule: 60 steps, every point in order."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    points = []

    def at(x):
        points.append(x)
        return fun(x)

    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = at(c), at(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = at(d)
    return min(fc, fd), points


# |x - x0|^power + base on [lo, lo + width]; x0 may lie outside, making it monotone
unimodal = st.tuples(
    st.floats(-100.0, 100.0), st.floats(1e-6, 1e3), st.floats(-0.5, 1.5),
    st.floats(0.5, 3.0), st.floats(-10.0, 10.0),
)


def _unimodal(case):
    lo, width, where, power, base = case
    x0 = lo + where * width
    return lo, lo + width, base, lambda x: base + abs(x - x0) ** power


def _recording(fun):
    points, values = [], []

    def at(x):
        points.append(x)
        values.append(fun(x))
        return values[-1]

    return at, points, values


def test_b_scan_steps_narrow_the_bracket_to_b_scan_rtol():
    assert verify.B_SCAN_STEPS == 15
    assert verify.INVPHI ** (verify.B_SCAN_STEPS - 1) > verify.B_SCAN_RTOL
    assert verify.INVPHI ** verify.B_SCAN_STEPS <= verify.B_SCAN_RTOL


@given(unimodal)
@settings(max_examples=200, deadline=None)
def test_golden_min_evaluates_a_prefix_of_the_60_step_scan(case):
    lo, hi, _, fun = _unimodal(case)
    at, points, values = _recording(fun)
    best = verify._golden_min(at, lo, hi, lambda best: False)
    assert best == min(values)
    assert len(points) == 2 + verify.B_SCAN_STEPS <= 17
    ref_best, ref_points = _golden_points_60(fun, lo, hi)
    assert points == ref_points[: len(points)]
    assert best >= ref_best


@given(unimodal, st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_golden_min_makes_no_evaluation_once_settled(case, share):
    lo, hi, base, fun = _unimodal(case)
    cut = base + share * (max(fun(lo), fun(hi)) - base)  # share 0 never settles
    at, points, values = _recording(fun)
    best = verify._golden_min(at, lo, hi, lambda best: best < cut)
    assert best == min(values)
    running = np.minimum.accumulate(values)
    decided = [i for i in range(1, len(values)) if running[i] < cut]
    if decided:  # the evaluation that decided it is the last one made
        assert len(values) == decided[0] + 1 and best < cut
    else:
        assert len(values) == 2 + verify.B_SCAN_STEPS


@pytest.mark.parametrize("sampler, verdict", [
    (LINEAR, 1.0),
    (Sampler.radial_power(0.5, center=(0.0, 0.0)), 0.0),  # settles at the second point
])
def test_poincare_b_scan_norm_evaluations_per_depth(sampler, verdict, monkeypatch):
    # at delta < dim each evaluation is a content-tree sweep; the 60-step scan made 62
    full_scan = lambda fun, lo, hi, settled: _golden_points_60(fun, lo, hi)[0]  # noqa: E731
    monkeypatch.setattr(verify, "_golden_min", full_scan)
    reference = verify.poincare_check(BALL, sampler, 1.5, 1.5, 1.5, [4])
    monkeypatch.undo()
    calls = []
    norm = verify.lorentz_norm
    monkeypatch.setattr(verify, "lorentz_norm", lambda f, exps: calls.append(exps) or norm(f, exps))
    report = verify.poincare_check(BALL, sampler, 1.5, 1.5, 1.5, [4])
    assert report.series == reference.series
    assert dict(report.series)["b_scan_ok@d4"] == verdict
    assert len(calls) <= 2 + 17
    assert verdict or len(calls) < 2 + 17  # a failed verdict stops the scan early
