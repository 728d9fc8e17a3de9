import math

import numpy as np
import pytest

from capnorm.domains import Shape
from capnorm.grid import Sampler
from capnorm import verify
from capnorm.verify import (
    SlopeFit,
    VerifyError,
    fit_loglog,
    gradient_eta_window,
    gradient_slope_prediction,
    growth_factors_ok,
    riesz_blowup_prediction,
    riesz_eta_window,
    riesz_left_exponent,
    riesz_q_lower,
    riesz_right_q,
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
    fit = fit_loglog(xs, xs**-0.3)
    assert fit.slope == pytest.approx(-0.3, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


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


def test_poincare_weak_requires_endpoint():
    with pytest.raises(VerifyError, match="delta/dim"):
        verify.poincare_weak_check(BALL, LINEAR, 2.0, 1.5, [3])


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


def test_report_reproducible():
    rep1 = verify.poincare_check(BALL, LINEAR, 2.0, 1.5, 1.5, [3, 4])
    rep2 = verify.poincare_check(BALL, LINEAR, 2.0, 1.5, 1.5, [3, 4])
    assert rep1.to_dict() == rep2.to_dict()
    assert rep1.provenance["config_hash"] == rep2.provenance["config_hash"]


def test_compact_support_margin_guard():
    with pytest.raises(VerifyError, match="margin"):
        verify.compact_support_check(BALL, Sampler.bump((0.0, 0.0), 0.99),
                                     2.0, 1.5, 1.5, 0.0, [4])


def test_compact_support_zero_function():
    rep = verify.compact_support_check(BALL, Sampler.constant(0.0),
                                       2.0, 1.5, 1.5, 0.0, [3, 4])
    assert rep.verdict
    assert all(v == 0.0 for _, v in rep.series)


def test_slope_fit_dataclass_fields():
    fit = fit_loglog([1.0, 2.0, 4.0, 8.0], [2.0, 4.0, 8.0, 16.0])
    assert isinstance(fit, SlopeFit)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert len(fit.xs) == 4


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
