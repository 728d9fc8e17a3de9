import math
import re

import numpy as np
import pytest

from capnorm.choquet import LorentzExponents, choquet_p_norm, distribution, lorentz_norm
from capnorm.content import content_value
from capnorm.grid import CellSet, GridFunction, Sampler, make_grid, sample
from capnorm import interp
from capnorm.interp import (
    QUAD_RTOL,
    InterpError,
    InterpPair,
    _interior_integrals,
    interpolation_norm,
    interpolation_norm_of,
    k_envelope,
    k_functional_upper,
    k_profile,
    k_profile_of,
)

GRID = make_grid(2, 4, 1.0, origin=(0.0, 0.0))
RNG = np.random.default_rng(99)
PAIR = InterpPair(p0=1.0, p1=3.0, delta=1.5, eta=0.5, q_interp=2.0)


def random_step_function():
    vals = np.zeros(GRID.shape)
    for v in np.sort(RNG.uniform(0.2, 4.0, size=RNG.integers(1, 5))):
        vals[RNG.random(GRID.shape) < 0.4] = v
    return GridFunction(GRID, vals)


def test_pair_validation():
    assert PAIR.p == pytest.approx(1.5)
    with pytest.raises(InterpError):
        InterpPair(p0=2.0, p1=1.0, delta=1.0, eta=0.5, q_interp=3.0)
    with pytest.raises(InterpError):
        InterpPair(p0=1.0, p1=2.0, delta=1.0, eta=1.5, q_interp=3.0)
    with pytest.raises(InterpError):
        InterpPair(p0=1.0, p1=2.0, delta=1.0, eta=0.5, q_interp=0.5)  # q <= p0


def test_k_bounded_by_trivial_splittings():
    for _ in range(10):
        f = random_step_function()
        n0 = choquet_p_norm(f, PAIR.p0, PAIR.delta)
        n1 = choquet_p_norm(f, PAIR.p1, PAIR.delta)
        for t in (0.01, 1.0, 50.0):
            k = k_functional_upper(f, PAIR, t)
            assert k <= min(n0, t * n1) * (1 + 1e-12)


def test_k_indicator_closed_form():
    cells = CellSet(GRID, RNG.random(GRID.shape) < 0.4)
    ind = GridFunction(GRID, cells.mask.astype(float))
    h = content_value(cells, PAIR.delta)
    a, b = h ** (1 / PAIR.p0), h ** (1 / PAIR.p1)
    for t in np.geomspace(1e-3, 1e3, 9):
        assert k_functional_upper(ind, PAIR, t) == pytest.approx(min(a, t * b), rel=1e-13)


def test_k_monotone_in_t():
    f = random_step_function()
    ts = np.geomspace(1e-4, 1e4, 20)
    ks = [k_functional_upper(f, PAIR, t) for t in ts]
    assert all(k2 >= k1 * (1 - 1e-13) for k1, k2 in zip(ks, ks[1:]))


def test_k_homogeneous():
    f = random_step_function()
    for t in (0.1, 1.0, 10.0):
        assert k_functional_upper(f.scale(4.0), PAIR, t) == pytest.approx(
            4.0 * k_functional_upper(f, PAIR, t), rel=1e-12
        )


@pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0])
def test_k_requires_positive_t(t):
    bump = sample(Sampler.bump((0.5, 0.5), 0.4), GRID)
    with pytest.raises(InterpError, match="t must be positive and finite"):
        k_functional_upper(bump, PAIR, t)


def test_interpolation_norm_zero():
    assert interpolation_norm(GridFunction.zeros(GRID), PAIR) == 0.0


# a cut between the two endpoints whose norms both underflow gives the line (0, 0), which
# lies below every other line, so K vanishes on a nonzero f: k_envelope refuses it, for
# K(t), its profile and the interpolation norm alike
def test_interpolation_norm_refuses_an_envelope_of_one_line():
    values = np.full(16, 5e-324)
    values[0] = 1.0
    f = GridFunction(make_grid(1, 4, 1.0, origin=(0.0,)), values)
    pair = InterpPair(p0=1e-3, p1=1.5, delta=1.0, eta=0.5, q_interp=2.0)
    dist = distribution(f, pair.delta)
    a, b = interp._truncation_lines(dist, pair.p0, pair.p1)
    assert a[0] > 0 and b[-1] > 0 and ((a == 0) & (b == 0)).any()
    message = re.escape("K vanishes: a truncation cut's norms at p0=0.001 and p1=1.5 both underflow")
    with pytest.raises(InterpError, match=message):
        k_envelope(dist, pair)
    for front_end in (lambda: k_functional_upper(f, pair, 1.0), lambda: k_profile(f, pair),
                      lambda: interpolation_norm(f, pair)):
        with pytest.raises(InterpError, match=message):
            front_end()


# the hull pass on given lines (a, b), cut k = 0 first: a line that is the minimum
# at no t > 0, or at one t only, is not an envelope line
@pytest.mark.parametrize("a, b, hull_a, hull_b, breaks", [
    # three lines through (1, 2): the middle one touches the envelope at t = 1 alone
    ([2.0, 1.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0], [2.0, 0.0], [1.0]),
    # two lines of intercept 0 (an intercept that underflowed): the steeper one is above
    # the other at every t > 0
    ([2.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0], [1.0, 0.0], [2.0]),
], ids=["concurrent", "equal_intercepts"])
def test_hull_keeps_only_lines_active_on_an_interval(a, b, hull_a, hull_b, breaks, monkeypatch):
    monkeypatch.setattr(interp, "_truncation_lines", lambda dist, p0, p1: (np.array(a), np.array(b)))
    env = k_envelope(distribution(random_step_function(), PAIR.delta), PAIR)
    assert (env.a.tolist(), env.b.tolist(), env.breaks.tolist()) == (hull_a, hull_b, breaks)


def test_interpolation_norm_indicator_closed_form():
    cells = CellSet(GRID, RNG.random(GRID.shape) < 0.4)
    ind = GridFunction(GRID, cells.mask.astype(float))
    h = content_value(cells, PAIR.delta)
    a, b = h ** (1 / PAIR.p0), h ** (1 / PAIR.p1)
    eta, q = PAIR.eta, PAIR.q_interp
    tstar = a / b
    exact = (
        b**q * tstar ** ((1 - eta) * q) / ((1 - eta) * q)
        + a**q * tstar ** (-eta * q) / (eta * q)
    ) ** (1 / q)
    assert interpolation_norm(ind, PAIR) == pytest.approx(exact, rel=1e-4)


def test_interpolation_norm_scales_linearly():
    f = random_step_function()
    assert interpolation_norm(f.scale(2.5), PAIR) == pytest.approx(
        2.5 * interpolation_norm(f, PAIR), rel=1e-10
    )


def test_ratio_window_small_family():
    exps = LorentzExponents(PAIR.p, PAIR.q_interp, PAIR.delta)
    ratios = []
    for _ in range(12):
        f = random_step_function()
        direct = lorentz_norm(f, exps)
        if direct == 0:
            continue
        ratios.append(interpolation_norm(f, PAIR) / direct)
    assert max(ratios) / min(ratios) <= 100.0


def test_k_profile_grid_and_tails():
    f = random_step_function()
    t, k = k_profile(f, PAIR)
    assert t.size == 64 and k.size == 64
    assert np.all(np.diff(t) > 0)
    # ends sit deep in the pure-power tails
    n0 = choquet_p_norm(f, PAIR.p0, PAIR.delta)
    n1 = choquet_p_norm(f, PAIR.p1, PAIR.delta)
    assert k[0] == pytest.approx(t[0] * n1, rel=1e-6)
    assert k[-1] == pytest.approx(n0, rel=1e-6)


def test_sampled_function_interpolation():
    g = make_grid(2, 5, 2.0)
    f = sample(Sampler.radial_power(-0.4, center=(0.0, 0.0)), g)
    pair = InterpPair(p0=1.0, p1=3.0, delta=1.5, eta=0.5, q_interp=2.0)
    n = interpolation_norm(f, pair)
    direct = lorentz_norm(f, LorentzExponents(pair.p, pair.q_interp, pair.delta))
    assert 0 < n < math.inf
    assert 0.01 <= n / direct <= 100.0


# (eta, q, segments (a, b, t0, t1)); the last two groups span ln(t1/t0) >= 30 at q >= 8
SEGMENT_GROUPS = [
    (0.5, 2.0, [(1.0, 1.0, 0.1, 10.0), (3.0, 0.2, 0.5, 40.0), (0.01, 5.0, 1e-4, 2e-3)]),
    (0.3, 2.5, [(1.0, 1.0, 1e-3, 1e3), (2.0, 0.5, 4.0, 4.000001)]),
    (0.9, 1.2, [(1.0, 1.0, 1e-8, 1e8), (5.0, 1e-3, 1e2, 1e4)]),
    (0.5, 8.0, [(0.7, 2.0, 1e-7, 1e7), (1.0, 1.0, 1e-20, 1e-6)]),
    (0.1, 12.0, [(2.0, 1e-3, 1e-5, 1e9), (1e-3, 3.0, 1e-10, 1e5)]),
]


@pytest.mark.parametrize("eta, q, segments", SEGMENT_GROUPS)
def test_interior_integrals_match_quad(eta, q, segments):
    integrate = pytest.importorskip("scipy.integrate")
    a, b, t0, t1 = (list(col) for col in zip(*segments))
    values, estimate = _interior_integrals(a, b, eta, q, t0, t1)
    for value, (ai, bi, lo, hi) in zip(values, segments):
        ref, _ = integrate.quad(lambda s: (math.exp(-eta * s) * (ai + bi * math.exp(s))) ** q,
                                math.log(lo), math.log(hi), epsabs=0.0, epsrel=1e-12, limit=500)
        assert value == pytest.approx(ref, rel=1e-11, abs=0.0)
    assert estimate <= QUAD_RTOL * float(np.sum(values))


def test_interpolation_norm_refuses_a_large_error_estimate(monkeypatch):
    # a 1-point estimate rule differs from the 20-point value far beyond QUAD_RTOL
    monkeypatch.setattr(interp, "GL_LOW", 1)
    g = make_grid(2, 5, 2.0)
    f = sample(Sampler.radial_power(-0.4, center=(0.0, 0.0)), g)
    with pytest.raises(InterpError, match="quadrature error estimate"):
        interpolation_norm(f, PAIR)


# a 2- or 3-point estimate rule leaves a relative estimate of about 4.3e-7 or
# 1.4e-10 on this field: refused at QUAD_RTOL = 1e-10, accepted by a looser bound
@pytest.mark.parametrize("low", [2, 3])
def test_interpolation_norm_refuses_an_estimate_just_above_quad_rtol(monkeypatch, low):
    monkeypatch.setattr(interp, "GL_LOW", low)
    f = sample(Sampler.radial_power(-0.4, center=(0.0, 0.0)), make_grid(2, 5, 2.0))
    with pytest.raises(InterpError, match="quadrature error estimate .* exceeds 1e-10 of the total"):
        interpolation_norm(f, PAIR)


# a tiny eta q put the report grid's far cutoff beyond double precision, an
# OverflowError traceback; a tiny (1 - eta) q underflowed the near one to 0
@pytest.mark.parametrize("eta", [1e-12, 1.0 - 1e-12])
def test_k_profile_refuses_a_grid_outside_double_precision(eta):
    f = sample(Sampler.ball_indicator((0.0, 0.0), 0.5), make_grid(2, 4, 2.0))
    pair = InterpPair(p0=1.0, p1=3.0, delta=1.5, eta=eta, q_interp=1.5)
    with pytest.raises(InterpError, match=re.escape(f"t-grid at eta={eta:g}, q=1.5 leaves double")):
        k_profile(f, pair)


# an edge endpoint exponent leaked numpy's overflow warning (p0 = 1e-300,
# p0 = 1e-3), ended in a ZeroDivisionError in the report grid (p1 = 1e300),
# gave K = 0 for a nonzero f (p1 = 1e300) or a quadrature of inf panels (p0 = 1e-3)
@pytest.mark.parametrize("entry", [
    lambda f, pair: k_functional_upper(f, pair, 1.0), k_profile, interpolation_norm,
    lambda f, pair: k_profile_of(k_envelope(distribution(f, pair.delta), pair), pair),
    lambda f, pair: interpolation_norm_of(k_envelope(distribution(f, pair.delta), pair), pair),
], ids=["k_functional_upper", "k_profile", "interpolation_norm", "k_profile_of",
        "interpolation_norm_of"])
@pytest.mark.parametrize("p0, p1, name", [
    (1e-300, 3.0, "p0"), (1e-3, 3.0, "p0"), (1.0, 1e300, "p1"),
])
def test_k_profile_refuses_an_endpoint_norm_outside_double_precision(p0, p1, name, entry):
    f = sample(Sampler.bump((0.0, 0.0), 0.8), make_grid(2, 4, 2.0))
    pair = InterpPair(p0=p0, p1=p1, delta=1.5, eta=0.5, q_interp=2.0)
    with pytest.raises(InterpError, match=re.escape(f"endpoint norm ||f||_{name} at {name}=")):
        entry(f, pair)


# a huge q asked for one panel per 1/q of log t: trillions of panels, and
# numpy's MemoryError, or at a smaller count gigabytes allocated
def test_quadrature_refuses_more_panels_than_its_limit():
    with pytest.raises(InterpError, match="needs 6.91e\\+12 panels, above QUAD_PANEL_LIMIT"):
        _interior_integrals([1.0], [1.0], 0.5, 1e12, [1e-3], [1e3])
    f = sample(Sampler.bump((0.0, 0.0), 0.8), make_grid(2, 4, 2.0))
    with pytest.raises(InterpError, match="QUAD_PANEL_LIMIT"):
        interpolation_norm(f, InterpPair(p0=1.0, p1=3.0, delta=2.0, eta=0.5, q_interp=1e12))
