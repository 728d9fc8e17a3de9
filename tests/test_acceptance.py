"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import json
import math

import numpy as np
import pytest

from capnorm import verify
from capnorm.choquet import (
    LorentzExponents,
    choquet_integral,
    choquet_p_norm,
    dyadic_sum_comparability,
    lorentz_norm,
    lorentz_norm_dyadic,
)
from capnorm.cli import run
from capnorm.content import content_oracle, content_value, subadditivity_slack
from capnorm.domains import Shape
from capnorm.grid import CellSet, GridFunction, Sampler, make_grid
from capnorm.verify import growth_factors_ok


def _line(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


def _random_step_function(grid, rng, max_levels=5):
    vals = np.zeros(grid.shape)
    for v in np.sort(rng.uniform(0.1, 5.0, size=rng.integers(1, max_levels + 1))):
        vals[rng.random(grid.shape) < 0.4] = v
    return GridFunction(grid, vals)


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(1001)
    ok = True
    # 1D grids, depths up to 4; delta grid restricted to (0, dim]
    for depth in (2, 3, 4):
        g = make_grid(1, depth, 1.0, origin=(0.0,))
        n = 1000 if depth == 4 else 100
        for _ in range(n):
            cells = CellSet(g, rng.random(g.shape) < rng.random())
            for delta in (0.5, 1.0):
                dp = content_value(cells, delta)
                ok &= abs(dp - content_oracle(cells, delta)) <= 1e-12 * max(1.0, dp)
    g2 = make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    for _ in range(200):
        cells = CellSet(g2, rng.random(g2.shape) < rng.random())
        for delta in (0.5, 1.0, 1.5, 2.0):
            dp = content_value(cells, delta)
            ok &= abs(dp - content_oracle(cells, delta)) <= 1e-12 * max(1.0, dp)
    _line(1, "dyadic content equals the exhaustive cover oracle", ok)


def test_criterion_02_delta_dim_is_lebesgue():
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(500):
        dim = int(rng.integers(1, 4))
        depth = {1: 6, 2: 4, 3: 3}[dim]
        g = make_grid(dim, depth, float(rng.uniform(0.5, 2.0)))
        cells = CellSet(g, rng.random(g.shape) < rng.random())
        ok &= abs(content_value(cells, float(dim)) - cells.measure) <= 1e-12
    _line(2, "content at delta = dim equals the Lebesgue measure", ok)


def test_criterion_03_strong_subadditivity():
    rng = np.random.default_rng(1003)
    g = make_grid(2, 4, 1.0)
    violations = 0
    for _ in range(500):
        a = CellSet(g, rng.random(g.shape) < rng.random())
        b = CellSet(g, rng.random(g.shape) < rng.random())
        if subadditivity_slack(a, b, float(rng.uniform(0.3, 2.0))) < -1e-12:
            violations += 1
    _line(3, "strong subadditivity on 500 random pairs", violations == 0)


def test_criterion_04_norm_identities():
    rng = np.random.default_rng(1004)
    g = make_grid(2, 3, 1.0)
    ok = True
    for _ in range(100):
        f = _random_step_function(g, rng)
        # L^{p,p} = L^p, exact
        for p in (0.7, 1.0, 1.5, 2.0):
            ok &= lorentz_norm(f, LorentzExponents(p, p, 1.3)) == choquet_p_norm(f, p, 1.3)
        # power identity, 1e-10 relative
        for nu in (0.5, 2.0, 3.0):
            lhs = lorentz_norm(f.power(nu), LorentzExponents(1.1, 1.7, 1.3))
            rhs = lorentz_norm(f, LorentzExponents(nu * 1.1, nu * 1.7, 1.3)) ** nu
            ok &= abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)
        # dyadic-sum comparability within the derived constants
        p, q = float(rng.uniform(0.7, 2.5)), float(rng.uniform(0.7, 3.0))
        exps = LorentzExponents(p, q, 1.3)
        direct = lorentz_norm(f, exps)
        dyadic = lorentz_norm_dyadic(f, exps)
        lo, hi = dyadic_sum_comparability(p, q)
        ok &= lo * direct * (1 - 1e-12) <= dyadic <= hi * direct * (1 + 1e-12)
    _line(4, "norm identities (p,p / power / dyadic comparability)", ok)


def test_criterion_05_nonlinearity_bound():
    rng = np.random.default_rng(1005)
    g = make_grid(2, 3, 1.0)
    violations = 0
    for _ in range(200):
        f = _random_step_function(g, rng)
        h = _random_step_function(g, rng)
        if choquet_integral(f + h, 1.3) > 2 * (
            choquet_integral(f, 1.3) + choquet_integral(h, 1.3)
        ) + 1e-12:
            violations += 1
    _line(5, "layer-cake nonlinearity bound on 200 random pairs", violations == 0)


def test_criterion_06_maximal_inequality_stability():
    family = {
        "indicator": Sampler.ball_indicator((0.0, 0.0), 0.5),
        "power": Sampler.radial_power(-0.5, center=(0.0, 0.0), annulus=(0.1, 1.0)),
        "bump": Sampler.bump((0.0, 0.0), 0.8),
    }
    tuples = [(2.0, 0.0, 1.5, 1.5, 1.5), (2.0, 0.5, 1.5, 1.0, 1.5), (1.5, 0.0, 1.0, 1.0, 1.0)]
    ok = True
    for delta, mu, p, s, r in tuples:
        for name, f in family.items():
            rep = verify.maximal_inequality_check(f, delta, mu, p, s, r, depths=[4, 5, 6, 7])
            ok &= rep.verdict
    _line(6, "maximal operator Lorentz bound stable over depths 4..7", ok)


def test_criterion_07_hedberg_stability():
    f = Sampler.ball_indicator((0.0, 0.0), 0.5)
    main = verify.hedberg_constant_check(f, alpha=1.0, mu=0.0, delta=2.0,
                                         p=1.5, q=1.5, depths=[5, 6, 7])
    endpoint = verify.hedberg_constant_check(f, alpha=1.0, mu=0.0, delta=2.0,
                                             p=1.0, q=1.0, depths=[5, 6, 7])
    _line(7, "Hedberg pointwise constant finite and 20%-stable, both branches",
          main.verdict and endpoint.verdict)


def test_criterion_08_poincare_family():
    ball = Shape.ball((0.0, 0.0), 1.0)
    x1 = Sampler.linear([1.0, 0.0])
    ok = True

    # constant test functions give exactly zero
    rep = verify.poincare_check(ball, Sampler.constant(2.0), 2.0, 1.5, 1.5, [4, 5])
    ok &= rep.verdict and all(v == 0.0 for k, v in rep.series if k.startswith("ratio"))

    ok &= verify.poincare_check(ball, x1, 2.0, 1.5, 1.5, [4, 5, 6]).verdict
    ok &= verify.poincare_check(ball, Sampler.radial_power(0.5, center=(0.0, 0.0)),
                                1.5, 1.2, 1.2, [4, 5, 6]).verdict
    ok &= verify.poincare_weak_check(ball, x1, 2.0, [4, 5, 6]).verdict
    ok &= verify.poincare_weak_check(ball, Sampler.radial_power(0.6, center=(0.0, 0.0)),
                                     1.0, [4, 5, 6]).verdict
    ok &= verify.poincare_sobolev_check(ball, x1, 0.0, 2.0, 1.5, 6.0, [4, 5, 6]).verdict
    ok &= verify.poincare_sobolev_check(ball, x1, 0.5, 2.0, 1.2, 2.1, [4, 5, 6]).verdict
    ok &= verify.poincare_sobolev_check(ball, x1, 0.5, 2.0, 1.0, None, [4, 5, 6]).verdict
    ok &= verify.compact_support_check(ball, Sampler.bump((0.0, 0.0), 0.7),
                                       2.0, 1.5, 1.5, 0.0, [4, 5, 6]).verdict
    f_ind = Sampler.ball_indicator((0.0, 0.0), 0.5)
    ok &= verify.riesz_boundedness_check(f_ind, 1.0, 0.0, 2.0, 1.5, 6.0, [4, 5, 6]).verdict
    ok &= verify.riesz_boundedness_check(f_ind, 1.0, 0.0, 2.0, 1.0, None, [4, 5, 6]).verdict
    # other John shapes
    ok &= verify.poincare_check(Shape.rectangle((0.0, 0.0), (1.6, 1.0)), x1,
                                2.0, 1.5, 1.5, [4, 5, 6], c_ball=1.0).verdict
    ok &= verify.poincare_check(Shape.l_shape((-0.5, -0.5), 1.0), x1,
                                2.0, 1.5, 1.5, [4, 5, 6], c_ball=1.0).verdict
    _line(8, "Poincare / Sobolev / compact-support / Riesz ratios stable", ok)


def test_criterion_09_sharpness_gradient():
    rep = verify.sharpness_poincare(
        delta=2.0, mu=0.0, p=1.05, s=4.0, q=4.0, eta=-0.8,
        eps_list=[2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5], depth=8,
    )
    d = dict(rep.series)
    ok = abs(d["fitted_slope"] - (-0.3)) <= 0.05 and d["rhs_variation"] < 0.10
    print(f"  slope {d['fitted_slope']:.4f} (target -0.30 +- 0.05), "
          f"gradient-norm variation {d['rhs_variation']:.4f}")
    _line(9, "gradient sharpness scaling at depth 8", ok and rep.verdict)


def test_criterion_10_sharpness_riesz():
    rep = verify.sharpness_riesz(
        delta=2.0, mu=0.0, alpha=1.0, p=1.5, s=8.0, q=8.0, eta=-1.3,
        eps_list=[0.5, 0.25, 0.125, 0.0625], depth=10,
    )
    d = dict(rep.series)
    ok = d["fitted_slope"] <= d["predicted_blowup"] + 0.05 and d["rhs_variation"] < 0.10
    print(f"  slope {d['fitted_slope']:.4f} (must be <= {d['predicted_blowup'] + 0.05:.4f}), "
          f"source-norm variation {d['rhs_variation']:.4f}")
    _line(10, "Riesz sharpness blow-up at depth 10", ok and rep.verdict)


def test_criterion_11_interpolation_comparability():
    from capnorm.interp import InterpPair, interpolation_norm
    from capnorm.grid import sample

    pair = InterpPair(p0=1.0, p1=3.0, delta=1.5, eta=0.5, q_interp=2.0)
    exps = LorentzExponents(pair.p, pair.q_interp, pair.delta)
    rng = np.random.default_rng(1011)
    samplers = []
    for _ in range(50):
        kind = rng.integers(0, 3)
        cx, cy = rng.uniform(-0.3, 0.3, size=2)
        if kind == 0:
            samplers.append(Sampler.ball_indicator((cx, cy), float(rng.uniform(0.2, 0.6))))
        elif kind == 1:
            samplers.append(Sampler.radial_power(float(rng.uniform(-0.6, 0.8)),
                                                 center=(cx, cy),
                                                 annulus=(0.05, float(rng.uniform(0.5, 1.0)))))
        else:
            samplers.append(Sampler.bump((cx, cy), float(rng.uniform(0.3, 0.6)),
                                         amplitude=float(rng.uniform(0.5, 3.0))))
    windows = {}
    for depth in (4, 5):
        g = make_grid(2, depth, 2.0)
        ratios = []
        for s in samplers:
            f = sample(s, g)
            direct = lorentz_norm(f, exps)
            if direct == 0:
                continue
            ratios.append(interpolation_norm(f, pair) / direct)
        windows[depth] = (min(ratios), max(ratios))
    ok = True
    for depth, (lo, hi) in windows.items():
        ok &= hi / lo <= 100.0
    lo4, hi4 = windows[4]
    lo5, hi5 = windows[5]
    ok &= abs(lo5 / lo4 - 1.0) <= 0.20 and abs(hi5 / hi4 - 1.0) <= 0.20
    print(f"  windows: depth4 [{lo4:.3f}, {hi4:.3f}], depth5 [{lo5:.3f}, {hi5:.3f}]")
    _line(11, "interpolation-to-Lorentz ratio window tight and refinement-stable", ok)


def test_criterion_12_determinism(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        assert run(["verify", "maximal_bound", "--set", "depths=[3,4]"]) == 0
        outputs.append(capsys.readouterr().out)
    ok = outputs[0] == outputs[1]
    for _ in range(2):
        assert run(["selftest"]) == 0
    st = capsys.readouterr().out
    half = len(st) // 2
    ok &= st[:half] == st[half:]
    with capsys.disabled():
        _line(12, "byte-identical reruns of experiment and selftest", ok)
