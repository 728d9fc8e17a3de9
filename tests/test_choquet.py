import math

import numpy as np
import pytest

from capnorm.choquet import (
    MERGE_RTOL,
    ExponentError,
    LorentzExponents,
    StepDistribution,
    choquet_integral,
    choquet_p_norm,
    distribution,
    dyadic_sum_comparability,
    dyadic_sum_norm_of,
    lebesgue_embedding_constant,
    lebesgue_lorentz_norm,
    lorentz_norm,
    lorentz_norm_dyadic,
    lorentz_norm_of,
)
from capnorm.content import ContentEngine, content_value
from capnorm.grid import CellSet, GridFunction, make_grid

GRID = make_grid(2, 3, 1.0, origin=(0.0, 0.0))
RNG = np.random.default_rng(2024)


def random_step_function(grid=GRID, rng=RNG, max_levels=5):
    k = int(rng.integers(1, max_levels + 1))
    levels = np.sort(rng.uniform(0.1, 5.0, size=k))
    vals = np.zeros(grid.shape)
    for v in levels:
        vals[rng.random(grid.shape) < 0.4] = v
    return GridFunction(grid, vals)


def quadrature_lorentz(f, p, q, delta, n_per_segment=20_001):
    """Independent oracle: fine trapezoid in lambda on each plateau.

    The distribution function is constant between consecutive thresholds,
    so the lambda grid is refined inside each plateau (trapezoid across a
    jump would be first-order wrong).
    """
    dist = distribution(f, delta)
    if dist.is_zero:
        return 0.0
    edges = np.concatenate([[0.0], dist.thresholds])
    total = 0.0
    for j in range(dist.thresholds.size):
        # integrate in u = lambda^q (natural variable for the weight
        # lambda^(q-1), which is singular at 0 when q < 1); the height is
        # looked up through content_at, independently of the closed form
        u = np.linspace(edges[j] ** q, edges[j + 1] ** q, n_per_segment)
        lam = u ** (1.0 / q)
        mids = 0.5 * (lam[:-1] + lam[1:])
        heights = np.array([dist.content_at(l) for l in mids])
        total += float(np.sum((p / q) * heights ** (q / p) * np.diff(u)))
    return total ** (1.0 / q)


def test_distribution_indicator():
    cells = CellSet(GRID, RNG.random(GRID.shape) < 0.5)
    f = GridFunction(GRID, cells.mask.astype(float))
    dist = distribution(f, 1.3)
    assert np.array_equal(dist.thresholds, [1.0])
    assert dist.plateaus[0] == content_value(cells, 1.3)
    assert dist.content_at(0.0) == dist.plateaus[0]
    assert dist.content_at(1.0) == 0.0


def test_distribution_zero_function():
    dist = distribution(GridFunction.zeros(GRID), 1.0)
    assert dist.is_zero
    assert dist.content_at(0.0) == 0.0


def test_distribution_two_nested_levels():
    vals = np.zeros(GRID.shape)
    vals[:4, :4] = 1.0
    vals[:2, :2] = 2.0
    f = GridFunction(GRID, vals)
    dist = distribution(f, 1.5)
    s2 = CellSet(GRID, vals > 0)
    s1 = CellSet(GRID, vals > 1)
    assert np.array_equal(dist.thresholds, [1.0, 2.0])
    assert dist.plateaus[0] == content_value(s2, 1.5)
    assert dist.plateaus[1] == content_value(s1, 1.5)


def test_distribution_merges_close_values():
    vals = np.zeros(GRID.shape)
    vals[0, 0] = 1.0
    vals[0, 1] = 1.0 + 1e-14
    f = GridFunction(GRID, vals)
    dist = distribution(f, 1.0)
    assert dist.thresholds.size == 1


# each value within MERGE_RTOL of the next, the whole chain wider than MERGE_RTOL
CHAIN = np.cumprod(np.full(9, 1.0 + 0.9 * MERGE_RTOL))


def _cells(*assignments):
    """Values on GRID: zero except value v on the first n cells of C order, per (n, v)."""
    vals = np.zeros(GRID.n_cells)
    start = 0
    for n, v in assignments:
        vals[start : start + n] = v
        start += n
    return vals.reshape(GRID.shape)


SIGNED_ZEROS = np.where(np.arange(GRID.n_cells) % 3 == 0, -0.0, 0.0).reshape(GRID.shape)
SIGNED_ZEROS.flat[[5, 9, 40]] = [4.0, 1.0, 4.0]
# (values, thresholds, cells above each lower threshold): thresholds are the
# cluster maxima, plateau j counts the cells above threshold j-1 (0 for j = 0)
COUNTING_CASES = {
    "zero": (np.zeros(GRID.shape), [], []),
    "one_cell": (_cells((0, 0.0), (1, 2.5)), [2.5], [1]),
    "all_equal": (np.full(GRID.shape, 3.0), [3.0], [64]),
    "signed_zeros": (SIGNED_ZEROS, [1.0, 4.0], [3, 2]),
    "subnormals": (
        _cells((3, 5e-324), (2, 1e-323), (1, 2.5e-308)),
        [5e-324, 1e-323, 2.5e-308],
        [6, 3, 1],
    ),
    # value k of the chain on k + 1 cells (45 in all), then 2.0 on two cells
    "chain": (_cells(*((k + 1, v) for k, v in enumerate(CHAIN)), (2, 2.0)), [CHAIN[-1], 2.0], [47, 2]),
}


@pytest.mark.parametrize("name", COUNTING_CASES)
def test_counting_distribution_cases(name):
    values, thresholds, cells = COUNTING_CASES[name]
    f = GridFunction(GRID, values)
    plateaus = np.array(cells, dtype=np.int64) * GRID.cell_volume
    for dist in (distribution(f, GRID.dim), distribution(f, 2.0)):  # int and float dim
        assert dist.thresholds.tobytes() == np.array(thresholds, dtype=np.float64).tobytes()
        assert dist.plateaus.tobytes() == plateaus.tobytes()


def test_merging_is_transitive_over_adjacent_gaps():
    assert np.all(np.diff(CHAIN) <= MERGE_RTOL * CHAIN[1:])
    assert CHAIN[-1] - CHAIN[0] > MERGE_RTOL * CHAIN[-1]
    f = GridFunction(GRID, COUNTING_CASES["chain"][0])
    # the same clusters below dim, where the plateaus come from the content tree
    assert np.array_equal(distribution(f, 1.3).thresholds, [CHAIN[-1], 2.0])


def test_integral_indicator_and_homogeneity():
    cells = CellSet(GRID, RNG.random(GRID.shape) < 0.4)
    ind = GridFunction(GRID, cells.mask.astype(float))
    h = content_value(cells, 0.9)
    assert choquet_integral(ind, 0.9) == pytest.approx(h, rel=1e-14)
    assert choquet_integral(ind.scale(3.5), 0.9) == pytest.approx(3.5 * h, rel=1e-12)


def test_integral_two_step_layer_cake():
    vals = np.zeros(GRID.shape)
    vals[:4, :4] = 1.0
    vals[:2, :2] = 2.0
    f = GridFunction(GRID, vals)
    h2 = content_value(CellSet(GRID, vals > 0), 1.5)
    h1 = content_value(CellSet(GRID, vals > 1), 1.5)
    assert choquet_integral(f, 1.5) == pytest.approx(h2 + h1, rel=1e-14)


def test_p_norm_indicator_and_p1():
    cells = CellSet(GRID, RNG.random(GRID.shape) < 0.4)
    ind = GridFunction(GRID, cells.mask.astype(float))
    h = content_value(cells, 1.3)
    for p in (0.7, 2.0):
        assert choquet_p_norm(ind, p, 1.3) == pytest.approx(h ** (1 / p), rel=1e-13)
    f = random_step_function()
    assert choquet_p_norm(f, 1.0, 1.3) == choquet_integral(f, 1.3)


def test_p_norm_against_quadrature_oracle():
    for _ in range(5):
        f = random_step_function(max_levels=3)
        p = float(RNG.uniform(0.6, 2.5))
        exact = choquet_p_norm(f, p, 1.4)
        approx = quadrature_lorentz(f, p, p, 1.4)
        assert approx == pytest.approx(exact, rel=1e-8)


def test_lorentz_q_equals_p_is_p_norm_exact():
    # the integral and the p-norm are Lorentz (1, 1) and (p, p): bit for bit
    # the plain layer-cake sums over the plateaus
    for _ in range(100):
        f = random_step_function()
        dist = distribution(f, 1.3)
        ext = np.concatenate([[0.0], dist.thresholds])
        assert choquet_integral(f, 1.3) == float(np.sum(np.diff(ext) * dist.plateaus))
        for p in (0.7, 1.0, 1.5, 2.0):
            assert lorentz_norm(f, LorentzExponents(p, p, 1.3)) == choquet_p_norm(f, p, 1.3)
            layer_cake = float(np.sum(np.diff(ext**p) * dist.plateaus)) ** (1.0 / p)
            assert choquet_p_norm(f, p, 1.3) == layer_cake


def test_lorentz_indicator_closed_forms():
    cells = CellSet(GRID, RNG.random(GRID.shape) < 0.5)
    ind = GridFunction(GRID, cells.mask.astype(float))
    h = content_value(cells, 1.2)
    p, q = 1.4, 3.0
    assert lorentz_norm(ind, LorentzExponents(p, q, 1.2)) == pytest.approx(
        (p / q) ** (1 / q) * h ** (1 / p), rel=1e-13
    )
    assert lorentz_norm(ind, LorentzExponents(p, math.inf, 1.2)) == pytest.approx(
        h ** (1 / p), rel=1e-14
    )


def test_power_identity():
    # ||f^nu||_{p,q} = ||f||^nu_{nu p, nu q}
    for _ in range(30):
        f = random_step_function()
        for nu in (0.5, 2.0, 3.0):
            for q in (1.5, math.inf):
                lhs = lorentz_norm(f.power(nu), LorentzExponents(1.1, q, 1.3))
                nuq = nu * q if q != math.inf else math.inf
                rhs = lorentz_norm(f, LorentzExponents(nu * 1.1, nuq, 1.3)) ** nu
                assert lhs == pytest.approx(rhs, rel=1e-10)


def test_lorentz_against_quadrature_oracle():
    for _ in range(5):
        f = random_step_function(max_levels=3)
        p, q = float(RNG.uniform(0.8, 2.0)), float(RNG.uniform(0.8, 3.0))
        exact = lorentz_norm(f, LorentzExponents(p, q, 1.4))
        approx = quadrature_lorentz(f, p, q, 1.4)
        assert approx == pytest.approx(exact, rel=1e-8)


def test_dyadic_sum_indicator_geometric_tail():
    cells = CellSet(GRID, RNG.random(GRID.shape) < 0.5)
    ind = GridFunction(GRID, cells.mask.astype(float))
    h = content_value(cells, 1.2)
    p, q = 1.4, 2.0
    expected = (h ** (q / p) * 2.0**-q / (1 - 2.0**-q)) ** (1 / q)
    assert lorentz_norm_dyadic(ind, LorentzExponents(p, q, 1.2)) == pytest.approx(
        expected, rel=1e-13
    )


def test_dyadic_sum_zero():
    assert lorentz_norm_dyadic(GridFunction.zeros(GRID), LorentzExponents(1.0, 1.0, 1.0)) == 0.0


def test_dyadic_sum_comparability():
    for _ in range(100):
        f = random_step_function()
        p = float(RNG.uniform(0.7, 2.5))
        q = float(RNG.uniform(0.7, 3.0))
        exps = LorentzExponents(p, q, 1.3)
        direct = lorentz_norm(f, exps)
        dyadic = lorentz_norm_dyadic(f, exps)
        lo, hi = dyadic_sum_comparability(p, q)
        assert lo * direct * (1 - 1e-12) <= dyadic <= hi * direct * (1 + 1e-12)


def test_dyadic_sum_comparability_weak():
    for _ in range(40):
        f = random_step_function()
        exps = LorentzExponents(1.3, math.inf, 1.3)
        direct = lorentz_norm(f, exps)
        dyadic = lorentz_norm_dyadic(f, exps)
        assert 0.5 * direct * (1 - 1e-12) <= dyadic <= direct * (1 + 1e-12)


def test_lebesgue_lorentz_equals_delta_dim():
    for _ in range(30):
        f = random_step_function()
        for q in (0.9, 2.0, math.inf):
            assert lebesgue_lorentz_norm(f, 1.5, q) == lorentz_norm(
                f, LorentzExponents(1.5, q, 2.0)
            )


def test_lebesgue_embedding():
    # ||f||_{L^{p,q}(Leb)} <= C ||f||_{L^{p delta/dim, q}(H^delta)}
    delta = 1.4
    for _ in range(100):
        f = random_step_function()
        p, q = 1.6, 1.1
        lhs = lebesgue_lorentz_norm(f, p, q)
        rhs = lorentz_norm(f, LorentzExponents(p * delta / 2.0, q, delta))
        c = lebesgue_embedding_constant(2, delta, q)
        assert lhs <= c * rhs * (1 + 1e-12)


def test_layer_cake_nonlinearity_bound():
    for _ in range(200):
        f = random_step_function()
        g = random_step_function()
        both = choquet_integral(f + g, 1.3)
        assert both <= 2 * (choquet_integral(f, 1.3) + choquet_integral(g, 1.3)) + 1e-12


def test_monotonicity_of_norms():
    for _ in range(25):
        f = random_step_function()
        g = GridFunction(GRID, f.values + RNG.random(GRID.shape))
        for exps in (LorentzExponents(1.0, 1.0, 1.3), LorentzExponents(1.5, 2.5, 1.3),
                     LorentzExponents(0.8, math.inf, 1.3)):
            assert lorentz_norm(f, exps) <= lorentz_norm(g, exps) * (1 + 1e-12)


def test_positive_homogeneity():
    for _ in range(25):
        f = random_step_function()
        c = float(RNG.uniform(0.1, 10.0))
        for exps in (LorentzExponents(1.0, 1.0, 1.3), LorentzExponents(1.5, 2.5, 1.3),
                     LorentzExponents(0.8, math.inf, 1.3)):
            assert lorentz_norm(f.scale(c), exps) == pytest.approx(
                c * lorentz_norm(f, exps), rel=1e-12
            )


def test_weak_dominated_by_strong():
    # ||f||_{p,inf} <= (q/p)^(1/q) ||f||_{p,q}
    for _ in range(50):
        f = random_step_function()
        p = float(RNG.uniform(0.7, 2.0))
        q = float(RNG.uniform(0.7, 3.0))
        weak = lorentz_norm(f, LorentzExponents(p, math.inf, 1.3))
        strong = lorentz_norm(f, LorentzExponents(p, q, 1.3))
        assert weak <= (q / p) ** (1 / q) * strong * (1 + 1e-12)


def test_p_norm_substitution_identity():
    # ||f||_p^p equals the integral of f^p
    for _ in range(25):
        f = random_step_function()
        p = float(RNG.uniform(0.6, 2.5))
        assert choquet_p_norm(f, p, 1.3) ** p == pytest.approx(
            choquet_integral(f.power(p), 1.3), rel=1e-11
        )


def test_fast_path_matches_dp_at_delta_dim():
    for _ in range(20):
        f = random_step_function()
        fast = distribution(f, 2.0)
        engine = ContentEngine(GRID, 2.0)
        mask = f.values > 0
        engine.build(mask)
        dp_first = engine.value
        assert fast.plateaus[0] == pytest.approx(dp_first, rel=1e-12)
        for j, thr in enumerate(fast.thresholds[:-1]):
            dp = content_value(CellSet(GRID, f.values > thr), 2.0)
            assert fast.plateaus[j + 1] == pytest.approx(dp, rel=1e-12)


def test_lorentz_norm_out_of_double_precision_is_an_exponent_error():
    dist = StepDistribution(np.array([1.0, 2.0]), np.array([3.0, 2.0]))
    finite = math.sqrt(0.75 * (3.0 ** (4 / 3) + 3.0 * 2.0 ** (4 / 3)))
    assert lorentz_norm_of(dist, 1.5, 2.0) == pytest.approx(finite, rel=1e-15)
    for p, q in ((1.5, 1e-300), (1.5, 1e300), (1e-300, math.inf)):
        with pytest.raises(ExponentError, match="is not finite"):
            lorentz_norm_of(dist, p, q)
    # 0.75^(q/p) underflows to zero: a nonzero distribution has no norm 0.0
    with pytest.raises(ExponentError, match="q=10000 is not finite"):
        lorentz_norm_of(StepDistribution([1.0], [0.75]), 1.5, 1e4)


def test_exponent_validation():
    with pytest.raises(ExponentError):
        LorentzExponents(0.0, 1.0, 1.0)
    with pytest.raises(ExponentError):
        LorentzExponents(math.inf, 1.0, 1.0)
    with pytest.raises(ExponentError):
        LorentzExponents(1.0, -1.0, 1.0)
    f = random_step_function()
    with pytest.raises(ExponentError):
        choquet_p_norm(f, math.inf, 1.0)
