import math
import tracemalloc

import numpy as np
import pytest

from capnorm.choquet import distribution
from capnorm.content import (
    ORACLE_CELL_LIMIT,
    ContentError,
    ContentEngine,
    ball_bracket_ratio_bound,
    ball_cover_bracket,
    content_oracle,
    content_value,
    dyadic_content,
    subadditivity_slack,
)
from capnorm.grid import CellSet, GridError, GridFunction, make_grid


def random_cellset(grid, rng, density=None):
    density = rng.random() if density is None else density
    return CellSet(grid, rng.random(grid.shape) < density)


def test_full_root_covered_at_root():
    g = make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    sol = dyadic_content(CellSet.full(g), 1.5)
    assert sol.value == 1.0
    assert len(sol.cover) == 1 and sol.cover[0].level == 0


def test_single_leaf_cell():
    g = make_grid(1, 3, 1.0, origin=(0.0,))
    cells = CellSet.from_indices(g, [5])
    sol = dyadic_content(cells, 1.0)
    assert sol.value == pytest.approx(2.0**-3, abs=0)
    assert len(sol.cover) == 1 and sol.cover[0].level == 3


def test_two_cell_example():
    g = make_grid(1, 2, 1.0, origin=(0.0,))
    cells = CellSet(g, np.array([True, False, False, True]))
    sol = dyadic_content(cells, 0.7)
    expected = 2 * 4.0**-0.7
    assert sol.value == pytest.approx(expected, rel=1e-12)
    assert content_oracle(cells, 0.7) == pytest.approx(expected, rel=1e-12)


def test_empty_set():
    g = make_grid(2, 3, 1.0)
    sol = dyadic_content(CellSet.empty(g), 1.0)
    assert sol.value == 0.0 and sol.cover == ()
    assert content_oracle(CellSet.empty(g), 1.0) == 0.0


def test_root_at_delta_dim():
    g = make_grid(2, 2, 0.75, origin=(0.0, 0.0))
    assert content_value(CellSet.full(g), 2.0) == pytest.approx(0.75**2, rel=1e-14)
    assert content_oracle(CellSet.full(g), 2.0) == pytest.approx(0.75**2, rel=1e-14)


def test_delta_range_validated():
    g = make_grid(2, 2, 1.0)
    with pytest.raises(ContentError):
        dyadic_content(CellSet.full(g), 2.5)
    with pytest.raises(ContentError):
        dyadic_content(CellSet.full(g), 0.0)


def test_oracle_instance_limit():
    g = make_grid(2, 7, 1.0)  # 2^14 cells
    with pytest.raises(ContentError, match="too large"):
        content_oracle(CellSet.full(g), 1.0)


def test_oracle_node_limit():
    # a random 2D depth-4 set far below the cell cap; without the node
    # limit its search ran for more than five minutes
    g = make_grid(2, 4, 1.0)
    cells = CellSet(g, np.random.default_rng(0).random(g.shape) < 0.82)
    assert cells.count == 197 and g.n_cells <= ORACLE_CELL_LIMIT
    with pytest.raises(ContentError, match="too large"):
        content_oracle(cells, 1.732)


def test_oracle_equivalence_random():
    rng = np.random.default_rng(101)
    g1 = make_grid(1, 4, 1.0, origin=(0.0,))
    g2 = make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    for grid, deltas, n in ((g1, (0.5, 1.0), 60), (g2, (0.5, 1.0, 1.5, 2.0), 30)):
        for _ in range(n):
            cells = random_cellset(grid, rng)
            for delta in deltas:
                dp = content_value(cells, delta)
                oracle = content_oracle(cells, delta)
                assert abs(dp - oracle) <= 1e-12 * max(1.0, dp)


def test_cover_invariants():
    rng = np.random.default_rng(5)
    for dim, depth in ((1, 7), (2, 4), (3, 3)):
        g = make_grid(dim, depth, 1.0)
        for _ in range(25):
            cells = random_cellset(g, rng)
            if cells.is_empty():
                continue
            for delta in (0.3 * dim, 0.65 * dim, float(dim)):
                sol = dyadic_content(cells, delta)
                # cover cost matches the reported value
                assert sol.cover_cost() == pytest.approx(sol.value, rel=1e-12)
                # cubes are pairwise disjoint and their union contains the set
                covered = np.zeros(g.shape, dtype=int)
                for cube in sol.cover:
                    scale = 2 ** (g.depth - cube.level)
                    block = tuple(
                        slice(i * scale, (i + 1) * scale) for i in cube.index
                    )
                    covered[block] += 1
                assert covered.max() <= 1
                assert np.all(covered[cells.mask] == 1)
                # coarsest-cube rule: a taken cube costs its own weight (a leaf
                # that meets the set always does) and no ancestor of it does
                engine = ContentEngine(g, delta)
                engine.build(cells.mask)
                assert engine.extract_cover() == sol.cover
                for cube in sol.cover:
                    k, idx = cube.level, cube.index
                    assert engine.cost[k][idx] == engine.weights[k]
                    for j in range(k):
                        ancestor = tuple(i >> (k - j) for i in idx)
                        assert engine.cost[j][ancestor] != engine.weights[j]


def test_monotonicity_on_nested_pairs():
    rng = np.random.default_rng(23)
    g = make_grid(2, 4, 1.0)
    for _ in range(200):
        b = random_cellset(g, rng)
        a = CellSet(g, b.mask & (rng.random(g.shape) < 0.7))
        for delta in (0.8, 1.6):
            assert content_value(a, delta) <= content_value(b, delta) + 1e-15


def test_finite_subadditivity_partitions():
    rng = np.random.default_rng(29)
    g = make_grid(2, 4, 1.0)
    for _ in range(40):
        s = random_cellset(g, rng)
        labels = rng.integers(0, 4, size=g.shape)
        parts = [CellSet(g, s.mask & (labels == i)) for i in range(4)]
        total = content_value(s, 1.2)
        assert total <= sum(content_value(p, 1.2) for p in parts) + 1e-12


def test_delta_monotonicity_inside_unit_root():
    rng = np.random.default_rng(31)
    g = make_grid(2, 4, 1.0, origin=(0.0, 0.0))  # all cube sides <= 1
    deltas = [0.5, 1.0, 1.5, 2.0]
    for _ in range(30):
        cells = random_cellset(g, rng)
        values = [content_value(cells, d) for d in deltas]
        for v1, v2 in zip(values, values[1:]):
            assert v2 <= v1 + 1e-14


def test_scaling_of_full_root():
    for s in (0.5, 1.0, 3.7):
        g = make_grid(2, 3, s, origin=(0.0, 0.0))
        for delta in (0.75, 1.5, 2.0):
            assert content_value(CellSet.full(g), delta) == pytest.approx(s**delta, rel=1e-13)


def test_delta_dim_equals_measure():
    rng = np.random.default_rng(37)
    for dim, depth in ((1, 6), (2, 4), (3, 3)):
        g = make_grid(dim, depth, 1.3)
        for _ in range(20):
            cells = random_cellset(g, rng)
            assert content_value(cells, float(dim)) == pytest.approx(cells.measure, abs=1e-12)


def test_superlevel_sweep_bit_identical():
    # every plateau of the one-pass distribution equals a from-scratch DP on
    # its superlevel set, bit for bit, including tied and single-cell levels
    rng = np.random.default_rng(41)
    for dim, depth, deltas in ((1, 7, (0.3, 0.9)), (2, 4, (0.5, 1.3, 1.9)), (3, 3, (0.7, 1.5, 2.6))):
        g = make_grid(dim, depth, 1.7)
        vals = rng.integers(0, 6, size=g.shape) * 0.37 * (rng.random(g.shape) < 0.8)
        vals.flat[int(rng.integers(g.n_cells))] = 9.0  # the top level holds one cell
        f = GridFunction(g, vals)
        for delta in deltas:
            dist = distribution(f, delta)
            lower = np.concatenate([[0.0], dist.thresholds[:-1]])
            fresh = np.array([content_value(CellSet(g, vals > v), delta) for v in lower])
            assert np.array_equal(dist.plateaus.view(np.uint64), fresh.view(np.uint64))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_superlevel_contents_of_empty_family(dim, depth):
    # no cell in any set: this raised IndexError at depth >= 2 and returned
    # an empty array at depth 1
    engine = ContentEngine(make_grid(dim, depth, 1.0), 0.5 * dim)
    levels = np.full(engine.grid.shape, -1)
    contents = engine.superlevel_contents(levels, 3)
    engine.build(levels >= 0)
    assert contents.tolist() == [engine.value] * 3 == [0.0] * 3


# traced peak bytes of superlevel_contents on the field below when each child offset
# binary-searched every breakpoint (numpy 2.4.6): the forward fill stays under it
# (1,341,240), while an int64 slot and breakpoint index (1,673,968) or one
# (2**dim x breakpoints) matrix of rows (2,061,545) exceeds it
SEARCH_SWEEP_PEAK_BYTES = 1_511_173


def test_superlevel_sweep_peak_memory():
    grid = make_grid(3, 5, 2.0)
    levels = np.random.default_rng(2027).integers(0, 48, size=grid.shape, dtype=np.int32)
    engine = ContentEngine(grid, 2.2)
    engine.superlevel_contents(levels, 48)  # numpy's first-call allocations are not the sweep's
    tracemalloc.start()
    try:
        engine.superlevel_contents(levels, 48)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < SEARCH_SWEEP_PEAK_BYTES


def test_ball_bracket_examples():
    g1 = make_grid(1, 1, 1.0, origin=(0.0,))
    sol = dyadic_content(CellSet.full(g1), 1.0)
    lower, upper = ball_cover_bracket(sol)
    assert upper == pytest.approx(0.5, rel=1e-14)  # circumscribed radius 1/2
    assert lower <= upper

    g2 = make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    single = CellSet.from_indices(g2, [0])
    sol2 = dyadic_content(single, 2.0)
    lower2, upper2 = ball_cover_bracket(sol2)
    h = g2.h
    assert upper2 == pytest.approx(h**2 / 2, rel=1e-13)  # (h sqrt2 / 2)^2
    assert lower2 <= upper2


def test_ball_bracket_ratio_bound():
    rng = np.random.default_rng(43)
    g = make_grid(2, 4, 1.0)
    for _ in range(25):
        cells = random_cellset(g, rng)
        if cells.is_empty():
            continue
        for delta in (0.5, 1.0, 2.0):
            sol = dyadic_content(cells, delta)
            lower, upper = ball_cover_bracket(sol)
            assert lower <= upper
            assert lower / upper == pytest.approx(ball_bracket_ratio_bound(2, delta), rel=1e-12)


def test_strong_subadditivity_identical_sets():
    g = make_grid(2, 4, 1.0)
    rng = np.random.default_rng(47)
    a = random_cellset(g, rng)
    assert subadditivity_slack(a, a, 1.1) == 0.0


def test_strong_subadditivity_disjoint_far_cells():
    g = make_grid(1, 3, 1.0, origin=(0.0,))
    a = CellSet.from_indices(g, [0])
    b = CellSet.from_indices(g, [7])
    assert subadditivity_slack(a, b, 0.3) >= -1e-12


def test_strong_subadditivity_random_pairs():
    rng = np.random.default_rng(53)
    g = make_grid(2, 4, 1.0)
    for _ in range(120):
        a = random_cellset(g, rng)
        b = random_cellset(g, rng)
        assert subadditivity_slack(a, b, rng.uniform(0.3, 2.0)) >= -1e-12


def test_strong_subadditivity_grid_mismatch():
    a = CellSet.full(make_grid(2, 3, 1.0))
    b = CellSet.full(make_grid(2, 4, 1.0))
    with pytest.raises(GridError):
        subadditivity_slack(a, b, 1.0)
