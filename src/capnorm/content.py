"""Exact dyadic Hausdorff content of cell sets via tree dynamic programming.

The content of exponent ``delta`` of a set S is the cheapest cover of S
by dyadic cubes, a cube of side l costing ``l**delta``.  A bottom-up
pass over the dyadic tree computes it exactly:

    cost(Q) = 0                                   if Q does not meet S
    cost(Q) = min(side(Q)**delta, sum of children) otherwise

Exactness at leaf resolution holds for ``delta <= dim``: any dyadic cube
meeting the root is nested with it (cubes containing the root cost at
least the root, which the DP never exceeds), and subdividing a cube into
its 2^(k*dim) level-k descendants multiplies the cost by 2^(k*(dim-delta))
>= 1, so covers never need cubes finer than the leaves.  At equal cost
the coarser cube is preferred, which keeps covers small and the output
deterministic.

The contents of a whole nested family of sets (the superlevel sets of a
grid function) come from one more bottom-up pass: each occupied node
carries its cost as a step function of the family index, a parent's
breakpoints being the union of its children's.  Child costs are summed
in the same fixed order as the from-scratch pass and go through the same
``min``, so every member's content is bit-identical to a rebuild.

Every entry point takes delta as a plain float; the DP and the oracle
both refuse a delta outside (0, dim] through one check, _check_delta.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import CellSet, DyadicCube, DyadicGrid, GridError

ORACLE_CELL_LIMIT = 2**12
# Nodes the oracle's search may pop before it gives up (a few microseconds
# each).  The leaf-cell cap alone does not bound the search: a random 2D
# depth-4 set can run for minutes.  Random sets on the 64-cell grids of the
# oracle tests popped at most about 10^5 nodes in 6000 draws.
ORACLE_NODE_LIMIT = 5 * 10**5


class ContentError(ValueError):
    """Invalid content parameters or an oracle instance that is too large."""


def _check_delta(delta: float, dim: int):
    """The content exponent window (0, dim], where the tree DP is exact."""
    if not (0.0 < delta <= dim):
        raise ContentError(f"delta must be in (0, {dim}], got {delta}")


@dataclass(frozen=True)
class CoverSolution:
    """An optimal dyadic cover: its total cost and the cubes themselves."""

    value: float
    cover: tuple[DyadicCube, ...]
    delta: float
    grid: DyadicGrid

    def cover_cost(self) -> float:
        return float(sum(c.side(self.grid) ** self.delta for c in self.cover))


def _child_offsets(dim: int) -> tuple[tuple[int, ...], ...]:
    # fixed C order; summation order must match between build and sweep
    return tuple(itertools.product((0, 1), repeat=dim))


class ContentEngine:
    """Per-level cost arrays for one (grid, delta) pair."""

    def __init__(self, grid: DyadicGrid, delta: float):
        _check_delta(delta, grid.dim)
        self.grid = grid
        self.delta = float(delta)
        self.dim = grid.dim
        self.depth = grid.depth
        self._offsets = _child_offsets(grid.dim)
        self.weights = [grid.side_at_level(k) ** self.delta for k in range(grid.depth + 1)]
        self.cost = [None] * (grid.depth + 1)

    def build(self, mask: np.ndarray):
        """From-scratch bottom-up pass over the occupancy mask."""
        L = self.depth
        leaf = np.where(mask, self.weights[L], 0.0)
        self.cost[L] = leaf
        for k in range(L - 1, -1, -1):
            child = self.cost[k + 1]
            acc = None
            for off in self._offsets:
                sl = tuple(slice(o, None, 2) for o in off)
                block = child[sl]
                acc = block.copy() if acc is None else acc + block
            self.cost[k] = self._node_cost(k, acc)

    def _node_cost(self, k: int, acc: np.ndarray) -> np.ndarray:
        """Cost of level-k nodes whose children's costs sum to acc."""
        return np.where(acc > 0, np.minimum(self.weights[k], acc), 0.0)

    def superlevel_contents(self, levels: np.ndarray, m: int) -> np.ndarray:
        """Contents of the nested sets {levels >= j} for j = 0, ..., m-1 in one pass.

        `levels` has the grid's shape and holds one integer in [-1, m) per
        leaf cell (-1: in no set).  The result's entry j is bit-identical
        to ``build(levels >= j)`` followed by ``value``.

        Every occupied node carries its cost as a step function of j:
        sorted segment starts with one value each.  A parent's starts (its
        breakpoints) are the union of its children's.  Each level ranks
        every child segment once among the breakpoints and copies the
        values into a padded array that holds a 0.0 slot just before each
        parent's own segments.  Then, per child offset, a row over the
        breakpoints gets each parent's 0.0 slot at its first breakpoint
        and the offset's segment slots at theirs; a running maximum fills
        it forward, so every breakpoint reads the child's value there, or
        0.0 for an absent child.  The sum in the fixed child order and the
        ``min`` with the cube weight are the arithmetic of ``build``.
        Adjacent equal segments are merged.  Nodes are keyed in Morton
        order (axis 0 most significant), which makes the children of node
        K the keys K * 2**dim + o, o being the C-order offset index.
        """
        dim, L = self.dim, self.depth
        fan = 2**dim
        # leaf groups in Morton order, one row of 2**dim children per level-(L-1) node
        bits = np.asarray(levels, dtype=np.int32).reshape((2,) * (dim * L))
        morton = [a * L + b for b in range(L) for a in range(dim)]
        rows = bits.transpose(morton).reshape(-1, fan)

        # level L-1 straight from the leaf groups: n children of a node are
        # still in the set at j, each costing the leaf weight, and a sum of
        # equal terms and exact zeros does not depend on where the zeros sit
        key = np.flatnonzero(rows.max(axis=1) >= 0)
        if key.size == 0:  # every set is empty
            return np.zeros(m)
        groups = rows[key]
        zero = np.zeros((key.size, 1), dtype=np.int32)
        start = np.sort(np.concatenate([zero, groups + 1], axis=1), axis=1)
        n_in = np.zeros(start.shape, dtype=np.uint8)
        for c in range(fan):
            n_in += groups[:, [c]] >= start
        sums = [0.0]
        for _ in range(fan):
            sums.append(sums[-1] + self.weights[L])
        value = self._node_cost(L - 1, np.array(sums))[n_in]
        keep = start < m
        keep[:, 1:] &= value[:, 1:] != value[:, :-1]
        key = np.broadcast_to(key[:, None], start.shape)[keep]
        start, value = start[keep].astype(np.int64), value[keep]

        for k in range(L - 2, -1, -1):
            # the segments come sorted by (key, start), that is by (parent, offset, start)
            offset = (key & (fan - 1)).astype(np.uint8)
            key >>= dim  # parent keys
            opens = np.empty(key.size, dtype=bool)  # a parent's first segment, at start 0
            opens[0] = True
            np.not_equal(key[1:], key[:-1], out=opens[1:])
            # a segment's slot is its index plus one 0.0 slot before each parent's own segments;
            # int32 holds them, a level having fewer than three slots per leaf cell
            slot = np.cumsum(opens, dtype=np.int32)
            slot += np.arange(key.size, dtype=np.int32)
            padded = np.zeros(key.size + np.count_nonzero(opens))
            padded[slot] = value
            del value
            key *= m
            key += start  # (parent, start), one int64 per segment
            del start
            # each segment's breakpoint: its rank among the distinct (parent, start)
            order = np.argsort(key)
            seg = key[order]
            del key
            distinct = np.empty(seg.size, dtype=bool)
            distinct[0] = True
            np.not_equal(seg[1:], seg[:-1], out=distinct[1:])
            bp = seg[distinct]
            del seg
            pos = np.empty(order.size, dtype=np.int32)
            pos[order] = np.cumsum(distinct, dtype=np.int32) - 1
            del order, distinct
            first = pos[opens]  # each parent's first breakpoint
            seed = np.zeros(bp.size, dtype=np.int32)
            seed[first] = slot[opens] - 1  # points at the parent's 0.0 slot
            del opens
            # the segments of each offset together, C order (a stable sort of uint8 is a radix sort)
            by_offset = np.argsort(offset, kind="stable")
            ends = np.cumsum(np.bincount(offset, minlength=fan))
            pos, slot = pos[by_offset], slot[by_offset]
            del by_offset, offset
            row = np.empty(bp.size, dtype=np.int32)
            v = np.empty(bp.size)
            acc, lo = None, 0
            for hi in ends:
                np.copyto(row, seed)
                row[pos[lo:hi]] = slot[lo:hi]
                # slots rise along the breakpoints, so the running max is the child's
                # segment at each breakpoint, or its parent's 0.0 slot if it has none yet
                np.maximum.accumulate(row, out=row)
                if acc is None:
                    acc = padded.take(row)
                else:
                    acc += padded.take(row, out=v)
                lo = hi
            del row, v, padded, seed, pos, slot
            value = self._node_cost(k, acc)
            del acc
            keep = np.zeros(bp.size, dtype=bool)
            keep[1:] = value[1:] != value[:-1]
            keep[first] = True
            bp, value = bp[keep], value[keep]
            key = bp // m
            start = bp - key * m

        return np.repeat(value, np.diff(np.append(start, m)))

    @property
    def value(self) -> float:
        return float(self.cost[0].flat[0])

    def extract_cover(self) -> tuple[DyadicCube, ...]:
        """Level-by-level descent: take a cube wherever its cost equals its own weight.

        cost = min(weight, children sum), so cost == weight exactly when
        covering here is optimal (ties prefer the coarser cube; an occupied
        leaf costs its weight).  `under` marks the cubes in a taken one, and
        argwhere lists each level's cubes in index order.
        """
        out = []
        under = np.zeros((1,) * self.dim, dtype=bool)
        for k, (cost, weight) in enumerate(zip(self.cost, self.weights)):
            open_ = (cost > 0) & ~under
            take = open_ & (cost == weight)
            out += [DyadicCube(level=k, index=tuple(idx)) for idx in np.argwhere(take).tolist()]
            if not (open_ & ~take).any():
                break
            under |= take
            for axis in range(self.dim):
                under = under.repeat(2, axis=axis)
        return tuple(out)


def dyadic_content(cells: CellSet, delta: float) -> CoverSolution:
    """Exact dyadic content of a cell set, with an optimal cover (none for the empty set)."""
    engine = ContentEngine(cells.grid, delta)
    engine.build(cells.mask)
    return CoverSolution(
        value=engine.value, cover=engine.extract_cover(), delta=engine.delta, grid=cells.grid
    )


def content_value(cells: CellSet, delta: float) -> float:
    """Content value only (skips cover extraction)."""
    engine = ContentEngine(cells.grid, delta)
    engine.build(cells.mask)
    return engine.value


def content_oracle(cells: CellSet, delta: float) -> float:
    """Exhaustive minimum over all antichain covers of the dyadic tree.

    Independent of the production DP: depth-first search over covers,
    branching on the ancestors of the first uncovered cell, pruned with
    the admissible bound (uncovered cells) * (cheapest per-cell cube
    rate).  For delta <= dim that rate is attained at the root level.
    Test-only; refuses instances above ORACLE_CELL_LIMIT leaf cells and
    gives up with ContentError once the search has popped more than
    ORACLE_NODE_LIMIT nodes.
    """
    grid = cells.grid
    _check_delta(delta, grid.dim)
    if grid.n_cells > ORACLE_CELL_LIMIT:
        raise ContentError(
            f"oracle instance too large: {grid.n_cells} cells > {ORACLE_CELL_LIMIT}"
        )
    occupied = np.flatnonzero(cells.mask.ravel())
    if occupied.size == 0:
        return 0.0

    L = grid.depth
    n_occ = occupied.size  # bit i stands for occupied[i], in scan (C) order
    multi = np.unravel_index(occupied, grid.shape)

    # bitmask of occupied cells under each cube, keyed by (level, index)
    cube_bits: dict[tuple[int, tuple[int, ...]], int] = {}
    cube_weight: dict[tuple[int, tuple[int, ...]], float] = {}
    for i in range(n_occ):
        leaf = tuple(int(a[i]) for a in multi)
        for k in range(L + 1):
            key = (k, tuple(c >> (L - k) for c in leaf))
            cube_bits[key] = cube_bits.get(key, 0) | (1 << i)
    for key in cube_bits:
        cube_weight[key] = grid.side_at_level(key[0]) ** delta

    # ancestors of each cell, coarsest first (big cubes give good bounds early)
    ancestors = []
    for i in range(n_occ):
        leaf = tuple(int(a[i]) for a in multi)
        ancestors.append([(k, tuple(c >> (L - k) for c in leaf)) for k in range(L + 1)])

    # admissible completion bound: a cube of side s covers at most (s/h)^dim
    # cells at cost s^delta, so cost per cell >= s^(delta-dim) h^dim, minimized
    # at s = root_side for delta <= dim
    per_cell = grid.root_side**delta / grid.n_cells

    leaf_weight = grid.h**delta
    best = min(grid.root_side**delta, n_occ * leaf_weight)

    stack = [(0, 0.0)]
    popped = 0
    # explicit DFS to avoid recursion limits on large occupied sets
    while stack:
        popped += 1
        if popped > ORACLE_NODE_LIMIT:
            raise ContentError(
                f"oracle instance too large: search passed {ORACLE_NODE_LIMIT} nodes"
            )
        covered, cost = stack.pop()
        remaining = n_occ - covered.bit_count()
        if cost + remaining * per_cell >= best:
            continue
        # only sets with an uncovered cell are pushed; take its lowest clear bit
        i = (~covered & (covered + 1)).bit_length() - 1
        for key in ancestors[i]:
            w = cube_weight[key]
            new_cost = cost + w
            new_cov = covered | cube_bits[key]
            rem = n_occ - new_cov.bit_count()
            if new_cost + rem * per_cell < best:
                if rem == 0:
                    best = new_cost
                else:
                    stack.append((new_cov, new_cost))
    return best


# Bracket constants for the ball-cover content.  Circumscribed balls of the
# cover cubes give the upper bound with radius side*sqrt(dim)/2.  For the
# lower bound: a ball of radius r fits in a box of side 2r, which meets at
# most 2^dim dyadic cubes of the smallest dyadic side s >= 2r, and s < 4r,
# so any ball cover converts to a dyadic cover at cost factor 2^dim * 4^delta.


def ball_cover_bracket(solution: CoverSolution) -> tuple[float, float]:
    """Bracket [lower, upper] for the ball-cover content given a dyadic cover."""
    d = solution.grid.dim
    upper = (math.sqrt(d) / 2.0) ** solution.delta * solution.value
    lower = solution.value / (2**d * 4.0**solution.delta)
    return (lower, upper)


def ball_bracket_ratio_bound(dim: int, delta: float) -> float:
    """Guaranteed lower/upper ratio of the bracket (dimensional constant)."""
    return 1.0 / (2**dim * 4.0**delta * (math.sqrt(dim) / 2.0) ** delta)


def subadditivity_slack(a: CellSet, b: CellSet, delta: float) -> float:
    """(H(A) + H(B)) - (H(A u B) + H(A n B)), which must be >= -1e-12."""
    if a.grid != b.grid:
        raise GridError("cell sets live on different grids")
    return (content_value(a, delta) + content_value(b, delta)) - (
        content_value(a.union(b), delta) + content_value(a.intersection(b), delta)
    )
