"""Property test: grid functions and cell sets survive the JSON round trip bit for bit."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from capnorm import io  # noqa: E402
from capnorm.grid import CellSet, GridFunction, make_grid  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def grids(draw):
    """dim 1-3, at most 2^9 cells, any finite origin, a positive finite root side."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 9 // dim))
    root_side = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return make_grid(dim, depth, root_side, origin=tuple(draw(finite) for _ in range(dim)))


def _bits(grid):
    return (grid.dim, grid.depth, grid.root_side.hex(), tuple(x.hex() for x in grid.origin))


def _through_json(doc):
    return json.loads(io.dumps(doc))


@given(grids(), st.data())
@settings(max_examples=150, deadline=None)
def test_gridfunction_roundtrip_bit_identical(grid, data):
    values = data.draw(hnp.arrays(np.float64, grid.shape, elements=st.floats(
        min_value=0.0, allow_infinity=False, allow_subnormal=True)))
    f = GridFunction(grid, values)
    back = io.gridfunction_from_dict(_through_json(io.gridfunction_to_dict(f)))
    assert _bits(back.grid) == _bits(grid)
    assert back.values.shape == grid.shape
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


@given(grids(), st.data())
@settings(max_examples=100, deadline=None)
def test_cellset_roundtrip_bit_identical(grid, data):
    mask = data.draw(hnp.arrays(np.bool_, grid.shape))
    cells = CellSet(grid, mask)
    back = io.cellset_from_dict(_through_json(io.cellset_to_dict(cells)))
    assert _bits(back.grid) == _bits(grid)
    assert np.array_equal(back.mask, mask)


# recorded from json.dumps(..., sort_keys=True, indent=2) with ".17g" value
# strings; a faster writer must reproduce these bytes
GRIDFUNCTION_TEXT = """\
{
  "grid": {
    "depth": 1,
    "dim": 2,
    "origin": [
      -1.0,
      -1.0
    ],
    "root_side": 2.0
  },
  "values": [
    "0",
    "0.10000000000000001",
    "0.33333333333333331",
    "2.5e+20"
  ]
}
"""


def test_gridfunction_text_layout():
    f = GridFunction(make_grid(2, 1, 2.0), np.array([[0.0, 0.1], [1 / 3, 2.5e20]]))
    assert io.dumps(io.gridfunction_to_dict(f)) == GRIDFUNCTION_TEXT
