"""Property tests: grid functions and cell sets survive the JSON round trip bit for bit,
and io.dumps, io.dump and io.write_gridfunction write the bytes of
json.dumps(..., sort_keys=True, indent=2), across the CHUNK boundaries of their slices."""

import json
import math
import tracemalloc
from io import StringIO

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from capnorm import io  # noqa: E402
from capnorm.grid import CellSet, GridError, GridFunction, make_grid  # noqa: E402

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
    # min_value=0.0 never draws -0.0, which GridFunction admits
    values = data.draw(hnp.arrays(np.float64, grid.shape, elements=st.floats(
        min_value=0.0, allow_infinity=False, allow_subnormal=True) | st.just(-0.0)))
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


# leaves json writes each in its own way: escapes and non-ASCII text, big ints, signed
# zeros, subnormals, NaN, infinities and numpy float scalars
leaves = st.one_of(
    st.text(), st.booleans(), st.none(), st.integers(), st.integers(-2**200, 2**200),
    st.floats(allow_subnormal=True), st.floats().map(np.float64),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308]),
)
documents = st.dictionaries(st.text(), st.recursive(leaves, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(children, max_size=5).map(tuple),
    st.dictionaries(st.text(), children, max_size=5),
), max_leaves=25))


@given(documents)
@settings(max_examples=200, deadline=None)
def test_dumps_matches_stdlib_json(doc):
    assert io.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
@settings(max_examples=300, deadline=None)
def test_value_template_matches_per_value_format(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert io._format_values(values) == [format(v, ".17g") for v in values]


CHUNK_SIZES = [io.CHUNK - 1, io.CHUNK, io.CHUNK + 1, 2 * io.CHUNK + 1]


def _dumped(doc):
    out = StringIO()
    io.dump(doc, out)
    return out.getvalue()


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_flat_lists_across_chunk_boundaries_match_stdlib_json(n):
    rng = np.random.default_rng(n)
    items = [rng.integers(-10**6, 10**6, n).tolist(), rng.exponential(size=n).tolist(),
             [format(v, ".17g") for v in rng.random(n)], tuple((rng.random(n) < 0.5).tolist())]
    for flat in items:
        for doc in (flat, {"a": flat}, {"a": [flat, {"b": flat, "c": 1}], "d": {"e": flat}}):
            text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
            assert io.dumps(doc) == text
            assert _dumped(doc) == text


def _finite_values(n, seed):
    """n float64 values of random bits: positive finite ones, subnormals among them, and -0.0."""
    values = np.random.default_rng(seed).integers(0, 0x7FF0000000000000, n, dtype=np.uint64)
    values[::7] >>= np.uint64(12)  # subnormal
    values[::11] = np.uint64(1 << 63)  # -0.0
    return values.view(np.float64)


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_value_array_across_chunk_boundaries_matches_string_list(n):
    values = _finite_values(n, n)
    text = io.dumps({"values": io._format_values(values)})
    assert text == json.dumps({"values": [format(v, ".17g") for v in values]}, indent=2) + "\n"
    assert io.dumps({"values": io._DecimalStrings(values)}) == text
    assert _dumped({"values": io._DecimalStrings(values)}) == text


@pytest.mark.parametrize("depth", [11, 12, 13])  # CHUNK / 2, CHUNK and 2 CHUNK cells
def test_write_gridfunction_writes_the_dict_bytes(depth):
    grid = make_grid(1, depth, 2.0)
    f = GridFunction(grid, _finite_values(grid.n_cells, depth).reshape(grid.shape))
    out = StringIO()
    io.write_gridfunction(f, out)
    assert out.getvalue() == io.dumps(io.gridfunction_to_dict(f))


def test_write_gridfunction_holds_less_than_a_quarter_of_its_file(tmp_path):
    # the whole-document writer peaked near 5 times the file's size
    grid = make_grid(2, 9, 2.0)
    f = GridFunction(grid, np.random.default_rng(9).exponential(size=grid.shape))
    path = tmp_path / "field.json"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            io.write_gridfunction(f, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4
    assert path.read_text(encoding="utf-8") == io.dumps(io.gridfunction_to_dict(f))


value_texts = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False, allow_subnormal=True).map(lambda v: format(v, ".17g")),
    st.floats().map(repr),
    st.text(alphabet="0123456789.eE+-_ \t\ninfatyINFATY\u0660\u0663\xa0", max_size=12),
    st.text(max_size=6),
)


@given(st.lists(value_texts, min_size=4, max_size=4))
@settings(max_examples=400, deadline=None)
def test_gridfunction_values_parse_as_float_does(texts):
    doc = {"grid": io.grid_to_dict(make_grid(1, 2, 1.0)), "values": texts}
    try:
        expected = np.array([float(t) for t in texts])
    except ValueError:
        with pytest.raises(ValueError, match="could not convert string to float"):
            io.gridfunction_from_dict(doc)
        return
    if not np.all(np.isfinite(expected) & (expected >= 0)):
        with pytest.raises(GridError):
            io.gridfunction_from_dict(doc)
        return
    back = io.gridfunction_from_dict(doc)
    assert np.array_equal(back.values.view(np.uint64), expected.view(np.uint64))
