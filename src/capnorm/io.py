"""JSON documents for grids, cell sets, grid functions, and covers.

Cell sets and grid functions serialize as
``{"grid": {dim, depth, root_side, origin}, "cells"|"values": [...]}``
with flat row-major arrays.  Function values are written as decimal
strings with 17 significant digits, which round-trips float64
bit-exactly; grid geometry floats round-trip through repr-based JSON.

`dumps` writes the bytes of ``json.dumps(doc, sort_keys=True, indent=2)``
without the stdlib's pure-Python encoder, which ``indent`` selects.  It
recurses through dicts and nested lists itself and writes each flat list
(one that holds no dict, list or tuple) in one call of json's C encoder,
whose item separator carries the newline and the indent of the list's
items.  Leaves are written by type as json writes them: strings through
`json.encoder.encode_basestring_ascii`, ints and finite floats by repr, and
anything else, such as NaN, infinities and numpy scalars, through a
`json.JSONEncoder`.  Dict keys must be strings, as they are in every
capnorm document; another key raises TypeError.
"""

from __future__ import annotations

import functools
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .content import CoverSolution
from .grid import CellSet, DyadicGrid, GridFunction, make_grid


class DocumentError(ValueError):
    """A JSON document that does not have its schema's layout."""


def grid_to_dict(grid: DyadicGrid) -> dict:
    return {
        "dim": grid.dim,
        "depth": grid.depth,
        "root_side": grid.root_side,
        "origin": list(grid.origin),
    }


def grid_from_dict(doc: dict) -> DyadicGrid:
    """Grid geometry of a document, through make_grid so its leaf-cell cap applies.

    Callers read a document's cells or values only after this returns, so
    an oversized grid fails with GridError before any of them is converted.
    """
    return make_grid(
        doc["dim"],
        doc["depth"],
        float(doc["root_side"]),
        origin=tuple(float(x) for x in doc["origin"]),
    )


def cellset_to_dict(cells: CellSet) -> dict:
    return {
        "grid": grid_to_dict(cells.grid),
        "cells": cells.mask.ravel().astype(int).tolist(),
    }


def cellset_from_dict(doc: dict) -> CellSet:
    grid = grid_from_dict(doc["grid"])
    types = set(map(type, doc["cells"]))  # numpy would read a JSON true among integers as 1
    cells = np.asarray(doc["cells"])
    if not types <= {int, float} or not np.all((cells == 0) | (cells == 1)):
        raise DocumentError("cell-set cells must each be 0 or 1")
    return CellSet(grid, cells.astype(bool).reshape(grid.shape))


def gridfunction_to_dict(f: GridFunction) -> dict:
    return {
        "grid": grid_to_dict(f.grid),
        "values": _format_values(f.values.ravel().tolist()),
    }


def gridfunction_from_dict(doc: dict) -> GridFunction:
    grid = grid_from_dict(doc["grid"])
    if not isinstance(doc["values"], list) or not set(map(type, doc["values"])) <= {str}:
        raise DocumentError("grid-function values must be a list of decimal strings")
    # numpy parses each string as float() does, bit for bit, and refuses the same strings
    values = np.array(doc["values"], dtype=np.float64).reshape(grid.shape)
    return GridFunction(grid, values)


def cover_to_dict(sol: CoverSolution) -> dict:
    return {
        "delta": sol.delta,
        "value": sol.value,
        "cover": [{"level": c.level, "index": list(c.index)} for c in sol.cover],
    }


def _format_values(values: list) -> list[str]:
    """format(v, ".17g") of each float, through one %-template."""
    return ("%.17g," * len(values) % tuple(values)).split(",")[:-1]


def dumps(doc: dict) -> str:
    """Canonical deterministic JSON text (sorted keys, newline-terminated).

    Byte for byte ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``;
    the module docstring says how.
    """
    return _encode(doc, "\n") + "\n"


_LITERALS = {True: "true", False: "false", None: "null"}
_LEAF_ENCODER = json.JSONEncoder()


@functools.cache
def _flat_encoder(item: str):
    """encode of a C encoder that separates list items by "," + item: one per depth."""
    return json.JSONEncoder(separators=("," + item, ": ")).encode


def _encode(value, newline: str) -> str:
    """JSON text of value, whose enclosing line ends with newline ("\\n" plus its indent)."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        item = newline + "  "
        return "{" + item + ("," + item).join(
            encode_basestring_ascii(key) + ": " + _encode(v, item)
            for key, v in sorted(value.items())) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        item = newline + "  "
        if any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, value))):
            return "[" + item + ("," + item).join(_encode(v, item) for v in value) + newline + "]"
        return "[" + item + _flat_encoder(item)(value)[1:-1] + newline + "]"
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    return _LEAF_ENCODER.encode(value)


def load_path(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read(path: str, from_dict):
    try:
        return from_dict(load_path(path))
    except (TypeError, DocumentError) as exc:  # a list document, a null or a wrongly typed value
        raise DocumentError(f"{path} does not have the document layout: {exc}") from None


def read_cellset(path: str) -> CellSet:
    return _read(path, cellset_from_dict)


def read_gridfunction(path: str) -> GridFunction:
    return _read(path, gridfunction_from_dict)
