"""JSON documents for grids, cell sets, grid functions, and covers.

Cell sets and grid functions serialize as
``{"grid": {dim, depth, root_side, origin}, "cells"|"values": [...]}``
with flat row-major arrays.  Function values are written as decimal
strings with 17 significant digits, which round-trips float64
bit-exactly; grid geometry floats round-trip through repr-based JSON.
"""

from __future__ import annotations

import json

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
        "values": [format(v, ".17g") for v in f.values.ravel()],
    }


def gridfunction_from_dict(doc: dict) -> GridFunction:
    grid = grid_from_dict(doc["grid"])
    if not isinstance(doc["values"], list) or not set(map(type, doc["values"])) <= {str}:
        raise DocumentError("grid-function values must be a list of decimal strings")
    values = np.asarray([float(v) for v in doc["values"]]).reshape(grid.shape)
    return GridFunction(grid, values)


def cover_to_dict(sol: CoverSolution) -> dict:
    return {
        "delta": sol.delta,
        "value": sol.value,
        "cover": [{"level": c.level, "index": list(c.index)} for c in sol.cover],
    }


def dumps(doc: dict) -> str:
    """Canonical deterministic JSON text (sorted keys, newline-terminated)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
