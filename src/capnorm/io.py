"""JSON documents for grids, cell sets, grid functions, and covers.

Cell sets and grid functions serialize as
``{"grid": {dim, depth, root_side, origin}, "cells"|"values": [...]}``
with flat row-major arrays.  Function values are written as decimal
strings with 17 significant digits, which round-trips float64
bit-exactly; grid geometry floats round-trip through repr-based JSON.

`dumps` writes the bytes of ``json.dumps(doc, sort_keys=True, indent=2)``
without the stdlib's pure-Python encoder, which ``indent`` selects, and
`dump` writes the same bytes to a file as a stream of pieces.  Both
recurse through dicts and nested lists and write each flat list (one
that holds no dict, list or tuple) in slices of CHUNK items, one call of
json's C encoder per slice, whose item separator carries the newline and
the indent of the list's items.  Leaves are written by type as json
writes them: strings through `json.encoder.encode_basestring_ascii`, ints
and finite floats by repr, and anything else, such as NaN, infinities and
numpy scalars, through a `json.JSONEncoder`.  Dict keys must be strings,
as they are in every capnorm document; another key raises TypeError.

`write_gridfunction` formats the values from the float64 array itself,
CHUNK values per %-template, so it builds no string per value.  Beyond
the document, `dump` holds the text of one slice at a time: about
CHUNK * 30 bytes (120 kB) for grid-function values.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

import numpy as np

from .content import CoverSolution
from .grid import CellSet, DyadicGrid, GridFunction, json_number, make_grid


CHUNK = 4096  # items of a flat list formatted per call


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
    root_side, origin = doc["root_side"], doc["origin"]
    if not (json_number(root_side) and all(map(json_number, origin))):
        raise DocumentError(f"grid root_side and origin must be numbers, got {root_side!r} and {origin!r}")
    return make_grid(doc["dim"], doc["depth"], float(root_side), origin=tuple(map(float, origin)))


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
        "values": _format_values(f.values.ravel()),
    }


def write_gridfunction(f: GridFunction, fh) -> None:
    """Write the bytes of dumps(gridfunction_to_dict(f)) to the text file fh."""
    dump({"grid": grid_to_dict(f.grid), "values": _DecimalStrings(f.values.ravel())}, fh)


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


@dataclass(frozen=True)
class _DecimalStrings:
    """float64 values that a document writes as a list of decimal strings."""

    values: np.ndarray


def _value_pieces(values: np.ndarray, separator: str, quote: str) -> Iterator[str]:
    """Text of values, CHUNK at a time: each quote + format(v, ".17g") + quote, joined by separator.

    One %-template formats a whole slice.
    """
    field = quote + "%.17g" + quote
    for start in range(0, values.size, CHUNK):
        chunk = tuple(values[start:start + CHUNK].tolist())
        yield separator.join([field] * len(chunk)) % chunk


def _format_values(values: np.ndarray) -> list[str]:
    """format(v, ".17g") of each float64 value, by the template that `write_gridfunction` uses."""
    pieces = _value_pieces(values, ",", "")
    return list(itertools.chain.from_iterable(piece.split(",") for piece in pieces))


def dumps(doc: dict) -> str:
    """Canonical deterministic JSON text (sorted keys, newline-terminated).

    Byte for byte ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``;
    the module docstring says how.
    """
    return "".join(_pieces(doc, "\n")) + "\n"


def dump(doc: dict, fh) -> None:
    """Write the bytes of dumps(doc) to the text file fh, one piece at a time."""
    fh.writelines(_pieces(doc, "\n"))
    fh.write("\n")


_LITERALS = {True: "true", False: "false", None: "null"}
_LEAF_ENCODER = json.JSONEncoder()


@functools.cache
def _flat_encoder(item: str):
    """encode of a C encoder that separates list items by "," + item: one per depth."""
    return json.JSONEncoder(separators=("," + item, ": ")).encode


def _pieces(value, newline: str) -> Iterator[str]:
    """JSON text of value in pieces; its line ends with newline ("\\n" plus its indent)."""
    item = newline + "  "
    if isinstance(value, dict):
        yield from _bracketed("{}", item, newline, (
            itertools.chain((encode_basestring_ascii(key) + ": ",), _pieces(v, item))
            for key, v in sorted(value.items())))
    elif isinstance(value, _DecimalStrings):
        yield from _bracketed("[]", item, newline, (
            (piece,) for piece in _value_pieces(value.values, "," + item, '"')))
    elif isinstance(value, (list, tuple)):
        if any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, value))):
            members = (_pieces(v, item) for v in value)
        else:
            encode = _flat_encoder(item)
            members = ((encode(value[i:i + CHUNK])[1:-1],) for i in range(0, len(value), CHUNK))
        yield from _bracketed("[]", item, newline, members)
    else:
        yield _leaf(value)


def _bracketed(brackets: str, item: str, newline: str,
               members: Iterable[Iterable[str]]) -> Iterator[str]:
    """The members' pieces, each on its own line (item), between "," and in brackets.

    Just the brackets when there is no member.
    """
    separator, empty = brackets[0] + item, True
    for member in members:
        yield separator
        yield from member
        separator, empty = "," + item, False
    yield brackets if empty else newline + brackets[1]


def _leaf(value) -> str:
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
