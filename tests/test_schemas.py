"""Emitted JSON artifacts validate against the shipped schemas."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from capnorm import io
from capnorm.cli import run
from capnorm.content import dyadic_content
from capnorm.grid import CellSet, Sampler, make_grid, sample
from capnorm.verify import EXPERIMENTS

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def _validator(name):
    from referencing import Registry, Resource

    resources = []
    docs = {}
    for path in SCHEMA_DIR.glob("*.schema.json"):
        doc = json.loads(path.read_text())
        docs[doc["$id"]] = doc
        resources.append((doc["$id"], Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)
    schema = docs[f"capnorm/{name}.schema.json"]
    return jsonschema.Draft202012Validator(schema, registry=registry)


def test_cellset_and_gridfunction_schemas():
    g = make_grid(2, 3, 2.0)
    rng = np.random.default_rng(8)
    cells = CellSet(g, rng.random(g.shape) < 0.5)
    _validator("cellset").validate(io.cellset_to_dict(cells))
    f = sample(Sampler.bump((0.0, 0.0), 0.8), g)
    _validator("gridfunction").validate(io.gridfunction_to_dict(f))


def test_cover_schema():
    g = make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    rng = np.random.default_rng(9)
    cells = CellSet(g, rng.random(g.shape) < 0.5)
    sol = dyadic_content(cells, 1.2)
    _validator("cover").validate(io.cover_to_dict(sol))


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_report_schema(capsys):
    # a default report holds no NaN or Infinity, so strict parsers read it
    validator = _validator("report")
    for name in sorted(EXPERIMENTS):
        assert run(["verify", name]) == 0
        validator.validate(json.loads(capsys.readouterr().out, parse_constant=_refuse))


def test_norm_and_interp_output_schemas(tmp_path, capsys):
    g = make_grid(2, 4, 2.0)
    f = sample(Sampler.ball_indicator((0.0, 0.0), 0.5), g)
    fn = tmp_path / "fn.json"
    fn.write_text(io.dumps(io.gridfunction_to_dict(f)))
    assert run(["norm", "--fn", str(fn), "--delta", "1.5", "--p", "1.5", "--q", "inf"]) == 0
    _validator("norm").validate(json.loads(capsys.readouterr().out))
    assert run(["interp", "--fn", str(fn), "--p0", "1", "--p1", "3",
                "--eta", "0.5", "--q", "2", "--delta", "1.5"]) == 0
    _validator("interp").validate(json.loads(capsys.readouterr().out))
