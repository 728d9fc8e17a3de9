import json
import math

import numpy as np
import pytest

from capnorm import io, operators
from capnorm.cli import run, resolve_config, ConfigError, sampler_from_config
from capnorm.grid import CellSet, GridError, GridFunction, Sampler, make_grid, sample
from capnorm.operators import MaximalParams, RieszParams, maximal, riesz


@pytest.fixture
def two_cells(tmp_path):
    g = make_grid(1, 2, 1.0, origin=(0.0,))
    cells = CellSet(g, np.array([True, False, False, True]))
    path = tmp_path / "two_cells.json"
    path.write_text(io.dumps(io.cellset_to_dict(cells)))
    return str(path)


@pytest.fixture
def indicator_fn(tmp_path):
    g = make_grid(2, 4, 2.0)
    f = sample(Sampler.ball_indicator((0.0, 0.0), 0.5), g)
    path = tmp_path / "fn.json"
    path.write_text(io.dumps(io.gridfunction_to_dict(f)))
    return str(path)


def test_content_subcommand(two_cells, capsys):
    assert run(["content", "--set", two_cells, "--delta", "0.7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(2 * 4.0**-0.7, rel=1e-12)
    assert len(doc["cover"]) == 2


def test_norm_subcommand_q_inf(indicator_fn, capsys):
    assert run(["norm", "--fn", indicator_fn, "--delta", "1.5", "--p", "2", "--q", "inf"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["norm"] > 0
    assert doc["distribution"]["thresholds"] == [1.0]


def test_norm_dyadic_and_lebesgue_flags(indicator_fn, capsys):
    assert run(["norm", "--fn", indicator_fn, "--delta", "1.5", "--p", "1.5", "--dyadic"]) == 0
    d1 = json.loads(capsys.readouterr().out)
    assert run(["norm", "--fn", indicator_fn, "--delta", "1.5", "--p", "1.5", "--lebesgue"]) == 0
    d2 = json.loads(capsys.readouterr().out)
    assert d1["norm"] > 0 and d2["norm"] > 0


def test_norm_lebesgue_echoes_the_delta_it_uses(indicator_fn, capsys):
    # --lebesgue computes at delta = dim whatever --delta says, and says so
    base = ["norm", "--fn", indicator_fn, "--p", "1.5", "--q", "2"]
    assert run(base + ["--delta", "1.3", "--lebesgue"]) == 0
    lebesgue = json.loads(capsys.readouterr().out)
    assert run(base + ["--delta", "2"]) == 0
    at_dim = json.loads(capsys.readouterr().out)
    assert run(base + ["--delta", "1.3"]) == 0
    at_13 = json.loads(capsys.readouterr().out)
    assert lebesgue.pop("lebesgue") is True and at_dim.pop("lebesgue") is False
    assert lebesgue == at_dim and lebesgue["delta"] == 2.0
    assert at_13["norm"] != at_dim["norm"]


def test_maximal_riesz_roundtrip(indicator_fn, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(["maximal", "--fn", indicator_fn, "--mu", "0.5", "--out", str(out)]) == 0
    f = io.read_gridfunction(str(out))
    assert f.values.max() > 0
    assert run(["riesz", "--fn", indicator_fn, "--alpha", "1.0", "--out", str(out)]) == 0
    f = io.read_gridfunction(str(out))
    assert f.values.max() > 0


def test_interp_subcommand(indicator_fn, capsys):
    rc = run(["interp", "--fn", indicator_fn, "--p0", "1.0", "--p1", "3.0",
              "--eta", "0.5", "--q", "2.0", "--delta", "1.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["k_values"]) == 64
    assert doc["interp_norm"] > 0 and doc["ratio"] > 0


def test_verify_missing_config_exits_2(capsys):
    assert run(["verify", "poincare", "--config", "missing.toml"]) == 2


def test_verify_unknown_experiment_exits_2(capsys):
    assert run(["verify", "nonsense"]) == 2


def test_verify_unknown_key_exits_2(capsys):
    assert run(["verify", "poincare", "--set", "bogus=1"]) == 2


_DEPTH_EXPERIMENTS = ["poincare", "poincare_weak", "poincare_sobolev", "compact_support",
                      "riesz_bound", "maximal_bound", "hedberg"]


# an empty sweep used to pass with an empty series, and a descending one ran
# the growth check backwards
@pytest.mark.parametrize("depths", ["[]", "[5, 4]"])
@pytest.mark.parametrize("experiment", _DEPTH_EXPERIMENTS)
def test_verify_depths_must_be_nonempty_and_increasing(experiment, depths, capsys):
    assert run(["verify", experiment, "--set", f"depths={depths}"]) == 2
    assert "depths must be a nonempty strictly increasing list" in capsys.readouterr().err


# values of the wrong JSON type are configuration errors, not a failing verdict
@pytest.mark.parametrize("override", ["depths=5", 'p="abc"', "shape=5"])
def test_verify_config_value_of_wrong_type_exits_2(override, capsys):
    assert run(["verify", "poincare", "--set", override]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_runs_and_is_deterministic(capsys):
    assert run(["verify", "poincare", "--set", "depths=[3,4]"]) == 0
    out1 = capsys.readouterr().out
    assert run(["verify", "poincare", "--set", "depths=[3,4]"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdict"] is True
    assert doc["config"]["depths"] == [3, 4]
    assert "config_hash" in doc["provenance"]


def test_verify_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depths": [3, 4], "p": 1.2}))
    assert run(["verify", "poincare", "--config", str(cfg), "--set", "q=1.8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["p"] == 1.2  # file beats default
    assert doc["config"]["q"] == 1.8  # CLI beats file


def test_verify_csv_emission(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    assert run(["verify", "poincare", "--set", "depths=[3,4]", "--csv", str(csv)]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "label,value"
    assert len(lines) > 4


def test_resolve_config_precedence():
    cfg = resolve_config("poincare", {"p": 2.0}, {"p": 3.0})
    assert cfg["p"] == 3.0
    with pytest.raises(ConfigError):
        resolve_config("poincare", {"nope": 1}, {})
    with pytest.raises(ConfigError):
        resolve_config("not_an_experiment", {}, {})


def test_sampler_from_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        sampler_from_config({"kind": "constant", "value": 1.0, "zzz": 2})
    s = sampler_from_config({"kind": "radial_power", "exponent": -0.5,
                             "center": [0.0, 0.0], "annulus": [0.1, 1.0]})
    assert s.kind == "radial_power"


_RIESZ_3D = ["riesz_bound", "--set", "dim=3", "--set", "delta=3.0", "--set", "p=2.0",
             "--set", "depths=[2,3]"]


# the run's dimension comes from the config's dim, else from the shape
@pytest.mark.parametrize("args", [
    _RIESZ_3D + ["--set", 'sampler={"kind": "ball_indicator", "radius": 0.5}'],
    ["compact_support", "--set", 'shape={"shape": "ball", "center": [0, 0, 0], "radius": 1.0}',
     "--set", 'sampler={"kind": "bump", "radius": 0.5}', "--set", "delta=3.0",
     "--set", "p=1.5", "--set", "depths=[4]"],
])
def test_verify_sampler_center_defaults_to_origin_of_run_dim(args, capsys):
    assert run(["verify", *args]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "center=(0.0, 0.0, 0.0)" in doc["params"]["sampler"]


def test_verify_sampler_center_of_wrong_length_exits_2(capsys):
    sampler = 'sampler={"kind": "ball_indicator", "center": [0, 0], "radius": 0.5}'
    assert run(["verify", *_RIESZ_3D, "--set", sampler]) == 2
    assert "center has 2 coordinates but the run has dim 3" in capsys.readouterr().err


def test_verify_integral_float_dim_runs_as_integer(capsys):
    sampler = 'sampler={"kind": "ball_indicator", "radius": 0.5}'
    assert run(["verify", *_RIESZ_3D, "--set", sampler]) == 0
    as_int = json.loads(capsys.readouterr().out)
    assert run(["verify", *_RIESZ_3D, "--set", sampler, "--set", "dim=3.0"]) == 0
    as_float = json.loads(capsys.readouterr().out)
    assert as_float["series"] == as_int["series"]
    assert run(["verify", *_RIESZ_3D, "--set", sampler, "--set", "dim=2.5"]) == 2
    assert "grid dim must be an integer, got 2.5" in capsys.readouterr().err


def test_verify_linear_sampler_coeffs_of_wrong_length_exits_2(capsys):
    ball_3d = 'shape={"shape": "ball", "center": [0, 0, 0], "radius": 1.0}'
    args = ["verify", "poincare", "--set", ball_3d, "--set", "depths=[3]", "--set", "delta=3.0"]
    assert run(args) == 2  # the default sampler's coeffs are 2D
    assert "sampler coeffs has 2 entries but the run has dim 3" in capsys.readouterr().err
    assert run([*args, "--set", 'sampler={"kind": "linear", "coeffs": [1.0, -0.5, 0.25]}']) == 0


@pytest.mark.parametrize("dim, depth", [(2, 12), (3, 8)])
def test_operator_memory_budget_exits_2(dim, depth, monkeypatch, capsys):
    # the grid is under make_grid's cell cap, but its (2m)^dim padded transform
    # is not; the one a depth lower is admitted
    f = GridFunction.zeros(make_grid(dim, depth, 1.0))
    with pytest.raises(GridError, match="exceeding the cap"):
        maximal(f, MaximalParams(0.5))
    with pytest.raises(GridError, match="exceeding the cap"):
        riesz(f, RieszParams(1.0))
    assert operators._padded_shape(make_grid(dim, depth - 1, 1.0)) == (2**depth,) * dim
    monkeypatch.setattr(io, "read_gridfunction", lambda path: f)
    for command, flag in (("maximal", "--mu"), ("riesz", "--alpha")):
        assert run([command, "--fn", "unread.json", flag, "1.0"]) == 2
        assert "exceeding the cap" in capsys.readouterr().err


def test_selftest(capsys):
    assert run(["selftest"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert {c["name"] for c in doc["checks"]} == {
        "oracle_equivalence", "measure_coincidence", "norm_identities"
    }


def test_emitted_json_reparses_and_revalidates(indicator_fn, tmp_path):
    out = tmp_path / "gf.json"
    assert run(["maximal", "--fn", indicator_fn, "--mu", "0.0", "--out", str(out)]) == 0
    doc = io.load_path(str(out))
    f = io.gridfunction_from_dict(doc)
    doc2 = io.gridfunction_to_dict(f)
    assert doc == doc2


def test_oversized_grid_document_refused_before_values(tmp_path, capsys):
    # 2D depth 13 is 2^26 leaf cells, past make_grid's cap; the values are
    # never read, so even an unparsable one cannot be the reported error
    grid = {"dim": 2, "depth": 13, "root_side": 1.0, "origin": [0.0, 0.0]}
    with pytest.raises(GridError, match="cap"):
        io.gridfunction_from_dict({"grid": grid, "values": ["not a number"]})
    with pytest.raises(GridError, match="cap"):
        io.cellset_from_dict({"grid": grid, "cells": [1]})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"grid": grid, "values": ["not a number"]}))
    assert run(["norm", "--fn", str(path), "--delta", "1.5", "--p", "2"]) == 2
    assert "cap" in capsys.readouterr().err


def test_grid_document_roundtrip_under_cap():
    g = make_grid(3, 4, 1.7, origin=(0.25, -3.0, 1e-17))
    assert io.grid_from_dict(json.loads(io.dumps(io.grid_to_dict(g)))) == g


@pytest.mark.parametrize("key, value", [
    ("dim", 2.7), ("depth", 3.9), ("dim", True), ("depth", "3"), ("depth", math.inf),
])
def test_grid_document_requires_integer_dim_and_depth(key, value, tmp_path, capsys):
    grid = {"dim": 2, "depth": 3, "root_side": 1.0, "origin": [0.0, 0.0], key: value}
    with pytest.raises(GridError, match=f"grid {key} must be an integer"):
        io.grid_from_dict(grid)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"grid": grid, "values": ["1"] * 64}))
    assert run(["norm", "--fn", str(path), "--delta", "1.5", "--p", "2"]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_grid_document_accepts_integral_floats():
    # JSON Schema counts 2.0 as an integer
    g = io.grid_from_dict({"dim": 2.0, "depth": 3.0, "root_side": 1.0, "origin": [0.0, 0.0]})
    assert g == make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    assert type(g.dim) is int and type(g.depth) is int
