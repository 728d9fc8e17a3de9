import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from capnorm import choquet, cli, interp, io, operators
from capnorm.cli import run, resolve_config, ConfigError, sampler_from_config, shape_from_config
from capnorm.domains import Shape
from capnorm.grid import CellSet, GridError, GridFunction, Sampler, make_grid, sample
from capnorm.operators import MaximalParams, maximal, riesz
from capnorm.verify import EXPERIMENTS, VerifyError, poincare_sobolev_check


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


# a tail factor 1 - 2**-q that rounds to zero used to end in a
# ZeroDivisionError traceback, an overflowing power in an OverflowError one
@pytest.mark.parametrize("q", ["1e-300", "1e300"])
def test_norm_dyadic_out_of_range_q_exits_2(indicator_fn, q, capsys):
    assert run(["norm", "--fn", indicator_fn, "--delta", "1.5", "--p", "1.5", "--q", q,
                "--dyadic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"q={float(q):g} is not finite" in err


# powers that underflow used to print a norm of 0.0, and one that overflowed
# in the interpolation norm's tails ended in an OverflowError traceback
@pytest.mark.parametrize("args, message", [
    (["norm", "--delta", "2", "--p", "1.5", "--q", "1e4"], "Lorentz norm at p=1.5, q=10000"),
    (["norm", "--delta", "2", "--p", "1.5", "--q", "1e3", "--dyadic"],
     "dyadic sum norm at p=1.5, q=1000"),
    (["norm", "--delta", "2", "--p", "1e-300", "--q", "1e-300"], "Lorentz norm at p=1e-300, q=1e-300"),
    (["interp", "--p0", "1", "--p1", "3", "--eta", "0.5", "--q", "1e4", "--delta", "2"],
     "interpolation norm at p=1.5, q=10000"),
    (["interp", "--p0", "1", "--p1", "3", "--eta", "0.5", "--q", "1e4", "--delta", "1.5"],
     "interpolation norm at p=1.5, q=10000"),
])
def test_norm_outside_double_precision_exits_2(indicator_fn, args, message, capsys):
    assert run([args[0], "--fn", indicator_fn, *args[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert f"{message} is not finite" in err


# norm refused both exponents at once as "invalid Lorentz exponents p=-1.0,
# q=-1.0", where verify named the one outside its window
@pytest.mark.parametrize("args, message", [
    (["--p", "-1"], "p must be in (0, inf), got -1.0"),
    (["--p", "inf", "--q", "2"], "p must be in (0, inf), got inf"),
    (["--p", "1.5", "--q", "0"], "q must be in (0, inf], got 0.0"),
    (["--p", "1.5", "--q", "-1", "--dyadic"], "q must be in (0, inf], got -1.0"),
])
def test_norm_exponent_outside_its_window_exits_2_naming_it(indicator_fn, args, message, capsys):
    assert run(["norm", "--fn", indicator_fn, "--delta", "1.5", *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("q", ["inf", "Infinity", "INF"])
def test_norm_q_reads_infinity_in_any_case(indicator_fn, q, capsys):
    assert run(["norm", "--fn", indicator_fn, "--delta", "1.5", "--p", "2", "--q", q]) == 0
    assert json.loads(capsys.readouterr().out)["q"] == "inf"


@pytest.mark.parametrize("flag", ["--p", "--q"])
def test_norm_unparsable_number_is_a_usage_error(indicator_fn, flag, capsys):
    value = {"--p": "1.5", "--q": "2", flag: "abc"}
    with pytest.raises(SystemExit) as exc:
        run(["norm", "--fn", indicator_fn, "--delta", "1.5", "--p", value["--p"], "--q", value["--q"]])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid float value: 'abc'" in capsys.readouterr().err


def test_maximal_riesz_roundtrip(indicator_fn, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(["maximal", "--fn", indicator_fn, "--mu", "0.5", "--out", str(out)]) == 0
    f = io.read_gridfunction(str(out))
    assert f.values.max() > 0
    assert run(["riesz", "--fn", indicator_fn, "--alpha", "1.0", "--out", str(out)]) == 0
    f = io.read_gridfunction(str(out))
    assert f.values.max() > 0


@pytest.mark.parametrize("args", [["maximal", "--mu", "0.5"], ["riesz", "--alpha", "1.0"],
                                  ["norm", "--delta", "2", "--p", "1.5", "--lebesgue"]])
def test_stdout_and_out_file_get_the_same_bytes(indicator_fn, tmp_path, capsys, args):
    out = tmp_path / "out.json"
    argv = [args[0], "--fn", indicator_fn, *args[1:]]
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(argv) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


# an alpha whose Riesz normalization or self-cell weight overflows ended in an
# OverflowError traceback (1e-310) or a numpy warning then "math domain error" (5e-324);
# one whose finite kernel overflowed the spectrum product (1e-306, 1e-307) ended in
# numpy's overflow warning, then "grid function values must be finite"
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ["1e-310", "5e-324", "1e-306", "1e-307"])
@pytest.mark.parametrize("args", [
    ["riesz_bound", "--set", "depths=[3]"],
    ["hedberg", "--set", "depths=[3]"],
    ["sharpness_riesz", "--set", "depth=4"],
    None,  # capnorm riesz
])
def test_alpha_past_double_precision_exits_2_naming_alpha(indicator_fn, capsys, alpha, args):
    if args is None:
        argv = ["riesz", "--fn", indicator_fn, "--alpha", alpha]
    else:
        argv = ["verify", *args, "--set", f"alpha={alpha}"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: alpha={alpha} is too small") and err.count("\n") == 1


def test_interp_subcommand(indicator_fn, capsys):
    rc = run(["interp", "--fn", indicator_fn, "--p0", "1.0", "--p1", "3.0",
              "--eta", "0.5", "--q", "2.0", "--delta", "1.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["k_values"]) == 64
    assert doc["interp_norm"] > 0 and doc["ratio"] > 0


# sha256 of `capnorm interp --out` on the field below (m = 3285 thresholds at
# delta = 1.5), recorded while each entry point still built its own distribution
INTERP_OUTPUT_SHA256 = "8cde26ff5feecda00e276a47f584c6a9c6293615f2a84456dd6931bd6914d037"


@pytest.fixture
def interp_fn(tmp_path):
    rng = np.random.default_rng(23)
    values = rng.exponential(size=(64, 64)) * (rng.random((64, 64)) < 0.8)
    path = tmp_path / "interp_fn.json"
    path.write_text(io.dumps(io.gridfunction_to_dict(GridFunction(make_grid(2, 6, 2.0), values))))
    return str(path)


def test_interp_builds_one_distribution_with_pinned_output(interp_fn, tmp_path, monkeypatch):
    calls, line_calls = [], []
    truncation_lines = interp._truncation_lines

    def counted(f, delta):
        calls.append(delta)
        return choquet.distribution(f, delta)

    def counted_lines(dist, p0, p1):
        line_calls.append((p0, p1))
        return truncation_lines(dist, p0, p1)

    for module in (cli, interp):  # every name a distribution is built through
        monkeypatch.setattr(module, "distribution", counted)
    monkeypatch.setattr(interp, "_truncation_lines", counted_lines)
    out = tmp_path / "interp.json"
    assert run(["interp", "--fn", interp_fn, "--p0", "1.0", "--p1", "3.0", "--eta", "0.5",
                "--q", "2.0", "--delta", "1.5", "--out", str(out)]) == 0
    assert calls == [1.5]
    assert line_calls == [(1.0, 3.0)]  # the norm and the profile read one envelope
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INTERP_OUTPUT_SHA256


# sha256 of `capnorm interp --out` on a 3D depth-4 field of 32 value levels at
# delta = 2.2: cells share values, so the distribution sorts repeats; recorded
# while the delta < dim distribution still grouped cells through np.unique
INTERP_3D_OUTPUT_SHA256 = "5ca8f537c6e6d544a0c1f6a9f13f26fdebe8adf3664230bd1cb0f1c9bff1b1b3"


def test_interp_output_pinned_on_a_3d_field_of_repeated_values(tmp_path):
    rng = np.random.default_rng(28)
    values = rng.integers(0, 32, size=(16, 16, 16)) * 0.25
    fn, out = tmp_path / "fn.json", tmp_path / "interp.json"
    fn.write_text(io.dumps(io.gridfunction_to_dict(GridFunction(make_grid(3, 4, 2.0), values))))
    assert run(["interp", "--fn", str(fn), "--p0", "1.0", "--p1", "3.0", "--eta", "0.5",
                "--q", "2.0", "--delta", "2.2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INTERP_3D_OUTPUT_SHA256


# a cut whose two norms both underflow makes K vanish on this nonzero f
def test_interp_refuses_a_vanishing_k(tmp_path, capsys):
    values = ["1"] + ["5e-324"] * 15
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"grid": {"dim": 1, "depth": 4, "root_side": 1.0, "origin": [0.0]},
                                "values": values}))
    assert run(["interp", "--fn", str(path), "--p0", "1e-3", "--p1", "1.5", "--eta", "0.5",
                "--q", "2", "--delta", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: K vanishes") and err.count("\n") == 1


# the zero function's distribution skipped the delta check, so norm and interp
# exited 0 on it at delta 7 or nan and echoed that delta
@pytest.mark.parametrize("delta", ["7", "nan", "0", "-1"])
@pytest.mark.parametrize("zero", [True, False], ids=["zero", "nonzero"])
@pytest.mark.parametrize("command", [
    ["norm", "--p", "1.5"], ["interp", "--p0", "1", "--p1", "3", "--eta", "0.5", "--q", "2"],
], ids=["norm", "interp"])
def test_delta_outside_its_window_exits_2_for_every_field(command, zero, delta, indicator_fn,
                                                          tmp_path, capsys):
    fn = indicator_fn
    if zero:
        fn = str(tmp_path / "zero.json")
        with open(fn, "w", encoding="utf-8") as fh:
            io.write_gridfunction(GridFunction.zeros(make_grid(2, 4, 2.0)), fh)
    assert run([command[0], "--fn", fn, *command[1:], "--delta", delta]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: delta must be") and err.count("\n") == 1


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


# integral float depths used to run but be recorded as given: labels lhs@d3.0,
# params [3.0, 4.0] and a config_hash other than the one for [3, 4]
@pytest.mark.parametrize("experiment, floats, ints", [
    ("riesz_bound", "depths=[3.0,4.0]", "depths=[3,4]"),
    ("sharpness_poincare", "depth=6.0", "depth=6"),
])
def test_verify_integral_float_depths_give_the_int_report(experiment, floats, ints, tmp_path):
    outputs = []
    for override in (floats, ints):
        out, csv = tmp_path / f"{override}.json", tmp_path / f"{override}.csv"
        assert run(["verify", experiment, "--set", override, "--out", str(out), "--csv", str(csv)]) == 0
        outputs.append((out.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("experiment, override, message", [
    ("riesz_bound", "depths=[3,3.5]", "grid depth must be an integer, got 3.5"),
    # booleans and strings as the config spells them: this read "got True" and "got '3'"
    ("riesz_bound", "depths=[true,4]", "grid depth must be an integer, got true"),
    ("riesz_bound", 'depths=["3",4]', 'grid depth must be an integer, got "3"'),
    ("sharpness_poincare", "depth=6.5", "grid depth must be an integer, got 6.5"),
    ("sharpness_poincare", "depth=true", "config key 'depth' must not be true or false, got true"),
])
def test_verify_depth_that_is_not_an_integer_exits_2(experiment, override, message, capsys):
    assert run(["verify", experiment, "--set", override]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_override_without_equals_exits_2(capsys):
    assert run(["verify", "poincare", "--set", "depths"]) == 2
    assert capsys.readouterr().err == "error: override must look like key=value, got 'depths'\n"


# compact_support named the window without its value
@pytest.mark.parametrize("experiment", ["poincare", "compact_support"])
def test_verify_q_below_its_window_names_the_window(experiment, capsys):
    assert run(["verify", experiment, "--set", "q=0.5"]) == 2
    assert capsys.readouterr().err == "error: q must be in (delta/dim, inf) = (1, inf), got 0.5\n"


# values of the wrong JSON type are configuration errors, not a failing verdict
@pytest.mark.parametrize("override", ["depths=5", 'p="abc"', "shape=5"])
def test_verify_config_value_of_wrong_type_exits_2(override, capsys):
    assert run(["verify", "poincare", "--set", override]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_config_file_not_an_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["verify", "poincare", "--config", str(cfg)]) == 2
    assert "a config file must hold a JSON object, got list" in capsys.readouterr().err


# fewer than 4 radii, or a non-positive one, is refused before any field is computed;
# strings and booleans used to be read as numbers, by float() or as 1.0
@pytest.mark.parametrize("eps_list", ["[0.5,0.25,0.125]", "[0.5,0.25,0.125,0.0]",
                                      '["0.5","0.25","0.125","0.0625"]', "[true,0.25,0.125,0.0625]"])
@pytest.mark.parametrize("experiment", ["sharpness_poincare", "sharpness_riesz"])
def test_verify_eps_list_must_hold_four_positive_values(experiment, eps_list, capsys):
    assert run(["verify", experiment, "--set", f"eps_list={eps_list}"]) == 2
    assert "eps_list must hold at least 4 positive values" in capsys.readouterr().err


# a radius not below the outer one used to be refused only once the sweep reached it,
# under a message naming the annulus; now no field is computed
@pytest.mark.parametrize("experiment, outer", [("sharpness_poincare", "1"), ("sharpness_riesz", "10")])
def test_verify_eps_list_refuses_a_radius_at_the_outer_one(experiment, outer, capsys):
    assert run(["verify", experiment, "--set", f"eps_list=[0.5,0.25,0.125,{outer}]"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: eps_list must hold values below the outer radius {outer}, "
                                 f"got [0.125, 0.25, 0.5, {outer}.0]\n")


# two radii with one {eps:g} label used to run: the report and CSV held that label
# twice, and the slope was fitted from 3 distinct radii
@pytest.mark.parametrize("eps_list", ["[0.25,0.125,0.0625,0.0625]", "[0.25,0.125,0.06250001,0.0625]"])
@pytest.mark.parametrize("experiment", ["sharpness_poincare", "sharpness_riesz"])
def test_verify_eps_list_refuses_a_repeated_label(experiment, eps_list, capsys):
    assert run(["verify", experiment, "--set", f"eps_list={eps_list}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: eps_list repeats the label eps=0.0625")


# p = delta/alpha used to end in a ZeroDivisionError traceback from riesz_left_exponent;
# alpha = 0 must still be refused by its own name
@pytest.mark.parametrize("experiment, override, message", [
    ("sharpness_poincare", "p=2.0", "p must be in (0, delta) = (0, 2), got 2.0"),
    ("sharpness_poincare", "p=0", "p must be in (0, delta) = (0, 2), got 0"),
    ("sharpness_poincare", "p=-1", "p must be in (0, delta) = (0, 2), got -1"),
    ("sharpness_riesz", "p=2.0", "p must be positive with p*alpha < delta = 2, got 2.0"),
    ("sharpness_riesz", "p=0", "p must be positive with p*alpha < delta = 2, got 0"),
    ("sharpness_riesz", "alpha=0", "alpha must be in (0, dim) = (0, 2), got 0"),
])
def test_verify_sharpness_p_outside_left_exponent_domain_exits_2(experiment, override, message,
                                                                 capsys):
    assert run(["verify", experiment, "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


# mu outside its window: sharpness_riesz passed at mu = 1.2 and named s at -0.5,
# sharpness_poincare named a derived delta at -1 and failed its verdict at 1.5,
# and maximal_bound named p, with an empty window, at -0.5 and 2.5
@pytest.mark.parametrize("experiment, mu", [
    ("sharpness_riesz", "1.2"), ("sharpness_riesz", "-0.5"),
    ("sharpness_poincare", "-1"), ("sharpness_poincare", "1.5"),
    ("maximal_bound", "-0.5"), ("maximal_bound", "2.5"),
])
def test_verify_mu_outside_its_window_exits_2(experiment, mu, capsys):
    assert run(["verify", experiment, "--set", f"mu={mu}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: mu must be in [0, ") and err.count("\n") == 1


# a delta outside (0, dim] is named as delta, by the content's one check, which every
# runner makes before any window is read off delta: at delta = 3, poincare, poincare_weak,
# compact_support and maximal_bound used to name p and sharpness_riesz eta
@pytest.mark.parametrize("experiment, delta", [
    ("hedberg", "-1"), ("hedberg", "0"), ("hedberg", "3"), ("poincare", "-1"), ("maximal_bound", "0"),
    *[(name, "3") for name in sorted(EXPERIMENTS) if name != "hedberg"], ("poincare", "Infinity"),
])
def test_verify_delta_outside_its_window_exits_2(experiment, delta, capsys):
    assert run(["verify", experiment, "--set", f"delta={delta}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: delta must be in (0, 2], got ") and err.count("\n") == 1


# a --set value that is not JSON used to exit 2 with only the decoder's message
# ("Expecting value: line 1 column 1 (char 0)"), naming neither key nor value
@pytest.mark.parametrize("override, key, raw", [("mu=abc", "mu", "abc"), ("mu=nan", "mu", "nan"),
                                                ("depths=[4,", "depths", "[4,")])
def test_verify_override_that_is_not_json_names_key_and_value(override, key, raw, capsys):
    assert run(["verify", "poincare_sobolev", "--set", override]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: --set {key}: the value {raw!r} is not JSON (")
    assert err.count("\n") == 1


# an infinite config number used to be recorded in params as Infinity, which strict JSON lacks
@pytest.mark.parametrize("experiment, override", [
    ("hedberg", "q=1e400"), ("hedberg", "q=Infinity"),
    ("poincare", 'sampler={"kind":"radial_power","exponent":0.5,"annulus":[0,1e400]}'),
], ids=["q_1e400", "q_Infinity", "annulus"])
def test_verify_infinite_config_number_exits_2(experiment, override, capsys):
    key = override.split("=")[0]
    assert run(["verify", experiment, "--set", "depths=[3]", "--set", override]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {key} must hold only finite numbers")
    assert err.count("\n") == 1


# poincare_sobolev in 1D has alpha = 1 = dim: its endpoint p = delta/dim ended
# in a ZeroDivisionError traceback from riesz_left_exponent
def test_verify_poincare_sobolev_in_1d_is_refused_by_alpha_and_dim(capsys):
    assert run(["verify", "poincare_sobolev",
                "--set", 'shape={"shape":"ball","center":[0.0],"radius":1.0}',
                "--set", 'sampler={"kind":"linear","coeffs":[1.0]}',
                "--set", "delta=1.0", "--set", "p=1.0"]) == 2
    assert capsys.readouterr().err == "error: alpha must be in (0, dim) = (0, 1), got 1.0\n"
    with pytest.raises(VerifyError, match=r"^alpha must be in \(0, dim\) = \(0, 1\)"):
        poincare_sobolev_check(Shape.ball((0.0,), 1.0), Sampler.linear([1.0]), 0.0, 1.0, 1.0,
                               None, [3])


# every experiment outside 2D, on a ball, a bump and dim of that dimension
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_verify_every_experiment_in_1d_and_3d_ends_cleanly(name, dim, capsys):
    center = [0.0] * dim
    overrides = {"shape": {"shape": "ball", "center": center, "radius": 1.0},
                 "sampler": {"kind": "bump", "center": center, "radius": 0.7},
                 "dim": dim, "depths": [2, 3], "depth": 3}
    args = ["verify", name]
    for key, value in overrides.items():
        if key in EXPERIMENTS[name].defaults:
            args += ["--set", f"{key}={json.dumps(value)}"]
    code = run(args)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
        assert all(math.isfinite(value) for _, value in json.loads(out)["series"])


def test_verify_runs_and_is_deterministic(capsys):
    assert run(["verify", "poincare", "--set", "depths=[3,4]"]) == 0
    out1 = capsys.readouterr().out
    assert run(["verify", "poincare", "--set", "depths=[3,4]"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdict"] is True
    assert doc["params"]["depths"] == [3, 4]
    assert "config_hash" in doc["provenance"]


def test_verify_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depths": [3, 4], "p": 1.2}))
    assert run(["verify", "poincare", "--config", str(cfg), "--set", "q=1.8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["p"] == 1.2  # file beats default
    assert doc["params"]["q"] == 1.8  # CLI beats file


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


# every refusal is a ConfigError naming the kind; a bump with no radius used to
# print a bare KeyError, "error: 'radius'", and a negative radius used to run
@pytest.mark.parametrize("key, value, message", [
    ("sampler", {"kind": "tabulated"}, "unknown sampler kind 'tabulated'"),
    ("sampler", {"value": 1.0}, "unknown sampler kind None"),
    ("sampler", {"kind": "bump"},
     "sampler kind 'bump': Sampler.bump() missing 1 required positional argument: 'radius'"),
    ("sampler", {"kind": "bump", "radius": 0}, "sampler kind 'bump': sampler radius must be positive"),
    ("sampler", {"kind": "bump", "radius": -0.5}, "sampler kind 'bump': sampler radius must be"),
    ("sampler", {"kind": "ball_indicator", "radius": -1},
     "sampler kind 'ball_indicator': sampler radius must be positive"),
    ("shape", {"shape": "ball", "center": [0, 0], "radius": 1.0, "side": 2},
     "shape kind 'ball': Shape.ball() got an unexpected keyword argument 'side'"),
    ("shape", {"shape": "ball", "radius": 1.0},
     "shape kind 'ball': Shape.ball() missing 1 required positional argument: 'center'"),
    ("shape", {"shape": "rectangle", "center": [0, 0], "sides": [1.0]},
     "shape kind 'rectangle': rectangle needs 2 sides, got 1"),
    # NaN and inf used to get past the shapes' `<= 0` tests; a 1D rectangle center
    # used to run with the 2D John constants, a 3D one failed in numpy broadcasting
    ("shape", {"shape": "ball", "center": [0, 0], "radius": math.nan},
     "shape kind 'ball': ball radius must be positive and finite, got nan"),
    ("shape", {"shape": "punctured_ball", "center": [0, 0], "radius": math.inf},
     "shape kind 'punctured_ball': punctured_ball radius must be positive and finite, got inf"),
    ("shape", {"shape": "l_shape", "anchor": [0, 0], "size": math.nan},
     "shape kind 'l_shape': l_shape size must be positive and finite, got nan"),
    ("shape", {"shape": "rectangle", "center": [0, 0], "sides": [1.0, math.inf]},
     "shape kind 'rectangle': rectangle sides must be positive and finite, got inf"),
    ("shape", {"shape": "rectangle", "center": [0], "sides": [1.0, 2.0]},
     "shape kind 'rectangle': rectangle center needs 2 coordinates, got 1"),
    ("shape", {"shape": "rectangle", "center": [0, 0, 0], "sides": [1.0, 2.0]},
     "shape kind 'rectangle': rectangle center needs 2 coordinates, got 3"),
    # a string or a boolean used to be read as a number, by float() or as 0 and 1
    ("sampler", {"kind": "ball_indicator", "radius": "0.5"},
     "sampler kind 'ball_indicator': radius must be a number, a list of numbers or null, got '0.5'"),
    ("sampler", {"kind": "bump", "center": [True, 0], "radius": 0.5},
     "sampler kind 'bump': center must be a number, a list of numbers or null, got [True, 0]"),
    ("sampler", {"kind": "bump", "radius": 0.7, "amplitude": True},
     "sampler kind 'bump': amplitude must be a number, a list of numbers or null, got True"),
    ("shape", {"shape": "ball", "center": [0, 0], "radius": "1"},
     "shape kind 'ball': radius must be a number, a list of numbers or null, got '1'"),
])
def test_verify_refused_sampler_or_shape_exits_2(key, value, message, capsys):
    from_config = {"sampler": sampler_from_config, "shape": shape_from_config}[key]
    with pytest.raises(ConfigError, match=re.escape(message)):
        from_config(value)
    # compact_support takes both a shape and a sampler
    assert run(["verify", "compact_support", "--set", f"{key}={json.dumps(value)}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1  # no numpy warning


# b_scan used to be read by truthiness, so "false" ran the scan; a zero, negative
# or NaN c_ball gave an empty mean-value ball, which passed with a constant sampler
# and failed with the linear one on "contains no cell centers"
@pytest.mark.parametrize("override, message", [
    ('b_scan="false"', "b_scan must be true or false, got 'false'"),
    ("b_scan=0", "b_scan must be true or false, got 0"),
    ("b_scan=1", "b_scan must be true or false, got 1"),
    ("b_scan=null", "b_scan must be true or false, got None"),
    ("c_ball=-1", "c_ball must be positive and finite, got -1.0"),
    ("c_ball=0", "c_ball must be positive and finite, got 0.0"),
    ("c_ball=NaN", "c_ball must be positive and finite, got nan"),
    ('c_ball="0.25"', "a config value has the wrong JSON type"),
    # a boolean used to be read as 0 or 1: c_ball=true ran as 1.0, delta=true as 1
    ("c_ball=true", "config key 'c_ball' must not be true or false, got true"),
    ("delta=true", "config key 'delta' must not be true or false, got true"),
])
@pytest.mark.parametrize("sampler", ['{"kind": "constant", "value": 1.0}',
                                     '{"kind": "linear", "coeffs": [1.0, 0.0]}'])
def test_verify_refused_b_scan_or_c_ball_exits_2(override, message, sampler, capsys):
    args = ["verify", "poincare", "--set", "depths=[3]", "--set", f"sampler={sampler}"]
    assert run([*args, "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


# a boolean where the default is not one used to be read as 0 or 1: riesz_bound
# ran on mu=false and recorded "mu": false in its params
def test_verify_boolean_where_the_default_is_not_exits_2(capsys):
    for name, experiment in EXPERIMENTS.items():
        for key, default in experiment.defaults.items():
            if isinstance(default, bool):
                assert resolve_config(name, {key: False}, {})[key] is False
                continue
            for file_cfg, overrides in (({key: True}, {}), ({}, {key: False})):
                with pytest.raises(ConfigError, match=f"config key '{key}' must not be true or false"):
                    resolve_config(name, file_cfg, overrides)
    assert run(["verify", "riesz_bound", "--set", "mu=false"]) == 2
    assert capsys.readouterr().err == "error: config key 'mu' must not be true or false, got false\n"


# an exponent whose powers leave double precision used to end in an
# OverflowError traceback (q) or a NaN series (r, the left norm's q); a huge
# dim overflowed while the sampler's centre was built, before dim was checked
@pytest.mark.parametrize("args, message", [
    (["sharpness_poincare", "--set", "depth=3", "--set", "q=1e-300"], "q=1e-300 is not finite"),
    (["sharpness_riesz", "--set", "depth=3", "--set", "q=1e-300"], "q=1e-300 is not finite"),
    # hedberg's norm index is q (delta - alpha p) / (delta - mu p)
    (["hedberg", "--set", "q=1e-300"], "q=2.5e-301 is not finite"),
    # ... and underflowed to 0, refused under that index as "q must be in (0, inf], got 0.0"
    (["hedberg", "--set", "q=5e-324", "--set", "depths=[3]"],
     "index q(delta - p alpha)/(delta - mu p) underflows to 0 at q=5e-324"),
    # a norm that underflowed to 0.0 was divided by, with a numpy warning
    (["hedberg", "--set", "q=1e300"], "q=2.5e+299 is not finite"),
    (["maximal_bound", "--set", "depths=[2,3]", "--set", "r=1e300"], "q=1e+300 is not finite"),
    (["hedberg", "--set", "dim=1e300"], "dim must be 1, 2 or 3, got 1e+300"),
    (["maximal_bound", "--set", "dim=1e300"], "dim must be 1, 2 or 3, got 1e+300"),
    (["riesz_bound", "--set", "dim=1e300"], "dim must be 1, 2 or 3, got 1e+300"),
])
def test_verify_exponent_or_dim_out_of_range_exits_2(args, message, capsys):
    assert run(["verify", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1  # no traceback, no numpy warning
    assert message in err


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
    assert doc["params"]["sampler"]["center"] == [0.0, 0.0, 0.0]


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
        riesz(f, 1.0)
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


def _stdlib_text(text):
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# io.dump writes json.dumps(..., sort_keys=True, indent=2) bytes without json's
# Python encoder; every document a subcommand writes is checked against the stdlib
def test_every_cli_document_matches_stdlib_json(tmp_path, capsys):
    rng = np.random.default_rng(15)
    values = rng.exponential(size=(16, 16)) * (rng.random((16, 16)) < 0.7)
    fn = tmp_path / "fn.json"
    fn.write_text(io.dumps(io.gridfunction_to_dict(GridFunction(make_grid(2, 4, 2.0), values))))
    cells = tmp_path / "cells.json"
    cells.write_text(io.dumps(io.cellset_to_dict(CellSet(make_grid(2, 4, 2.0),
                                                         rng.random((16, 16)) < 0.3))))
    commands = {
        "content": ["content", "--set", str(cells), "--delta", "1.3", "--cover-out"],
        "norm": ["norm", "--fn", str(fn), "--delta", "1.5", "--p", "1.5", "--q", "inf"],
        "norm_lebesgue": ["norm", "--fn", str(fn), "--delta", "1.5", "--p", "1.5", "--lebesgue"],
        "maximal": ["maximal", "--fn", str(fn), "--mu", "0.5"],
        "riesz": ["riesz", "--fn", str(fn), "--alpha", "1.0"],
        "interp": ["interp", "--fn", str(fn), "--p0", "1.0", "--p1", "3.0", "--eta", "0.5",
                   "--q", "2.0", "--delta", "1.5"],
        **{exp: ["verify", exp] for exp in EXPERIMENTS},
    }
    texts = {}
    for name, argv in commands.items():
        out = tmp_path / f"{name}.json"
        if name == "content":
            argv = [*argv, str(tmp_path / "cover.json")]
        assert run([*argv, "--out", str(out)]) == 0, name
        texts[name] = out.read_text(encoding="utf-8")
    texts["cover"] = (tmp_path / "cover.json").read_text(encoding="utf-8")
    assert run(["selftest"]) == 0
    texts["selftest"] = capsys.readouterr().out
    for name, text in texts.items():
        assert text == _stdlib_text(text), name


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


@pytest.mark.parametrize("origin", [[0.0], [0.0, 0.0, 0.0]])
def test_grid_document_origin_of_wrong_length_exits_2(origin, tmp_path, capsys):
    grid = {"dim": 2, "depth": 3, "root_side": 1.0, "origin": origin}
    message = f"origin has {len(origin)} coordinates, expected 2"
    with pytest.raises(GridError, match=message):
        io.grid_from_dict(grid)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"grid": grid, "values": ["1"] * 64}))
    assert run(["norm", "--fn", str(path), "--delta", "1.5", "--p", "2"]) == 2
    assert message in capsys.readouterr().err


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


# a grid origin that is not finite was read and written back out, as non-strict JSON
@pytest.mark.parametrize("origin", ["NaN", "Infinity", "1e400"])
def test_grid_document_origin_not_finite_exits_2(origin, tmp_path, capsys):
    path = tmp_path / "fn.json"
    path.write_text('{"grid": {"dim": 2, "depth": 2, "root_side": 1.0, "origin": [0.0, %s]}, '
                    '"values": [%s]}' % (origin, ", ".join(['"1"'] * 16)))
    assert run(["riesz", "--fn", str(path), "--alpha", "1.0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: origin must be finite") and err.count("\n") == 1


def test_grid_document_accepts_integral_floats():
    # JSON Schema counts 2.0 as an integer
    g = io.grid_from_dict({"dim": 2.0, "depth": 3.0, "root_side": 1.0, "origin": [0.0, 0.0]})
    assert g == make_grid(2, 3, 1.0, origin=(0.0, 0.0))
    assert type(g.dim) is int and type(g.depth) is int


# a directory is an OSError other than FileNotFoundError
@pytest.mark.parametrize("argv", [
    ["verify", "poincare", "--config"],
    ["norm", "--delta", "1.5", "--p", "2", "--fn"],
], ids=["config", "fn"])
def test_directory_as_input_file_exits_2(argv, tmp_path, capsys):
    assert run([*argv, str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_SMALL_GRID = {"dim": 1, "depth": 2, "root_side": 1.0, "origin": [0.0]}


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"grid": _SMALL_GRID, "values": ["1", None, "2", "3"]},
    {"grid": {**_SMALL_GRID, "origin": 0.0}, "values": ["1", "0", "2", "3"]},
    # the grid schema asks for numbers; these were read through float()
    {"grid": {**_SMALL_GRID, "root_side": "2.0"}, "values": ["1", "0", "2", "3"]},
    {"grid": {**_SMALL_GRID, "root_side": True}, "values": ["1", "0", "2", "3"]},
    {"grid": {"dim": 2, "depth": 1, "root_side": 2.0, "origin": [True, "-1"]},
     "values": ["1", "0", "2", "3"]},
], ids=["list_document", "null_value", "scalar_origin", "string_root_side", "true_root_side",
        "true_and_string_origin"])
def test_malformed_gridfunction_document_exits_2(doc, tmp_path, capsys):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(io.DocumentError, match="does not have the document layout"):
        io.read_gridfunction(str(path))
    assert run(["norm", "--fn", str(path), "--delta", "0.5", "--p", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# a missing key used to be printed as a bare KeyError: "error: 'grid'"
@pytest.mark.parametrize("argv, doc, key", [
    (["norm", "--delta", "0.5", "--p", "2", "--fn"], {"values": ["1", "0", "2", "3"]}, "grid"),
    (["norm", "--delta", "0.5", "--p", "2", "--fn"],
     {"grid": {k: v for k, v in _SMALL_GRID.items() if k != "origin"}, "values": ["1", "0", "2", "3"]},
     "origin"),
    (["content", "--delta", "0.5", "--set"], {"grid": _SMALL_GRID}, "cells"),
], ids=["gridfunction_without_grid", "grid_without_origin", "cellset_without_cells"])
def test_document_without_a_key_exits_2(argv, doc, key, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    message = f"{path} does not have the document layout: it has no key '{key}'"
    read = io.read_cellset if key == "cells" else io.read_gridfunction
    with pytest.raises(io.DocumentError) as excinfo:
        read(str(path))
    assert str(excinfo.value) == message
    assert run([*argv, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# the grid-function schema asks for a list of decimal strings; numbers, true and a
# string of digits were each read as values
@pytest.mark.parametrize("values", [[1.5, 2, "3", True], ["1", "2", "3", True], "1234"],
                         ids=["numbers", "true", "string"])
def test_gridfunction_values_other_than_strings_exit_2(values, tmp_path, capsys):
    with pytest.raises(io.DocumentError, match="values must be a list of decimal strings"):
        io.gridfunction_from_dict({"grid": _SMALL_GRID, "values": values})
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"grid": _SMALL_GRID, "values": values}))
    assert run(["norm", "--fn", str(path), "--delta", "0.5", "--p", "2"]) == 2
    assert "values must be a list of decimal strings" in capsys.readouterr().err


# the cell-set schema allows only 0 and 1; these were read as occupied cells
# (numpy reads a true among integers as 1)
@pytest.mark.parametrize("cell", ["x", 2, -1, True])
def test_cellset_cells_other_than_0_and_1_exit_2(cell, tmp_path, capsys):
    path = tmp_path / "cells.json"
    path.write_text(json.dumps({"grid": _SMALL_GRID, "cells": [1, cell, 0, 1]}))
    assert run(["content", "--set", str(path), "--delta", "0.5"]) == 2
    assert "cell-set cells must each be 0 or 1" in capsys.readouterr().err


def test_cellset_cells_accept_integral_floats():
    # JSON Schema counts 1.0 as an integer
    doc = {"grid": _SMALL_GRID, "cells": [1.0, 0, 0.0, 1]}
    assert io.cellset_from_dict(doc).mask.tolist() == [True, False, False, True]


# capnorm needs numpy only: its transforms are numpy.fft's, and scipy serves the tests.
# The CI step after the selftest runs this line against the installed package.
IMPORT_GUARD = ("import sys, capnorm.cli; "
                "bad = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'); "
                "sys.exit('loaded: ' + ', '.join(bad) if bad else 0)")


def _run_fresh(argv):
    """argv in a fresh interpreter that imports the capnorm under test, with default warning filters."""
    src = os.path.dirname(os.path.dirname(operators.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    proc = _run_fresh(["-c", IMPORT_GUARD])
    assert proc.returncode == 0, proc.stderr


# a field whose total mass overflows printed numpy's overflow and invalid-value
# warnings, then "grid function values must be finite"
def test_maximal_of_an_f_past_double_precision_exits_2_naming_f(tmp_path):
    g = make_grid(2, 4, 2.0)
    path = tmp_path / "huge.json"
    path.write_text(io.dumps(io.gridfunction_to_dict(GridFunction(g, np.full(g.shape, 1e306)))))
    proc = _run_fresh(["-m", "capnorm.cli", "maximal", "--fn", str(path), "--mu", "0.5"])
    assert proc.returncode == 2
    assert proc.stderr == ("error: f too large: the maximal averages at mu=0.5 are not finite "
                           "in double precision\n")
