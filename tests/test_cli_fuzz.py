"""Fuzz test: the CLI on edge values ends in a result, a verdict or one error line.

Each draw runs `capnorm verify` with one or two config overrides from an
edge pool, or `capnorm norm` / `capnorm interp` with edge exponents.  It
must exit 0, 1 or 2.  Exit 2 writes a single ``error:`` line; exit 0 or 1
writes positive, finite norms and a finite series.  The suite turns
warnings into errors, so a numpy warning that leaks fails the draw.
Every verify run is set to depth 3 or depths [2, 3]; the pool's other
integral values above 3 exceed the leaf-cell cap and are refused.
"""

import json
import math
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from capnorm import io  # noqa: E402
from capnorm.cli import run  # noqa: E402
from capnorm.grid import Sampler, make_grid, sample  # noqa: E402
from capnorm.verify import EXPERIMENTS  # noqa: E402

EDGE = [0, 1, -1, 1e300, -1e300, 1e-300, -1e-300, 1e-310, 5e-324, 1e-12, None, True, "", "1.5",
        [], [1], [2, 3], [1e-12, 1e-300, 1, 1e300]]
SHALLOW = {"depths": [2, 3], "depth": 3}
NUMBERS = ["-1", "0", "1e-300", "1e-12", "0.5", "1", "1.5", "3", "1e3", "1e4", "1e12", "1e300",
           "inf", "nan"]


@pytest.fixture(scope="module")
def fns(tmp_path_factory):
    """A 2D ball indicator (one threshold) and a bump (many), as JSON files."""
    grid = make_grid(2, 4, 2.0)
    paths = []
    for name, sampler in (("indicator", Sampler.ball_indicator((0.0, 0.0), 0.5)),
                          ("bump", Sampler.bump((0.0, 0.0), 0.8))):
        path = tmp_path_factory.mktemp("fuzz") / f"{name}.json"
        path.write_text(io.dumps(io.gridfunction_to_dict(sample(sampler, grid))))
        paths.append(str(path))
    return paths


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def _report(args):
    """The JSON a run writes on exit 0 or 1, None on exit 2, after checking its exit and stderr.

    The JSON is parsed strictly: NaN, Infinity and -Infinity are refused.
    """
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(args)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return None
    assert err == ""
    return json.loads(out, parse_constant=_refuse)


@st.composite
def verify_args(draw):
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    defaults = EXPERIMENTS[name].defaults
    args = ["verify", name]
    for key, value in SHALLOW.items():
        if key in defaults:
            args += ["--set", f"{key}={json.dumps(value)}"]
    for key in draw(st.lists(st.sampled_from(sorted(defaults)), min_size=1, max_size=2, unique=True)):
        args += ["--set", f"{key}={json.dumps(draw(st.sampled_from(EDGE)))}"]
    return args


@settings(max_examples=200, deadline=None, derandomize=True)
@given(verify_args())
def test_verify_on_edge_overrides_ends_cleanly(args):
    doc = _report(args)
    if doc is not None:
        assert all(math.isfinite(value) for _, value in doc["series"])


@st.composite
def norm_args(draw):
    number = st.sampled_from(NUMBERS)
    if draw(st.booleans()):
        flags = draw(st.sampled_from([[], ["--dyadic"], ["--lebesgue"]]))
        return ["norm", "--delta", draw(st.sampled_from(["1", "1.5", "2"])),
                "--p", draw(number), "--q", draw(number), *flags]
    return ["interp", "--delta", draw(st.sampled_from(["1.5", "2"])), "--p0", draw(number),
            "--p1", draw(number), "--eta", draw(st.sampled_from(["1e-12", "0.5", "0.999999999999"])),
            "--q", draw(number)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(norm_args(), st.integers(0, 1))
def test_norm_and_interp_on_edge_exponents_end_cleanly(fns, args, which):
    doc = _report([args[0], "--fn", fns[which], *args[1:]])
    if doc is not None:
        norms = [doc["norm"]] if args[0] == "norm" else [doc["interp_norm"], doc["direct_norm"]]
        assert all(0 < norm < math.inf for norm in norms)
        if args[0] == "interp":
            assert all(math.isfinite(x) for x in doc["t_grid"] + doc["k_values"])
