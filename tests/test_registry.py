"""The experiment registry: config keys, defaults, and pinned small-sweep reports.

The pinned series and config hashes were recorded before the nine runners
were moved onto the shared sweep skeletons, and the l_shape, punctured_ball,
rectangle-with-bump and constant-sampler pins before sampler and shape
configs were handed to their constructors as keywords; they must not move.
The poincare config hashes were re-recorded once, when params began to
record b_scan; their series did not move.
"""

import functools
import hashlib
import inspect
import json

import pytest

from capnorm import cli, io, verify
from capnorm.cli import ConfigError, resolve_config, run

# (test id, experiment, overrides): small sweeps, a few seconds in all
CASES = [
    ("poincare", "poincare", {"depths": [3, 4]}),
    ("poincare_rectangle", "poincare", {
        "depths": [5, 6], "b_scan": False,
        "shape": {"shape": "rectangle", "center": [0.0, 0.0], "sides": [1.6, 1.0]}}),
    ("poincare_weak", "poincare_weak", {"depths": [3, 4]}),
    ("poincare_sobolev", "poincare_sobolev", {"depths": [3, 4]}),
    ("poincare_sobolev_endpoint", "poincare_sobolev", {"depths": [3, 4], "p": 1.0, "q": None}),
    ("compact_support", "compact_support", {"depths": [4, 5]}),
    ("riesz_bound", "riesz_bound", {"depths": [3, 4]}),
    ("riesz_bound_endpoint", "riesz_bound", {"depths": [3, 4], "p": 1.0, "q": None}),
    ("maximal_bound", "maximal_bound", {"depths": [3, 4]}),
    ("hedberg", "hedberg", {"depths": [3, 4]}),
    ("hedberg_endpoint", "hedberg", {"depths": [3, 4], "p": 1.0}),
    ("sharpness_poincare", "sharpness_poincare", {"depth": 5}),
    ("sharpness_riesz", "sharpness_riesz", {"depth": 7}),
    ("poincare_l_shape", "poincare", {
        "depths": [5, 6], "c_ball": 0.5,
        "shape": {"shape": "l_shape", "anchor": [-1.0, -1.0], "size": 2.0}}),
    ("poincare_punctured_ball", "poincare", {
        "depths": [4, 5],
        "shape": {"shape": "punctured_ball", "center": [0.0, 0.0], "radius": 1.0},
        "sampler": {"kind": "radial_power", "exponent": 0.5}}),
    ("poincare_punctured_ball_annulus", "poincare", {
        "depths": [4, 5],
        "shape": {"shape": "punctured_ball", "center": [0.0, 0.0], "radius": 1.0},
        "sampler": {"kind": "radial_power", "exponent": 0.5, "annulus": [0.25, 0.75]}}),
    ("poincare_weak_rectangle_bump", "poincare_weak", {
        "depths": [5, 6],
        "shape": {"shape": "rectangle", "center": [0.0, 0.0], "sides": [1.6, 1.0]},
        "sampler": {"kind": "bump", "radius": 0.4}}),
    ("riesz_bound_constant", "riesz_bound", {
        "depths": [3, 4], "sampler": {"kind": "constant", "value": 1.5}}),
]

# test id -> (provenance.config_hash, series)
PINS = {
    'poincare': (
        '9e0b124131005e76d01695f3792d3ae54443051379caddaa3db28d6321df0118',
        [
            ('lhs@d3', 1.0354588522814572),
            ('rhs@d3', 2.194095738832282),
            ('ratio@d3', 0.47192965828945),
            ('b_scan_ok@d3', 1.0),
            ('lhs@d4', 1.0394545495063003),
            ('rhs@d4', 2.194095738832282),
            ('ratio@d4', 0.4737507717231645),
            ('b_scan_ok@d4', 1.0),
        ],
    ),
    'poincare_rectangle': (
        '1658a9fa580a0f84ebcc4f11c65f888069199d81495cca3c3c0942372604b5da',
        [
            ('lhs@d5', 0.5938975240514225),
            ('rhs@d5', 16.35592037800813),
            ('ratio@d5', 0.03631085932956523),
            ('lhs@d6', 0.5940657477701469),
            ('rhs@d6', 16.35592037800813),
            ('ratio@d6', 0.036321144517731746),
        ],
    ),
    'poincare_weak': (
        '4e1000dfe3093f8aa3a53fc55a6594d21cb983c9144e612669e48f39bddce3c7',
        [
            ('lhs@d3', 0.84375),
            ('rhs@d3', 3.25),
            ('ratio@d3', 0.25961538461538464),
            ('lhs@d4', 0.765625),
            ('rhs@d4', 3.25),
            ('ratio@d4', 0.23557692307692307),
        ],
    ),
    'poincare_sobolev': (
        '2a51c46343e202c7ed04ea10745c4fa456180e4cec1eaee97455cb72dc0d9eea',
        [
            ('lhs@d3', 0.8048799458855032),
            ('rhs@d3', 2.194095738832282),
            ('ratio@d3', 0.3668390269578062),
            ('lhs@d4', 0.8060263690487002),
            ('rhs@d4', 2.194095738832282),
            ('ratio@d4', 0.3673615306676065),
        ],
    ),
    'poincare_sobolev_endpoint': (
        '2c87d90325c286c60f85027ba9570a31877d7e2d0ecca1aecc54e2d78423d397',
        [
            ('lhs@d3', 0.6987712429686843),
            ('rhs@d3', 3.25),
            ('ratio@d3', 0.21500653629805672),
            ('lhs@d4', 0.644424707103165),
            ('rhs@d4', 3.25),
            ('ratio@d4', 0.1982845252625123),
        ],
    ),
    'compact_support': (
        '732eb930efc80038a4d7dcfb8ddeca25c09a209a752c2a582099dfbb24170276',
        [
            ('strong@d4', 0.12460101632014481),
            ('weak@d4', 0.05704645256889186),
            ('sobolev@d4', 0.019892198356895614),
            ('sobolev_weak@d4', 0.16525479307968216),
            ('strong@d5', 0.12435569695870118),
            ('weak@d5', 0.051227766488694225),
            ('sobolev@d5', 0.01974476051564902),
            ('sobolev_weak@d5', 0.15618610984621303),
        ],
    ),
    'riesz_bound': (
        '3c677dee8b6a05cb732ce6266a2b4e9d31bb167af20ccca7415c57fa7cdae1a0',
        [
            ('lhs@d3', 0.40238857692541014),
            ('rhs@d3', 0.8254818122236567),
            ('ratio@d3', 0.48745904630105485),
            ('lhs@d4', 0.4271803346320269),
            ('rhs@d4', 0.8707274709853271),
            ('ratio@d4', 0.4906016507652203),
        ],
    ),
    'riesz_bound_endpoint': (
        'bce766f2940dd6bda4736101dc54bf0d238d523fd2b566fd9fc37a2665f11042',
        [
            ('lhs@d3', 0.3378225264997344),
            ('rhs@d3', 0.75),
            ('ratio@d3', 0.45043003533297915),
            ('lhs@d4', 0.3291792231098344),
            ('rhs@d4', 0.8125),
            ('ratio@d4', 0.4051436592121039),
        ],
    ),
    'maximal_bound': (
        '8e810ea35aaf6788f20b5b5a26783b1dbe9372b3c0f1c25a144080aa20e90ea1',
        [
            ('lhs@d3', 0.8622885742317826),
            ('rhs@d3', 0.8254818122236567),
            ('ratio@d3', 1.0445882168002916),
            ('lhs@d4', 1.053313005083516),
            ('rhs@d4', 0.8707274709853271),
            ('ratio@d4', 1.2096930901830543),
        ],
    ),
    'hedberg': (
        '1bbd96d7a9d4c08f061cd744269405e69a47c3e177503a6849c85383d65fca0a',
        [
            ('sup_ratio@d3', 0.20639388622995514),
            ('sup_ratio@d4', 0.20856726512733836),
        ],
    ),
    'hedberg_endpoint': (
        'b404d3d6cc623dcee8786ff3776e0a4c8f28f1de55b9dac8445bb11c73e93735',
        [
            ('sup_ratio@d3', 3.5052352522324526),
            ('sup_ratio@d4', 3.2062913464403726),
        ],
    ),
    'sharpness_poincare': (
        '8bde9fa49d59758fd9d8983ee2df6656f2bae3b7783cd80080e5840af6f0db49',
        [
            ('lhs@eps=0.03125', 4.601695430889508),
            ('rhs@eps=0.03125', 4.180820752146401),
            ('lhs@eps=0.0625', 3.2430273113164163),
            ('rhs@eps=0.0625', 2.403257692291285),
            ('lhs@eps=0.125', 2.773465990044081),
            ('rhs@eps=0.125', 2.3805246489479313),
            ('lhs@eps=0.25', 2.1594985107295024),
            ('rhs@eps=0.25', 2.267028963466238),
            ('fitted_slope', -0.35000586746972184),
            ('predicted_slope', -0.30000000000000004),
            ('r_squared', 0.978024366172808),
            ('rhs_variation', 0.8441849749259562),
        ],
    ),
    'sharpness_riesz': (
        '6453656d847bf83c2a63cd303bc2eb5bd79e9988dda7b82d51116eef0bb77e01',
        [
            ('lhs@eps=0.0625', 5.422872333726205),
            ('rhs@eps=0.0625', 3.719747759198268),
            ('lhs@eps=0.125', 4.314488052605827),
            ('rhs@eps=0.125', 2.3191271195217613),
            ('lhs@eps=0.25', 4.314488052605827),
            ('rhs@eps=0.25', 2.3191271195217613),
            ('lhs@eps=0.5', 3.4066736412041094),
            ('rhs@eps=0.5', 2.315524191280899),
            ('fitted_slope', -0.20120803873778334),
            ('predicted_blowup', -0.050000000000000044),
            ('r_squared', 0.8998798968758179),
            ('rhs_variation', 0.6064387378050162),
        ],
    ),    'poincare_l_shape': (
        'a1508093c79986dda01b12891105bf5005b433f6ab81a7fc8178814224a9e3a6',
        [
            ('lhs@d5', 1.1994617488033776),
            ('rhs@d5', 1065.002917402575),
            ('ratio@d5', 0.0011262520780025026),
            ('b_scan_ok@d5', 1.0),
            ('lhs@d6', 1.1998024621104755),
            ('rhs@d6', 1065.002917402575),
            ('ratio@d6', 0.0011265719957243515),
            ('b_scan_ok@d6', 1.0),
        ],
    ),
    'poincare_punctured_ball': (
        '6f6973ccc0aac90ee71125cbaceeadd30353e36dbff5b9d8c55414a875b910c4',
        [
            ('lhs@d4', 0.8414973561806942),
            ('rhs@d4', 1.4010020686919882),
            ('ratio@d4', 0.6006396242985836),
            ('b_scan_ok@d4', 0.0),
            ('lhs@d5', 0.8703520775421036),
            ('rhs@d5', 1.43652171422562),
            ('ratio@d5', 0.6058746407542338),
            ('b_scan_ok@d5', 0.0),
        ],
    ),
    'poincare_punctured_ball_annulus': (
        '227ec541d7a7d4709c29fdc6285315eb767f7096df635d806f4b597c69da06fa',
        [
            ('lhs@d4', 0.9829235175807687),
            ('rhs@d4', 0.950489227110936),
            ('ratio@d4', 1.0341237854619547),
            ('b_scan_ok@d4', 1.0),
            ('lhs@d5', 0.9793361659451454),
            ('rhs@d5', 0.9401613532749288),
            ('ratio@d5', 1.0416681801839187),
            ('b_scan_ok@d5', 1.0),
        ],
    ),
    'poincare_weak_rectangle_bump': (
        '2c02265ba4dd88b60825683416db298190a9178fdfb270245b4337dfd80c3f73',
        [
            ('lhs@d5', 1.1452587890625003),
            ('rhs@d5', 16.058740890030357),
            ('ratio@d5', 0.07131684836969403),
            ('lhs@d6', 1.1218198649088544),
            ('rhs@d6', 16.034416075453294),
            ('ratio@d6', 0.0699632502755259),
        ],
    ),
    'riesz_bound_constant': (
        'c242145a4306f659b231cabbfbb7695e55c5d295ac502b2afdb4dd3650e1505f',
        [
            ('lhs@d3', 1.8336474781898684),
            ('rhs@d3', 3.7797631496846193),
            ('ratio@d3', 0.4851223226362389),
            ('lhs@d4', 1.8392489090672253),
            ('rhs@d4', 3.7797631496846193),
            ('ratio@d4', 0.4866042755141128),
        ],
    ),
}

# experiment -> sha256 of io.dumps of its default report's params, series
# and verdict (provenance carries the package version and is left out).
# Recorded before the sharpness runs began to share their eps-independent
# work across eps; a speedup must not move a byte of these reports.
DEFAULT_REPORT_SHA256 = {
    'poincare': 'a7d4eda636a1fb32e26023cf3dc8821f10546414f836ffdf73ee74834d9ad26c',
    'poincare_weak': '39b4627dce03fe1cf8c6ecdc691c99f4ce2f09ce2a96b0b359c64c27a06770c4',
    'poincare_sobolev': '7f3a1b83331ad614cff8cd0c24f37923aa0b96c9554eddf0b0dfbb777615a60b',
    'compact_support': 'b3093ee315857923928202502b0b9f458219dda41d94db40cc990f96a76f3370',
    'riesz_bound': '247db11d1db493e3354a98392a9f10ccf6ae366e16b1467c2b233fb0d944f8a1',
    'maximal_bound': 'db7441c5a010a5e6437b681397fedeb6635ed6504096b127240ce4a1e87e34d3',
    'hedberg': 'a12267f17f8fba55a7afc0b4c323c4b83372067f69479eadbf53bfd48a602470',
    'sharpness_poincare': '3d61ff95887d5101017be0e44b211b9dbc66964cf2b7d4c008652308aa7ff7a7',
    'sharpness_riesz': 'a626afeeadec21f6c58d99e5a44024ef8b3ea85eb6229e7fc9012bc804435c7e',
}

# sha256 of the --out and --csv files of `capnorm verify <name>` on the defaults
DEFAULT_OUTPUT_SHA256 = {
    'poincare': ('54e44b465ca9a5279f86b29de6a580eb79af1f706c6bbcb394654b95052fdfe2',
                 '424b10a8cbda2f7560a4591a8f4cf1d72c3ae2b722e0c9496dd33e6cd92f233b'),
    'poincare_weak': ('9362c7e5f9b79ac213f925ca202a2399f9e6ddd855b69398b609f4e4cef1d4a7',
                      '0785d0c01258d379176825e46bf0c135cf6db68933d096931840322d600ee62b'),
    'poincare_sobolev': ('379173a0fff0ac9503f4ef63de3b51de2272d9214f4565e9f7354a2b6c6b5ee8',
                         '43f505f24477b706046d0d5c37342d6a796c4835d62b5f6cbb5ed1aa852eac87'),
    'compact_support': ('35a1c6acd25caa9e31586c4fa38aae401fbc27a1db6fb740e69adaab1ea0490c',
                        '4ab57633c56e362bd02d8b5a81062b33c7e6eb309adb855dcd738ef42b336b0d'),
    'riesz_bound': ('a843b68777cfcb0fcd18c8dde4172ef2d8d6824663652b7eb192a560ef941792',
                    '8e717b8e17b952766dab1571fa452be17ccd0e5febf835db9998b7a4b9891d56'),
    'maximal_bound': ('5e853bf0e145486f142af669c928ca546e61085016c1e6715b1768bc1d69154e',
                      '6721f13bc89e14fd4bf032e23e1db46feaa443af904506754022633349305531'),
    'hedberg': ('d0de6b4642fcff90139f9f8de8e751488b84292733834dca74ce726dea6da5c5',
                'ac5ccb2d3d071a22244c055aa85c7cf3bdc8edf04b5bc2eb6c06d9eaf925d8a2'),
    'sharpness_poincare': ('4660a6b87283da579a1c4fccfdced642db194c8ae966441bbc67e0d80baea193',
                           '4e47dc9fce234dff14548040d12548f431a94367596fc136ce28a82ae2c330f8'),
    'sharpness_riesz': ('838e9b52827df60b66b8ecd4ff2b6e622f5579b09d6800bcfd3ec114b7f77498',
                        'ae1ab44bc4f740f71a65a1cc7ded8d7f36b9720a2aa3092be011223cabe330a2'),
}


@pytest.mark.parametrize("name", sorted(verify.EXPERIMENTS))
def test_config_keys_are_runner_keywords(name):
    cfg = resolve_config(name, {}, {})
    runner = getattr(verify, verify.EXPERIMENTS[name].runner)
    assert sorted(cfg) == sorted(inspect.signature(runner).parameters)
    assert "seed" not in cfg and "origin" not in cfg


@pytest.mark.parametrize("name", sorted(verify.EXPERIMENTS))
def test_seed_key_rejected(name, tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        resolve_config(name, {}, {"seed": 1})
    assert run(["verify", name, "--set", "seed=1"]) == 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 20240501}))
    assert run(["verify", name, "--config", str(path)]) == 2


def test_removed_runner_keywords_rejected():
    assert run(["verify", "riesz_bound", "--set", "origin=[0.0, 0.0]"]) == 2
    assert run(["verify", "hedberg", "--set", "stability=0.5"]) == 2
    # the grid roots, the weak norm of the sharpness runs and the outer radius are constants
    assert run(["verify", "poincare", "--set", "root_side=2.0"]) == 2
    assert run(["verify", "riesz_bound", "--set", "root_side=2.0"]) == 2
    assert run(["verify", "sharpness_poincare", "--set", 'qt="inf"']) == 2
    assert run(["verify", "sharpness_riesz", "--set", "qt=4.0"]) == 2
    assert run(["verify", "sharpness_riesz", "--set", "outer_radius=10.0"]) == 2


def test_defaults_are_fresh_copies():
    cfg = resolve_config("poincare", {}, {})
    cfg["shape"]["radius"] = 9.0
    cfg["depths"].append(7)
    again = resolve_config("poincare", {}, {})
    assert again["shape"]["radius"] == 1.0 and again["depths"] == [4, 5, 6]


@pytest.mark.parametrize("case, name, overrides", CASES, ids=[c[0] for c in CASES])
def test_pinned_report(case, name, overrides, monkeypatch):
    # the runner is looked up on the verify module at call time, so a
    # wrapper installed there (as the benchmark's span recorder does) runs
    attr = verify.EXPERIMENTS[name].runner
    runner, calls = getattr(verify, attr), []

    @functools.wraps(runner)
    def counted(*args, **kwargs):
        calls.append(1)
        return runner(*args, **kwargs)

    monkeypatch.setattr(verify, attr, counted)
    report = cli.run_experiment(name, resolve_config(name, {}, overrides))
    assert calls == [1]
    config_hash, series = PINS[case]
    assert report.provenance["config_hash"] == config_hash
    assert [label for label, _ in report.series] == [label for label, _ in series]
    for (label, value), (_, pinned) in zip(report.series, series):
        assert value == pytest.approx(pinned, rel=1e-12, abs=0.0), label


@pytest.mark.parametrize("name", sorted(verify.EXPERIMENTS))
def test_params_record_every_runner_keyword(name):
    # the config hash covers params, so an unrecorded keyword would let two
    # reports with different series share one hash
    overrides = next(overrides for case, _, overrides in CASES if case == name)
    report = cli.run_experiment(name, resolve_config(name, {}, overrides))
    runner = getattr(verify, verify.EXPERIMENTS[name].runner)
    assert set(inspect.signature(runner).parameters) <= set(report.params)


def test_b_scan_moves_the_config_hash():
    reports = [cli.run_experiment("poincare", resolve_config("poincare", {}, {
        "depths": [3, 4], "b_scan": b_scan})) for b_scan in (True, False)]
    assert [r.params["b_scan"] for r in reports] == [True, False]
    assert reports[0].provenance["config_hash"] != reports[1].provenance["config_hash"]
    assert len(reports[0].series) > len(reports[1].series)


@pytest.mark.parametrize("name", sorted(verify.EXPERIMENTS))
def test_default_report_bytes(name, tmp_path):
    out, csv = tmp_path / "report.json", tmp_path / "series.csv"
    run(["verify", name, "--out", str(out), "--csv", str(csv)])
    doc = json.loads(out.read_text())
    text = io.dumps({key: doc[key] for key in ("params", "series", "verdict")})
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256[name]
    # the whole output: the report with its config echo and provenance, and the CSV
    shas = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, csv))
    assert shas == DEFAULT_OUTPUT_SHA256[name]
