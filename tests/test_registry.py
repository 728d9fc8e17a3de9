"""The experiment registry: config keys, defaults, and pinned small-sweep reports.

The pinned series and config hashes were recorded before the nine runners
were moved onto the shared sweep skeletons, and the l_shape, punctured_ball,
rectangle-with-bump and constant-sampler pins before sampler and shape
configs were handed to their constructors as keywords; they must not move.
The poincare config hashes were re-recorded once, when params began to
record b_scan, and every config hash once more, when params began to record
samplers and shapes as config JSON and the sharpness runs' qt as "inf";
no series moved.
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
    # delta < dim: every case above has delta = dim, where no sweep enters the
    # content tree, so these are the only end-to-end byte checks of the tree
    # sweep and of the delta window on it.  Their series are pinned as recorded,
    # a failing verdict included: each depth is chosen small, for speed.
    # The Riesz sides at p = 1.2 inside (delta/dim, delta/alpha) = (0.75, 1.5),
    # over contents of exponent 1.5 on both sides (mu = 0); passes.
    ("riesz_bound_delta_1_5", "riesz_bound", {"depths": [3, 4], "delta": 1.5, "p": 1.2}),
    # the same in 3D at delta = 2.2, a non-integer exponent between 2 and 3,
    # so the 8-child sweep runs at a delta that no 2D case reaches; passes
    ("riesz_bound_3d_delta_2_2", "riesz_bound", {
        "depths": [3, 4], "dim": 3, "delta": 2.2, "p": 1.5,
        "sampler": {"kind": "ball_indicator", "center": [0.0, 0.0, 0.0], "radius": 0.5}}),
    # the maximal field's norm over the content of exponent delta (mu = 0), in
    # 2D and 3D; both fail, the ratio growing by more than the limit from d3 to d4
    ("maximal_bound_delta_1_5", "maximal_bound", {"depths": [3, 4], "delta": 1.5}),
    ("maximal_bound_3d_delta_2_2", "maximal_bound", {
        "depths": [3, 4], "dim": 3, "delta": 2.2,
        "sampler": {"kind": "ball_indicator", "center": [0.0, 0.0, 0.0], "radius": 0.5}}),
    # a John-domain run: both sides and every b-scan norm are content sweeps; passes
    ("poincare_delta_1_5", "poincare", {"depths": [3, 4], "delta": 1.5}),
    # eta = -0.4 inside the gradient window (-0.43, -0.375] at delta = 1.5;
    # fails at depth 5, the fitted slope and the rhs variation off their limits
    ("sharpness_poincare_delta_1_5", "sharpness_poincare", {"depth": 5, "delta": 1.5, "eta": -0.4}),
    # the paper's regime at a small depth: p = 1.2, eta = -1.22 inside the Riesz
    # window (-1.25, -1.1875), the left content at exponent 1.5; passes
    ("sharpness_riesz_delta_1_5", "sharpness_riesz", {
        "depth": 7, "delta": 1.5, "p": 1.2, "eta": -1.22}),
    # the weak endpoint p = delta/dim = 0.75 at delta = 1.5; passes
    ("poincare_weak_delta_1_5", "poincare_weak", {"depths": [3, 4], "delta": 1.5}),
    # p = 1.2 inside the gradient's main branch (delta/dim, delta) = (0.75, 1.5); passes
    ("poincare_sobolev_delta_1_5", "poincare_sobolev", {"depths": [3, 4], "delta": 1.5, "p": 1.2}),
    # p = 1.2 inside (delta/dim, delta) = (0.75, 1.5), its weak forms at p = 0.75; passes
    ("compact_support_delta_1_5", "compact_support", {"depths": [4, 5], "delta": 1.5, "p": 1.2}),
    # p = 1.2 inside the Riesz main branch (delta/dim, delta/alpha) = (0.75, 1.5); passes
    ("hedberg_delta_1_5", "hedberg", {"depths": [3, 4], "delta": 1.5, "p": 1.2}),
    # a 3D John domain: p = q = 1.5 inside (delta/dim, inf) = (0.733, inf) at delta = 2.2; passes
    ("poincare_3d_delta_2_2", "poincare", {
        "depths": [3, 4], "delta": 2.2,
        "shape": {"shape": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        "sampler": {"kind": "linear", "coeffs": [1.0, 0.0, 0.0]}}),
]

# test id -> (provenance.config_hash, series)
PINS = {
    'poincare': (
        '0ab119f98ce582a945911a61bc071182c041668fc2efda8aa57e3d907c8c82cc',
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
        '8e46e6cf9ec967c1084125da16ace480b235d5a27fe16eeaf73b32e1a515d8c2',
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
        'f26abb2a3f703f7eef87ab2f71a40eb5466075857658eefe12f4e68da1be9a17',
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
        '433e023408142782d119f0a8ebf4f872447f567cf1bcad4cfb2f6bb014bd749b',
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
        '70b573ded58f4d60a2244c6627b7f5d0faddedf7f5ddacfd12545f35378b8c05',
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
        '80f407a6d8bd15210f9ae311fb407d82a7684db250988a8735e87f21760c2938',
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
        '73986baa4d0c0c066085196691a80329b0038774c70788d7cf05e004627caf96',
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
        '6b418378f7648209f79f3681c6d79433a3f5c03b89681a1548856dc4591a405f',
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
        '6be3a49d87cff5f20b9d1a708668aba516712dd8297a0049469e8532face3244',
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
        '032793b08cb60346db3368d763e3f66d00dfc0ec11f485525e6bb0f8e475806a',
        [
            ('sup_ratio@d3', 0.20639388622995514),
            ('sup_ratio@d4', 0.20856726512733836),
        ],
    ),
    'hedberg_endpoint': (
        '56428f2724b5747fa7493345a68c61f0a4ff4cc02ea753a7a2884936e19684c4',
        [
            ('sup_ratio@d3', 3.5052352522324526),
            ('sup_ratio@d4', 3.2062913464403726),
        ],
    ),
    'sharpness_poincare': (
        '6ba383a47c9ae2fe00372950898d0e2c47d153796b84b2780a21a382e1c3e411',
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
        '254cbeeb3e450835e89704e3784b1276273b66f9f22678abefb13609d02e128b',
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
        'ee4816382005fc7b4ddaf0dae17541510cd9005de0016a3f28503f568fe85be9',
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
        'df8cd1d3f12b7a25356cae8d19d152774bb1545e3f10a7344736f380e66bd3a5',
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
        '5c0f9cb57c78a1f4db1ca04796aafcb549b0c0bbda71e7059a8f3bf647af758e',
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
        'aba73dd740acccea393ababc734a8e8b902d10b587e90b7e3069576bae6670fb',
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
        'd7c34a3dfe774f0dff4ea984cb02b57c26bc2b17a06b83c0ca6d19280707c961',
        [
            ('lhs@d3', 1.8336474781898684),
            ('rhs@d3', 3.7797631496846193),
            ('ratio@d3', 0.4851223226362389),
            ('lhs@d4', 1.8392489090672253),
            ('rhs@d4', 3.7797631496846193),
            ('ratio@d4', 0.4866042755141128),
        ],
    ),
    'riesz_bound_delta_1_5': (
        '4885cf34160d79ec5b6eafed8d0c7611952358a86a0f32796e9eae094d16968c',
        [
            ('lhs@d3', 0.4476421778800228),
            ('rhs@d3', 1.3348398541700341),
            ('ratio@d3', 0.3353527215130643),
            ('lhs@d4', 0.4837592080544952),
            ('rhs@d4', 1.3348398541700341),
            ('ratio@d4', 0.3624099224661546),
        ],
    ),
    'riesz_bound_3d_delta_2_2': (
        'bc1edc7d6ace1dfe5a09e11b95eee636c80f271ded9c00803747c65853a96990',
        [
            ('lhs@d3', 0.24905456447650087),
            ('rhs@d3', 1.1629221008511563),
            ('ratio@d3', 0.21416272362027938),
            ('lhs@d4', 0.27525534809716207),
            ('rhs@d4', 1.2755220096525015),
            ('ratio@d4', 0.21579819557339636),
        ],
    ),
    'maximal_bound_delta_1_5': (
        'fa506aa578a4314c329fbbe9f30f9449000f8c7e73bd962b7ac3a5ad8f6555b8',
        [
            ('lhs@d3', 1.1246510221628372),
            ('rhs@d3', 1.2599210498948732),
            ('ratio@d3', 0.8926361078391992),
            ('lhs@d4', 1.5050220022524818),
            ('rhs@d4', 1.2599210498948732),
            ('ratio@d4', 1.1945367548054378),
        ],
    ),
    'maximal_bound_3d_delta_2_2': (
        '6ba6dcbc1a76906d41625b9a365d6b4781f0333ec8410b278a91d2123a4e0139',
        [
            ('lhs@d3', 1.0405068405583748),
            ('rhs@d3', 1.319507910772894),
            ('ratio@d3', 0.7885567279008612),
            ('lhs@d4', 1.6275253140145358),
            ('rhs@d4', 1.447269237440378),
            ('ratio@d4', 1.1245490969551433),
        ],
    ),
    'poincare_delta_1_5': (
        '1e5e063795efea42af279147989a102678b4cca5913f7fb22ec6f01c3916d878',
        [
            ('lhs@d3', 1.2987820635997596),
            ('rhs@d3', 2.0),
            ('ratio@d3', 0.6493910317998798),
            ('b_scan_ok@d3', 1.0),
            ('lhs@d4', 1.419428891270267),
            ('rhs@d4', 2.0),
            ('ratio@d4', 0.7097144456351335),
            ('b_scan_ok@d4', 1.0),
        ],
    ),
    'sharpness_poincare_delta_1_5': (
        '954916a61138732b6e40fa4f2c44a8c65b2a6fbb4a5774ec7d85de9d61ee8c8e',
        [
            ('lhs@eps=0.03125', 2.285443790368237),
            ('rhs@eps=0.03125', 2.247853627986904),
            ('lhs@eps=0.0625', 2.11051465679811),
            ('rhs@eps=0.0625', 1.9298734560816349),
            ('lhs@eps=0.125', 2.0079384721332865),
            ('rhs@eps=0.125', 1.9298734560816349),
            ('lhs@eps=0.25', 1.8181111676058461),
            ('rhs@eps=0.25', 1.8910672667742765),
            ('fitted_slope', -0.10619815508518994),
            ('predicted_slope', -0.025000000000000022),
            ('r_squared', 0.9850491682708493),
            ('rhs_variation', 0.1886693125523886),
        ],
    ),
    'sharpness_riesz_delta_1_5': (
        'a00b4e1a03c8dc3756a0f5cdd11182b64b35c086f12019062ffa812f30e73917',
        [
            ('lhs@eps=0.0625', 5.663699969122254),
            ('rhs@eps=0.0625', 4.586364384679883),
            ('lhs@eps=0.125', 4.608088859852675),
            ('rhs@eps=0.125', 4.372849658435643),
            ('lhs@eps=0.25', 4.608088859852675),
            ('rhs@eps=0.25', 4.372849658435643),
            ('lhs@eps=0.5', 3.6723352426157017),
            ('rhs@eps=0.5', 4.372849658435643),
            ('fitted_slope', -0.18751412253551283),
            ('predicted_blowup', -0.03249999999999997),
            ('r_squared', 0.8989718127049457),
            ('rhs_variation', 0.0488273649729416),
        ],
    ),
    'poincare_weak_delta_1_5': (
        '492692967a053189c9dfb345e1e4da2413f811b88b906c058beea1d756bcf770',
        [
            ('lhs@d3', 1.5),
            ('rhs@d3', 4.0),
            ('ratio@d3', 0.375),
            ('lhs@d4', 1.75),
            ('rhs@d4', 4.0),
            ('ratio@d4', 0.4375),
        ],
    ),
    'poincare_sobolev_delta_1_5': (
        '16b8c44037ea5a5fd2ae5eb39e5bb1db6c9d77d22b164e2c660deccfc9926a19',
        [
            ('lhs@d3', 0.8926213979441465),
            ('rhs@d3', 2.378414230005442),
            ('ratio@d3', 0.3753010668549961),
            ('lhs@d4', 0.9286277192850464),
            ('rhs@d4', 2.378414230005442),
            ('ratio@d4', 0.3904398601260141),
        ],
    ),
    'compact_support_delta_1_5': (
        '715db12d164cf665a62093521e6d1751b444dde0403d6c59bee1e1b8ef160442',
        [
            ('strong@d4', 0.12016284859169572),
            ('weak@d4', 0.057805153000135175),
            ('sobolev@d4', 0.005067966934220223),
            ('sobolev_weak@d4', 0.10197634081070844),
            ('strong@d5', 0.11920861873937723),
            ('weak@d5', 0.05235500252215895),
            ('sobolev@d5', 0.004922901220058774),
            ('sobolev_weak@d5', 0.09011394257004404),
        ],
    ),
    'hedberg_delta_1_5': (
        '8b38610b4983243a53d73adb38d1a84d2603a86483b9d16d94a8c73c7be064f1',
        [
            ('sup_ratio@d3', 0.05641905452074388),
            ('sup_ratio@d4', 0.05969167985174079),
        ],
    ),
    'poincare_3d_delta_2_2': (
        '594dc57683c41947e9d4fd3534b65f1d13f93750f9e793bead924bb33be86372',
        [
            ('lhs@d3', 1.7349425624816404),
            ('rhs@d3', 2.763825759935552),
            ('ratio@d3', 0.6277322498514148),
            ('b_scan_ok@d3', 1.0),
            ('lhs@d4', 1.8826021789576188),
            ('rhs@d4', 2.763825759935552),
            ('ratio@d4', 0.6811580549858969),
            ('b_scan_ok@d4', 1.0),
        ],
    ),
}

# experiment -> sha256 of io.dumps of its default report's params, series
# and verdict (provenance carries the package version and is left out).
# Recorded before the sharpness runs began to share their eps-independent
# work across eps, and re-recorded when params began to record samplers and
# shapes as config JSON; a speedup must not move a byte of these reports.
DEFAULT_REPORT_SHA256 = {
    'poincare': 'bc8f1ca0835ea114e446c45c4cc6f3bc7182ca7562b2076d6ce92baf5b9ed72e',
    'poincare_weak': 'e4db90607cf5b532aac1b84cdb274f0845d259b2398eada14062d06ed3284559',
    'poincare_sobolev': '76f0395189cc7561fcd058f80bd01020e622b3991af05c619856384420b00c02',
    'compact_support': '8fb5b4ed25e51d0badb8a2fbc467debbae020e8c342e89d4029fd76377bccce8',
    'riesz_bound': '8dcbc6fa739e6df80bf63fa933d9c6f0590402cc25b1eeea6451e91344553e24',
    'maximal_bound': '1e4025d3298ba8bd1acf8fb6360c856b038c4684a87d40b83033728876984c91',
    'hedberg': '500c1696aa5e212b7a5c46ef42b8976ebdd98074b3e1435fe11558e3822905d3',
    'sharpness_poincare': '72bdde6784277b97463698e2cab673295a7f822942362efae9864e5ba073e23f',
    'sharpness_riesz': '9b5027bcde5e06a8c4c2bf9d6092ccd02b6bea15930b0b75baad9487b17f9a7f',
}

# experiment -> sha256 of io.dumps of its default report's series and verdict.
# Recorded before params began to record samplers and shapes as config
# JSON; a change to what a report records of its inputs must not move these.
DEFAULT_SERIES_SHA256 = {
    'poincare': '014c311e11e5fa7e5a8b189d86acbb1d84d16ab7d7f7cdcc4691f15b17b3fd77',
    'poincare_weak': 'dafd3dcf6da8f0983f3db04c7dd6c6b726abb9e737dad855faa36f9e98e3b967',
    'poincare_sobolev': '7a67c37b427412e81b4fe467cfbc7f62cd562d3835222e3b3b82950fc9aa4010',
    'compact_support': 'd2492657e2c21c37f97bb0d24bfec953f7b584303c8eaf588ed710ff71fe3fad',
    'riesz_bound': '4b5846bf5719c46f8c787a0bb836eb1fb225a1fbcadbaef6636c138b5da27caf',
    'maximal_bound': 'e47db30fb3368bbf4b60b711172dfa518330dae509834fb89b17e74fa1025e5a',
    'hedberg': '447284c31d0b743e267479cf0edcf6bdc2e5d3d3724c208b0007ecc7f169c9cd',
    'sharpness_poincare': '133d875fd40d5c2e51ca97758961653fdfabbc27004f1aef9fab87ff8f2d6d4f',
    'sharpness_riesz': '7e740abf2998443938d5f7740911629bbb9dd32f69399cff38721959cebd3425',
}

# sha256 of the --out and --csv files of `capnorm verify <name>` on the defaults
DEFAULT_OUTPUT_SHA256 = {
    'poincare': ('82184a9d169546301db204e705155c42f43d3b342380bee86cc1d730312f1eb7',
                 '424b10a8cbda2f7560a4591a8f4cf1d72c3ae2b722e0c9496dd33e6cd92f233b'),
    'poincare_weak': ('ee0b242f8378c05d05c9252bca502f6e5907f34e1b23b30f090a4e7595ffb4b2',
                      '0785d0c01258d379176825e46bf0c135cf6db68933d096931840322d600ee62b'),
    'poincare_sobolev': ('5113c43a89987a3d0e5b59fedff2a918d91a7429a4a6be7f0651bf99d4765edc',
                         '43f505f24477b706046d0d5c37342d6a796c4835d62b5f6cbb5ed1aa852eac87'),
    'compact_support': ('be2ef79cdd084baf287f2c5fe789f2ec7b48dbc8b7826e4471e0618782fbc519',
                        '4ab57633c56e362bd02d8b5a81062b33c7e6eb309adb855dcd738ef42b336b0d'),
    'riesz_bound': ('f705973d410356ab60a057d82f26d43b2ef1cd483cc3ff7075931e8b3db2619c',
                    '8e717b8e17b952766dab1571fa452be17ccd0e5febf835db9998b7a4b9891d56'),
    'maximal_bound': ('626c643228e40ec67a6c734395f17ef6d8d13d6f36f077f746124bda02723385',
                      '6721f13bc89e14fd4bf032e23e1db46feaa443af904506754022633349305531'),
    'hedberg': ('2eb261413bcac1441659b4935a3d7ade21b80e21c3b2053455b1a5cfec0ca4ab',
                'ac5ccb2d3d071a22244c055aa85c7cf3bdc8edf04b5bc2eb6c06d9eaf925d8a2'),
    'sharpness_poincare': ('333a8969263dc1320de1554e4a50c0f7b9d4a4f82efa8f599ab533edab71ea66',
                           '4e47dc9fce234dff14548040d12548f431a94367596fc136ce28a82ae2c330f8'),
    'sharpness_riesz': ('d3a6d87c175d2a82193fc1901bb29bd8aa50de300af88ee1ae430bacec5ddbad',
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
    # poincare_weak runs at its endpoint p = delta/dim
    assert run(["verify", "poincare_weak", "--set", "p=1.0"]) == 2


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


@pytest.mark.parametrize("name, overrides", [(name, {}) for name in sorted(verify.EXPERIMENTS)]
                         + [case[1:] for case in CASES],
                         ids=[f"default_{name}" for name in sorted(verify.EXPERIMENTS)]
                         + [case[0] for case in CASES])
def test_params_rebuild_the_run(name, overrides):
    # params is the report's one record of its inputs: its runner keywords,
    # written to a config file as a report holds them, run the same series
    report = cli.run_experiment(name, resolve_config(name, {}, overrides))
    params = json.loads(io.dumps(report.params))
    runner = getattr(verify, verify.EXPERIMENTS[name].runner)
    file_cfg = {key: params[key] for key in inspect.signature(runner).parameters}
    rebuilt = cli.run_experiment(name, resolve_config(name, file_cfg, {}))
    assert (rebuilt.series, rebuilt.verdict) == (report.series, report.verdict)
    assert rebuilt.params == report.params


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
    series = io.dumps({key: doc[key] for key in ("series", "verdict")})
    assert hashlib.sha256(series.encode()).hexdigest() == DEFAULT_SERIES_SHA256[name]
    text = io.dumps({key: doc[key] for key in ("params", "series", "verdict")})
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256[name]
    # the whole output: the report with its provenance, and the CSV
    shas = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, csv))
    assert shas == DEFAULT_OUTPUT_SHA256[name]
