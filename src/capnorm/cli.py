"""Command-line front end: subcommand dispatch, config handling, JSON/CSV out.

Exit codes: 0 on success or a passing verdict, 1 on a failing verdict,
2 on usage or configuration errors.  All numeric output is deterministic
for a fixed config (sorted-key JSON, no timestamps), so reruns are
byte-identical.

Experiment configs are JSON key-value documents; precedence is
CLI overrides > config file > built-in defaults, and unknown keys are a
hard error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys

import numpy as np

from . import __version__, io, verify
from .choquet import distribution, dyadic_sum_norm_of, lorentz_norm_of
from .content import content_oracle, content_value, dyadic_content
from .grid import CellSet, GridFunction, grid_dim, make_grid
from .interp import InterpPair, interpolation_norm_of, k_envelope, k_profile_of
from .operators import MaximalParams, maximal, riesz
from .verify import ConfigError, sampler_from_config, shape_from_config


def _emit(doc, out_path=None, write=None):
    """write(doc, file) into the file at out_path, or to stdout when there is none.

    write defaults to io.dump, looked up at each call so that a wrapper
    bound to the module attribute sees every write.
    """
    write = write or io.dump
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            write(doc, fh)
    else:
        write(doc, sys.stdout)


def _emit_csv(series, path):
    lines = ["label,value"] + [f"{label},{value!r}" for label, value in series]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _experiment(name: str) -> verify.Experiment:
    if name not in verify.EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {sorted(verify.EXPERIMENTS)}")
    return verify.EXPERIMENTS[name]


def resolve_config(experiment: str, file_cfg: dict, overrides: dict) -> dict:
    """The defaults, then the file's keys, then the overrides; true or false only where a default is."""
    defaults = _experiment(experiment).defaults
    cfg = copy.deepcopy(defaults)
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"a config file must hold a JSON object, got {type(file_cfg).__name__}")
    for source in (file_cfg, overrides):
        for key, value in source.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r} for experiment {experiment!r}")
            if isinstance(value, bool) and not isinstance(defaults[key], bool):
                raise ConfigError(f"config key {key!r} must not be true or false, got {json.dumps(value)}")
            cfg[key] = value
    return cfg


def run_experiment(experiment: str, cfg: dict) -> verify.ExperimentReport:
    """Call the experiment's runner with the config as keywords.

    The runner is looked up on the verify module at call time; dim,
    shape and sampler are the only config values that are converted.
    dim follows make_grid's rule, so 3.0 runs as 3, and is checked before
    the sampler is built.  The sampler takes the run's dimension: the
    config's dim, else the shape's.
    """
    kwargs = dict(cfg)
    if "dim" in kwargs:
        kwargs["dim"] = grid_dim(kwargs["dim"])
    if "shape" in kwargs:
        kwargs["shape"] = shape_from_config(kwargs["shape"])
    if "sampler" in kwargs:
        dim = kwargs["dim"] if "dim" in kwargs else kwargs["shape"].dim
        kwargs["sampler"] = sampler_from_config(kwargs["sampler"], dim)
    return getattr(verify, _experiment(experiment).runner)(**kwargs)


def _selftest(seed: int = 20240501) -> dict:
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, ok):
        checks.append({"name": name, "pass": bool(ok)})

    # oracle equivalence on small grids
    ok = True
    g1 = make_grid(1, 3, 1.0, origin=(0.0,))
    g2 = make_grid(2, 2, 1.0, origin=(0.0, 0.0))
    for grid, n_sets in ((g1, 40), (g2, 20)):
        for _ in range(n_sets):
            cells = CellSet(grid, rng.random(grid.shape) < rng.random())
            for delta in (0.5, 1.0, grid.dim):
                a = content_value(cells, delta)
                b = content_oracle(cells, delta)
                ok &= abs(a - b) <= 1e-12 * max(1.0, abs(a))
    record("oracle_equivalence", ok)

    # delta = dim gives the Lebesgue measure
    ok = True
    for _ in range(50):
        cells = CellSet(g2, rng.random(g2.shape) < 0.5)
        ok &= abs(content_value(cells, 2.0) - cells.measure) <= 1e-12
    record("measure_coincidence", ok)

    # norm identities on random step functions
    ok = True
    for _ in range(25):
        vals = rng.choice([0.0, 0.5, 1.0, 2.5], size=g2.shape)
        f = GridFunction(g2, vals)
        dist = distribution(f, 1.3)
        ext = np.concatenate([[0.0], dist.thresholds])
        for p in (0.7, 1.0, 1.5, 2.0):
            # the p-norm is Lorentz (p, p): bit for bit the plain layer-cake sum
            layer_cake = float(np.sum(np.diff(ext**p) * dist.plateaus)) ** (1.0 / p)
            ok &= lorentz_norm_of(dist, p, p) == layer_cake
        for nu in (0.5, 2.0, 3.0):
            lhs = lorentz_norm_of(distribution(f.power(nu), 1.3), 1.5, 2.0)
            rhs = lorentz_norm_of(dist, nu * 1.5, nu * 2.0) ** nu
            ok &= abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)
    record("norm_identities", ok)

    return {"seed": seed, "checks": checks, "all_pass": all(c["pass"] for c in checks)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="capnorm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"capnorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_content = sub.add_parser("content", help="dyadic content of a cell set")
    p_content.add_argument("--set", required=True, dest="set_path")
    p_content.add_argument("--delta", required=True, type=float)
    p_content.add_argument("--cover-out")
    p_content.add_argument("--out")

    p_norm = sub.add_parser("norm", help="Choquet-Lorentz norms of a grid function")
    p_norm.add_argument("--fn", required=True)
    p_norm.add_argument("--delta", required=True, type=float)
    p_norm.add_argument("--p", required=True, type=float)
    p_norm.add_argument("--q", type=float)
    p_norm.add_argument("--dyadic", action="store_true", help="dyadic-level sum form")
    p_norm.add_argument("--lebesgue", action="store_true", help="Lebesgue measure (delta = dim)")
    p_norm.add_argument("--out")

    p_max = sub.add_parser("maximal", help="fractional maximal function")
    p_max.add_argument("--fn", required=True)
    p_max.add_argument("--mu", required=True, type=float)
    p_max.add_argument("--out")

    p_riesz = sub.add_parser("riesz", help="Riesz potential")
    p_riesz.add_argument("--fn", required=True)
    p_riesz.add_argument("--alpha", required=True, type=float)
    p_riesz.add_argument("--out")

    p_interp = sub.add_parser("interp", help="K-functional and interpolation norm")
    p_interp.add_argument("--fn", required=True)
    p_interp.add_argument("--p0", required=True, type=float)
    p_interp.add_argument("--p1", required=True, type=float)
    p_interp.add_argument("--eta", required=True, type=float)
    p_interp.add_argument("--q", required=True, type=float)
    p_interp.add_argument("--delta", required=True, type=float)
    p_interp.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run an inequality experiment")
    p_verify.add_argument("experiment")
    p_verify.add_argument("--config", help="JSON config file")
    p_verify.add_argument("--set", action="append", default=[], dest="overrides",
                          metavar="KEY=JSON", help="override one config key")
    p_verify.add_argument("--out")
    p_verify.add_argument("--csv")

    sub.add_parser("selftest", help="oracle-equivalence and identity suites")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "content":
            cells = io.read_cellset(args.set_path)
            sol = dyadic_content(cells, args.delta)
            doc = io.cover_to_dict(sol)
            if args.cover_out:
                _emit(doc, args.cover_out)
                _emit({"delta": sol.delta, "value": sol.value}, args.out)
            else:
                _emit(doc, args.out)
            return 0

        if args.command == "norm":
            f = io.read_gridfunction(args.fn)
            q_eff = args.p if args.q is None else args.q
            # the content of exponent dim is the Lebesgue measure
            delta = float(f.grid.dim) if args.lebesgue else args.delta
            dist = distribution(f, delta)
            if args.dyadic:
                norm = dyadic_sum_norm_of(dist, args.p, q_eff)
            else:
                norm = lorentz_norm_of(dist, args.p, q_eff)
            _emit(
                {
                    "norm": norm,
                    "p": args.p,
                    "q": "inf" if q_eff == math.inf else q_eff,
                    "delta": delta,
                    "dyadic_sum": bool(args.dyadic),
                    "lebesgue": bool(args.lebesgue),
                    "distribution": {
                        "thresholds": dist.thresholds.tolist(),
                        "plateaus": dist.plateaus.tolist(),
                    },
                },
                args.out,
            )
            return 0

        if args.command == "maximal":
            f = io.read_gridfunction(args.fn)
            _emit(maximal(f, MaximalParams(args.mu)), args.out, io.write_gridfunction)
            return 0

        if args.command == "riesz":
            f = io.read_gridfunction(args.fn)
            _emit(riesz(f, args.alpha), args.out, io.write_gridfunction)
            return 0

        if args.command == "interp":
            f = io.read_gridfunction(args.fn)
            pair = InterpPair(p0=args.p0, p1=args.p1, delta=args.delta,
                              eta=args.eta, q_interp=args.q)
            dist = distribution(f, args.delta)
            env = k_envelope(dist, pair)
            # the guarded norms first: exponents outside double precision end here
            interp = interpolation_norm_of(env, pair)
            direct = lorentz_norm_of(dist, pair.p, args.q)
            t_grid, k_vals = k_profile_of(env, pair)
            _emit(
                {
                    "t_grid": t_grid.tolist(),
                    "k_values": k_vals.tolist(),
                    "interp_norm": interp,
                    "direct_norm": direct,
                    "ratio": interp / direct if direct > 0 else 0.0,
                    "target_p": pair.p,
                },
                args.out,
            )
            return 0

        if args.command == "verify":
            file_cfg = io.load_path(args.config) if args.config else {}
            overrides = {}
            for item in args.overrides:
                key, _, raw = item.partition("=")
                if not _:
                    raise ConfigError(f"override must look like key=value, got {item!r}")
                try:
                    overrides[key] = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"--set {key}: the value {raw!r} is not JSON ({exc.msg})") from exc
            try:
                cfg = resolve_config(args.experiment, file_cfg, overrides)
                report = run_experiment(args.experiment, cfg)
            except TypeError as exc:
                raise ConfigError(f"a config value has the wrong JSON type: {exc}") from exc
            _emit(report.to_dict(), args.out)
            if args.csv:
                _emit_csv(report.series, args.csv)
            return 0 if report.verdict else 1

        if args.command == "selftest":
            doc = _selftest()
            _emit(doc)
            return 0 if doc["all_pass"] else 1

    # ConfigError, GridError, io.DocumentError and json.JSONDecodeError are ValueErrors;
    # OSError covers a missing file and a directory given as a file.  A document's
    # missing key is a DocumentError, so a KeyError is a bug and shows its traceback.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
