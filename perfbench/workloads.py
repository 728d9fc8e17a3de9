"""The three workloads: seeded inputs, the fixed job list of one pass, and the gate.

A job is called with the pass directory, writes its outputs there under
files named after its key, and returns its result: the exit code for a
CLI job, the value for a library call.  ``check`` sees the results and
files of the first pass only; later passes must reproduce them exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from capnorm import (
    CellSet,
    GridFunction,
    LorentzExponents,
    Sampler,
    Shape,
    choquet,
    cli,
    content_value,
    distribution,
    gradient_magnitude,
    interp,
    io,
    make_grid,
    make_john_domain,
    mean_value,
    mean_value_ball,
    sample,
)
from capnorm.interp import InterpPair
from capnorm.operators import maximal_at, riesz_normalization, riesz_unnormalized_at

import checks
from checks import Check, close, combine, fail

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SERIES_RTOL = 1e-12
FIELD_RTOL = 1e-12  # of the field maximum
INTERP_RTOL = 1e-9  # quad runs at epsrel=1e-10


@dataclass
class Job:
    key: str
    call: Callable[[Path], object]


def _cli(argv: list[str]) -> Callable[[Path], object]:
    """A CLI job; '{out}' in an argument is replaced by the pass directory."""
    return lambda out: cli.run([a.replace("{out}", str(out)) for a in argv])


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"{path.name} does not parse: {exc}")


class Workload:
    name = ""

    def setup(self, seed: int, inputs: Path):
        """Generate the seeded inputs and write them under ``inputs``."""

    def warmup(self) -> Job:
        raise NotImplementedError

    def jobs(self) -> list[Job]:
        raise NotImplementedError

    def check(self, results: dict, out: Path) -> dict[str, Check]:
        raise NotImplementedError


# verify_defaults ------------------------------------------------------------------

DEFAULT_EXPERIMENTS = (
    "poincare", "poincare_weak", "poincare_sobolev", "compact_support", "riesz_bound",
    "maximal_bound", "hedberg", "sharpness_poincare", "sharpness_riesz",
)


class VerifyDefaults(Workload):
    """`capnorm verify <name>` for the nine shipped default configs; ignores the seed."""

    name = "verify_defaults"

    def warmup(self) -> Job:
        # direct (depth 4) and FFT (depth 7) operator paths, the counting distribution
        return Job("warmup", _cli(["verify", "hedberg", "--set", "depths=[4, 7]",
                                   "--out", "{out}/warmup.json"]))

    def jobs(self) -> list[Job]:
        return [Job(name, _cli(["verify", name, "--out", f"{{out}}/{name}.json"]))
                for name in DEFAULT_EXPERIMENTS]

    def check(self, results, out):
        refs = json.loads((REFERENCE_DIR / "verify_defaults.json").read_text())
        return {name: self._check_report(name, results[name], out / f"{name}.json", refs[name])
                for name in DEFAULT_EXPERIMENTS}

    @staticmethod
    def _check_report(name, rc, path, ref) -> Check:
        if rc != 0:
            return fail(f"exit code {rc}")
        doc = _load(path)
        if isinstance(doc, Check):
            return doc
        if doc.get("experiment") != name or doc.get("verdict") is not True:
            return fail(f"verdict {doc.get('verdict')!r} for {doc.get('experiment')!r}")
        labels = [label for label, _ in doc["series"]]
        if labels != [label for label, _ in ref["series"]]:
            return fail(f"series labels {labels} differ from the reference")
        return combine([close(v, r, SERIES_RTOL, f"{name} {label}")
                        for (label, v), (_, r) in zip(doc["series"], ref["series"])])


# content_sweep ------------------------------------------------------------------

DELTA = {1: 0.6, 2: 1.5, 3: 2.2}  # content exponents below dim
LEVELS = 48  # quantised fields take LEVELS values, so ties are common


@dataclass
class Call:
    """One library call on one seeded grid function."""

    key: str
    fn: str
    kind: str
    p: float = 1.5
    q: float = 2.0
    pair: tuple = ()


# Fixed job list.  The seed changes exponents, amplitudes, mirror images and
# random values, never the geometry that sets the number of distinct values m.
CALLS = [
    Call("r1o_lorentz", "radial1_off", "lorentz", p=1.2, q=2.0),
    Call("q1_lorentz_inf", "quant1", "lorentz", p=1.5, q=math.inf),
    Call("q1_pnorm", "quant1", "p_norm", p=2.0),
    Call("b1_dyadic", "bump1", "dyadic", p=1.5, q=2.0),
    Call("r2_lorentz", "radial2", "lorentz", p=1.5, q=3.0),
    Call("r2_interp", "radial2", "interp", pair=(1.0, 3.0, 0.5, 2.0)),
    Call("r2_kprofile", "radial2", "k_profile", pair=(1.0, 3.0, 0.5, 2.0)),
    Call("r2o_lorentz_inf", "radial2_off", "lorentz", p=2.0, q=math.inf),
    Call("q2_interp", "quant2", "interp", pair=(1.0, 2.5, 0.3, 2.5)),
    Call("q2_dyadic", "quant2", "dyadic", p=1.5, q=math.inf),
    Call("b2_pnorm", "bump2", "p_norm", p=1.5),
    Call("b2_interp", "bump2", "interp", pair=(1.0, 3.0, 0.5, 2.0)),
    Call("r2d8_lorentz", "radial2_d8", "lorentz", p=1.5, q=1.5),
    Call("b2d8_dyadic", "bump2_d8", "dyadic", p=1.2, q=2.0),
    Call("q2d8_pnorm", "quant2_d8", "p_norm", p=1.5),
    Call("q2d8_lorentz_inf", "quant2_d8", "lorentz", p=1.5, q=math.inf),
    Call("r3_lorentz", "radial3", "lorentz", p=1.5, q=2.5),
    Call("b3_pnorm", "bump3", "p_norm", p=2.0),
    Call("q3_lorentz_inf", "quant3", "lorentz", p=1.2, q=math.inf),
    Call("r3d6_dyadic", "radial3_d6", "dyadic", p=1.5, q=2.0),
    Call("q3d6_lorentz", "quant3_d6", "lorentz", p=1.5, q=2.0),
]

# name -> (dim, depth, kind); kinds: radial (centred), radial_off (off centre,
# clipped by the root boundary), bump, quant (quantised random field)
FUNCTIONS = {
    "radial1_off": (1, 12, "radial_off"),
    "quant1": (1, 12, "quant"),
    "bump1": (1, 12, "bump"),
    "radial2": (2, 7, "radial"),
    "radial2_off": (2, 7, "radial_off"),
    "quant2": (2, 7, "quant"),
    "bump2": (2, 7, "bump"),
    "radial2_d8": (2, 8, "radial"),
    "bump2_d8": (2, 8, "bump"),
    "quant2_d8": (2, 8, "quant"),
    "radial3": (3, 5, "radial"),
    "bump3": (3, 5, "bump"),
    "quant3": (3, 5, "quant"),
    "radial3_d6": (3, 6, "radial"),
    "quant3_d6": (3, 6, "quant"),
}

VERIFY_JOBS = {
    "poincare": {"delta": 1.5, "p": 1.5, "q": 1.5, "depths": [4, 5, 6], "b_scan": True},
    "poincare_sobolev": {"delta": 1.5, "mu": 0.25, "p": 1.0, "q": 6.0, "depths": [4, 5, 6]},
}


def _grid_function(kind: str, dim: int, depth: int, rng) -> GridFunction:
    grid = make_grid(dim, depth, 2.0)  # root [-1, 1)^dim: the origin is a cell corner
    signs = rng.choice([-1.0, 1.0], size=dim)  # a mirror image keeps m unchanged
    if kind == "radial":
        s = Sampler.radial_power(rng.uniform(-0.9, -0.3), (0.0,) * dim, (0.05, 0.9))
    elif kind == "radial_off":
        s = Sampler.radial_power(rng.uniform(-0.9, -0.3), 0.5 * signs, (0.05, 1.2))
    elif kind == "bump":
        s = Sampler.bump(0.25 * signs, 0.6, rng.uniform(0.5, 2.0))
    else:
        levels = rng.integers(0, LEVELS, size=grid.shape)
        return GridFunction(grid, levels * rng.uniform(0.05, 0.2))
    return sample(s, grid)


class ContentSweep(Workload):
    """Seeded grid functions at delta < dim through the norms, interpolation and two experiments."""

    name = "content_sweep"

    def setup(self, seed, inputs):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.fns = {name: _grid_function(kind, dim, depth, rng)
                    for name, (dim, depth, kind) in FUNCTIONS.items()}
        # a linear function along a seeded diagonal: the ball's symmetry keeps m fixed
        self.coeffs = (rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0], size=2)).tolist()
        inputs.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for exp, cfg in VERIFY_JOBS.items():
            cfg = dict(cfg, sampler={"kind": "linear", "coeffs": self.coeffs})
            path = inputs / f"{exp}.json"
            path.write_text(io.dumps(cfg), encoding="utf-8")
            self.configs[exp] = (cfg, path)

    def warmup(self) -> Job:
        f = self.fns["quant2"]
        return Job("warmup", lambda out: choquet.lorentz_norm(f, LorentzExponents(1.5, 2.0, DELTA[2])))

    def jobs(self) -> list[Job]:
        jobs = [Job(c.key, self._library_call(c)) for c in CALLS]
        jobs += [Job(exp, _cli(["verify", exp, "--config", str(path), "--out", f"{{out}}/{exp}.json"]))
                 for exp, (_, path) in self.configs.items()]
        return jobs

    def _library_call(self, c: Call):
        # module attributes are looked up at call time, so a traced pass sees its wrappers
        f = self.fns[c.fn]
        delta = DELTA[f.grid.dim]
        if c.kind == "lorentz":
            return lambda out: choquet.lorentz_norm(f, LorentzExponents(c.p, c.q, delta))
        if c.kind == "dyadic":
            return lambda out: choquet.lorentz_norm_dyadic(f, LorentzExponents(c.p, c.q, delta))
        if c.kind == "p_norm":
            return lambda out: choquet.choquet_p_norm(f, c.p, delta)
        pair = InterpPair(p0=c.pair[0], p1=c.pair[1], delta=delta, eta=c.pair[2], q_interp=c.pair[3])
        if c.kind == "interp":
            return lambda out: interp.interpolation_norm(f, pair)
        return lambda out: interp.k_profile(f, pair)

    def check(self, results, out):
        rng = np.random.default_rng([self.seed, 1])
        dists, verdicts = {}, {}
        for name in sorted({c.fn for c in CALLS}):
            f = self.fns[name]
            delta = DELTA[f.grid.dim]
            dists[name] = distribution(f, delta)
            verdicts[name] = checks.plateaus_from_scratch(f, delta, dists[name], rng)
        gate = {c.key: combine([verdicts[c.fn], self._check_call(c, results[c.key], dists[c.fn])])
                for c in CALLS}
        for exp, (cfg, _) in self.configs.items():
            gate[exp] = self._check_experiment(exp, cfg, results[exp], out / f"{exp}.json")
        return gate

    @staticmethod
    def _check_call(c: Call, value, dist) -> Check:
        t, h = dist.thresholds, dist.plateaus
        if c.kind == "lorentz":
            return close(value, checks.lorentz_ref(t, h, c.p, c.q), SERIES_RTOL, c.key)
        if c.kind == "dyadic":
            return close(value, checks.dyadic_ref(t, h, c.p, c.q), SERIES_RTOL, c.key)
        if c.kind == "p_norm":
            return close(value, checks.p_norm_ref(t, h, c.p), SERIES_RTOL, c.key)
        p0, p1, eta, q = c.pair
        if c.kind == "interp":
            return close(value, checks.interpolation_ref(t, h, p0, p1, eta, q), INTERP_RTOL, c.key)
        t_grid, k_vals = value
        if t_grid.size < 2 or np.any(np.diff(t_grid) <= 0) or t_grid[0] <= 0:
            return fail(f"{c.key}: t grid is not positive and increasing")
        ref = checks.k_values_ref(t, h, p0, p1, t_grid)
        return combine([close(v, r, SERIES_RTOL, c.key) for v, r in zip(k_vals, ref)])

    def _check_experiment(self, exp, cfg, rc, path) -> Check:
        """Recompute each depth's two sides from public functions."""
        if rc != 0:
            return fail(f"{exp}: exit code {rc}")
        doc = _load(path)
        if isinstance(doc, Check):
            return doc
        if doc.get("verdict") is not True:
            return fail(f"{exp}: verdict {doc.get('verdict')!r}")
        series = dict((label, value) for label, value in doc["series"])
        shape = Shape.ball((0.0, 0.0), 1.0)
        u = Sampler.linear(cfg["sampler"]["coeffs"])
        delta, p, q = cfg["delta"], cfg["p"], cfg["q"]
        if exp == "poincare":
            alpha, beta, _ = shape.john_constants()
            left = right = LorentzExponents(p, q, delta)
            factor = beta * (beta / alpha) ** 4  # beta (beta/alpha)^(2 dim) with dim = 2
        else:
            mu = cfg["mu"]
            left = LorentzExponents(p * (delta - mu * p) / (delta - p), q, delta - mu * p)
            right = LorentzExponents(p, q * (delta - p) / (delta - mu * p), delta)
            factor = 1.0
        found = []
        for depth in cfg["depths"]:
            grid = make_grid(2, depth, 2.0)
            domain = make_john_domain(shape, grid)
            raw = u.evaluate(grid.centers()).reshape(grid.shape)
            u_ball = mean_value(raw, grid, mean_value_ball(domain, 0.25), within=domain.cells)
            diff = GridFunction(grid, np.where(domain.cells.mask, np.abs(raw - u_ball), 0.0))
            grad = gradient_magnitude(u, grid).restrict(domain.cells)
            lhs = self._lorentz(diff, left)
            rhs = factor * self._lorentz(grad, right)
            for label, ref in ((f"lhs@d{depth}", lhs), (f"rhs@d{depth}", rhs), (f"ratio@d{depth}", lhs / rhs)):
                if label not in series:
                    return fail(f"{exp}: series has no {label}")
                found.append(close(series[label], ref, SERIES_RTOL, f"{exp} {label}"))
        return combine(found)

    @staticmethod
    def _lorentz(f: GridFunction, e: LorentzExponents) -> float:
        d = distribution(f, e.delta)
        return checks.lorentz_ref(d.thresholds, d.plateaus, e.p, e.q)


# cli_files ------------------------------------------------------------------------

FIELD_CELLS = 8  # seeded cells checked against the point evaluators per field


def _bumps(dim: int, depth: int, rng) -> GridFunction:
    """Three seeded bumps on a positive random floor.

    Every cell is positive and every value distinct, so the JSON text,
    the parse and the Lebesgue distribution have the same size for every
    seed; bump radii are fixed for the same reason.
    """
    grid = make_grid(dim, depth, 2.0)
    values = rng.uniform(0.1, 1.0, size=grid.shape)
    for _ in range(3):
        s = Sampler.bump(rng.uniform(-0.5, 0.5, size=dim), 0.4, rng.uniform(0.5, 2.0))
        values += sample(s, grid).values
    return GridFunction(grid, values)


CLI_FIELDS = {"f2": (2, 8, 0.5, 1.0), "f3": (3, 5, 1.0, 1.5)}  # dim, depth, mu, alpha
CLI_SETS = {"s2": (2, 8, 0.02, 1.3), "s3": (3, 5, 0.03, 2.2)}  # dim, depth, occupied share, delta


class CliFiles(Workload):
    """File subcommands on seeded JSON inputs written during set-up."""

    name = "cli_files"

    def setup(self, seed, inputs):
        rng = np.random.default_rng(seed)
        self.seed = seed
        inputs.mkdir(parents=True, exist_ok=True)
        self.fns, self.sets, self.paths = {}, {}, {}
        for key, (dim, depth, _, _) in CLI_FIELDS.items():
            self.fns[key] = _bumps(dim, depth, rng)
            self.paths[key] = self._write(inputs / f"{key}.json", io.gridfunction_to_dict(self.fns[key]))
        for key, (dim, depth, share, _) in CLI_SETS.items():
            grid = make_grid(dim, depth, 2.0)
            occupied = rng.choice(grid.n_cells, size=round(share * grid.n_cells), replace=False)
            self.sets[key] = CellSet.from_indices(grid, occupied)
            self.paths[key] = self._write(inputs / f"{key}.json", io.cellset_to_dict(self.sets[key]))

    @staticmethod
    def _write(path: Path, doc: dict) -> str:
        path.write_text(io.dumps(doc), encoding="utf-8")
        return str(path)

    def warmup(self) -> Job:
        return Job("warmup", _cli(["maximal", "--fn", self.paths["f3"], "--mu", "1.0",
                                   "--out", "{out}/warmup.json"]))

    def jobs(self) -> list[Job]:
        jobs = []
        for key, (dim, _, mu, alpha) in CLI_FIELDS.items():
            fn = self.paths[key]
            jobs += [
                Job(f"{key}_maximal", _cli(["maximal", "--fn", fn, "--mu", str(mu),
                                            "--out", f"{{out}}/{key}_maximal.json"])),
                Job(f"{key}_riesz", _cli(["riesz", "--fn", fn, "--alpha", str(alpha),
                                          "--out", f"{{out}}/{key}_riesz.json"])),
                Job(f"{key}_norm", _cli(["norm", "--fn", fn, "--delta", str(dim), "--p", "1.5",
                                         "--q", "2", "--lebesgue", "--out", f"{{out}}/{key}_norm.json"])),
            ]
        for key, (_, _, _, delta) in CLI_SETS.items():
            jobs.append(Job(f"{key}_content", _cli(
                ["content", "--set", self.paths[key], "--delta", str(delta),
                 "--cover-out", f"{{out}}/{key}_content.cover.json", "--out", f"{{out}}/{key}_content.json"])))
        return jobs

    def check(self, results, out):
        rng = np.random.default_rng([self.seed, 2])
        gate = {}
        for job in self.jobs():
            if results[job.key] != 0:
                gate[job.key] = fail(f"{job.key}: exit code {results[job.key]}")
                continue
            key, kind = job.key.split("_")
            path = out / f"{job.key}.json"
            if kind == "content":
                gate[job.key] = self._check_cover(key, path, out / f"{job.key}.cover.json")
            elif kind == "norm":
                gate[job.key] = self._check_norm(key, path, rng)
            else:
                gate[job.key] = self._check_field(key, kind, path, rng)
        return gate

    def _check_field(self, key, kind, path, rng) -> Check:
        f = self.fns[key]
        _, _, mu, alpha = CLI_FIELDS[key]
        try:
            field = io.read_gridfunction(str(path))
        except (OSError, ValueError, KeyError) as exc:
            return fail(f"{path.name} does not parse: {exc}")
        if field.grid != f.grid:
            return fail(f"{path.name}: grid differs from the input's")
        scale = float(np.max(np.abs(field.values)))
        centers = f.grid.centers()
        found = []
        for cell in rng.choice(f.grid.n_cells, size=FIELD_CELLS, replace=False):
            if kind == "maximal":
                ref = maximal_at(f, centers[cell], mu)
            else:
                ref = riesz_unnormalized_at(f, centers[cell], alpha) / riesz_normalization(f.grid.dim, alpha)
            dev = abs(field.values.flat[cell] - ref) / scale
            found.append(Check(dev <= FIELD_RTOL, dev, "" if dev <= FIELD_RTOL else
                               f"{path.name} cell {cell}: {field.values.flat[cell]!r} vs {ref!r}"))
        return combine(found)

    def _check_norm(self, key, path, rng) -> Check:
        doc = _load(path)
        if isinstance(doc, Check):
            return doc
        f = self.fns[key]
        t, h = doc["distribution"]["thresholds"], doc["distribution"]["plateaus"]
        found = [checks.plateaus_lebesgue(f.values, f.grid.cell_volume, t, h, rng)]
        if not set(t) <= set(np.unique(f.values).tolist()):
            found.append(fail(f"{path.name}: thresholds are not values of the input"))
        found.append(close(doc["norm"], checks.lorentz_ref(t, h, 1.5, 2.0), SERIES_RTOL, path.name))
        return combine(found)

    def _check_cover(self, key, value_path, cover_path) -> Check:
        value_doc, cover_doc = _load(value_path), _load(cover_path)
        for doc in (value_doc, cover_doc):
            if isinstance(doc, Check):
                return doc
        cells = self.sets[key]
        grid, delta = cells.grid, CLI_SETS[key][3]
        if cover_doc["value"] != value_doc["value"] or cover_doc["delta"] != delta:
            return fail(f"{key}: cover and value documents disagree")
        painted = np.zeros(grid.shape, dtype=np.int64)
        cost = 0.0
        for cube in cover_doc["cover"]:
            span = 2 ** (grid.depth - cube["level"])
            painted[tuple(slice(i * span, (i + 1) * span) for i in cube["index"])] += 1
            cost += grid.side_at_level(cube["level"]) ** delta
        if np.any(painted > 1) or np.any(cells.mask & (painted == 0)):
            return fail(f"{key}: cover cubes overlap or miss a cell")
        return combine([
            close(cost, cover_doc["value"], SERIES_RTOL, f"{key} cover cost"),
            close(cover_doc["value"], content_value(cells, delta), 0.0, f"{key} from-scratch content"),
        ])


WORKLOADS = {w.name: w for w in (VerifyDefaults, ContentSweep, CliFiles)}
