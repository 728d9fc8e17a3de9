"""Mutation checks of capnorm's exactness claims.

Each mutant is one textual edit of one file under src/capnorm and the
tests that must kill it.  For each mutant the script checks that the old
text occurs exactly once, applies the edit to a fresh temporary copy of
src/ (with copies of tests/, schemas/ and pyproject.toml beside it, so
nothing is written into the checkout), and runs only the named tests with
-x against that copy.  A mutant is killed when pytest reports a failing
test; one whose tests all pass survived.  The named tests are first run
once on the unmutated copy, where they must all pass, so a test id that
no longer exists or a broken copy cannot pass for a kill.

EQUIVALENT lists mutants that no test kills and that are believed not to
change any result, with the evidence; their old text is checked, but they
are not run.

Run it from anywhere as `python tools/mutants.py`.  The exit code is 1
if a mutant survives, 2 if an old text is stale or the named tests fail
on the unmutated copy, and 0 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "schemas", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/capnorm
    old: str
    new: str
    tests: tuple[str, ...] = ()  # the tests expected to kill it
    evidence: str = ""  # why an equivalent mutant is believed to change nothing


DISTRIBUTION_TESTS = ("tests/test_choquet.py", "tests/test_distribution_properties.py")

MUTANTS = [
    # each positive cell's cluster index, 0-based, for the tree sweep
    Mutant("levels_from_one", "choquet.py",
           "levels[cells] = np.cumsum(opens, dtype=np.int32) - 1",
           "levels[cells] = np.cumsum(opens, dtype=np.int32)",
           DISTRIBUTION_TESTS),
    # a cluster opens only where the gap exceeds MERGE_RTOL times the value
    Mutant("clusters_open_at_equal_gap", "choquet.py",
           "np.greater(right - ordered[start - 1:stop - 1]",
           "np.greater_equal(right - ordered[start - 1:stop - 1]",
           DISTRIBUTION_TESTS),
    # the tree sweep against from-scratch plateaus: without a 0.0 slot per
    # parent, an absent child reads the previous parent's last segment
    Mutant("sweep_no_parent_zero_slot", "content.py",
           "slot = np.cumsum(opens, dtype=np.int32)\n"
           "            slot += np.arange(key.size, dtype=np.int32)",
           "slot = np.arange(key.size, dtype=np.int32)",
           ("tests/test_content.py::test_superlevel_sweep_bit_identical",
            "tests/test_distribution_properties.py::test_one_pass_distribution_matches_from_scratch")),
    # the children's costs are summed in C order, as build sums them
    Mutant("sweep_offsets_reversed", "content.py",
           "by_offset = np.argsort(offset, kind=\"stable\")",
           "offset = fan - 1 - offset\n"
           "            by_offset = np.argsort(offset, kind=\"stable\")",
           ("tests/test_content.py::test_superlevel_sweep_bit_identical",
            "tests/test_distribution_properties.py::test_one_pass_distribution_matches_from_scratch")),
    # the rule against its literal, and the only pinned run whose values sit within
    # 1e-9 of each other but not within 1e-12
    Mutant("merge_rtol_1e-9", "choquet.py",
           "MERGE_RTOL = 1e-12", "MERGE_RTOL = 1e-9",
           ("tests/test_choquet.py::test_merge_rule_is_1e_12_relative",
            "tests/test_registry.py::test_pinned_report[sharpness_riesz_delta_1_5]")),
    Mutant("quad_rtol_1e-6", "interp.py",
           "QUAD_RTOL = 1e-10", "QUAD_RTOL = 1e-6",
           ("tests/test_interp.py::test_interpolation_norm_refuses_an_estimate_just_above_quad_rtol",)),
    # a verdict at the limit, and the params, which record it
    Mutant("growth_factor_limit_1.21", "verify.py",
           "GROWTH_FACTOR_LIMIT = 1.2\n", "GROWTH_FACTOR_LIMIT = 1.21\n",
           ("tests/test_verify.py::test_growth_factor_verdict_at_the_limit",
            "tests/test_registry.py::test_pinned_report[poincare]")),
    Mutant("riesz_self_cell_weight", "operators.py",
           "return unit_sphere_area(grid.dim) * rho**alpha / alpha",
           "return unit_sphere_area(grid.dim) * rho**alpha / alpha * 1.0001",
           ("tests/test_operators.py",)),
    # the content DP against the exhaustive oracle: a node costs at most its own weight
    Mutant("content_dp_no_node_weight", "content.py",
           "return np.where(acc > 0, np.minimum(self.weights[k], acc), 0.0)",
           "return np.where(acc > 0, acc, 0.0)",
           ("tests/test_content_properties.py::test_content_value_matches_oracle_and_is_monotone",)),
    # io.dumps against the stdlib's bytes: floats by repr
    Mutant("dumps_float_16_digits", "io.py",
           "return float.__repr__(value)", "return format(value, \".16g\")",
           ("tests/test_io_properties.py::test_dumps_matches_stdlib_json",)),
    # the b-scan evaluates a prefix of the full scan: the same arithmetic for each new point
    Mutant("b_scan_point_from_a", "verify.py",
           "            c = b - INVPHI * (b - a)\n            fc = fun(c)",
           "            c = a + (1.0 - INVPHI) * (b - a)\n            fc = fun(c)",
           ("tests/test_verify.py::test_golden_min_evaluates_a_prefix_of_the_60_step_scan",)),
    # the KEnvelope hull: a line active on an interval is kept ...
    Mutant("hull_over_eager_pop", "interp.py",
           "if t_new <= t_prev:", "if t_new <= t_prev * (1.0 + 1e-6):",
           ("tests/test_interp_properties.py",)),
    # ... and a line active at one t, or at none, is dropped
    Mutant("hull_keeps_a_line_active_at_one_t", "interp.py",
           "if t_new <= t_prev:", "if t_new < t_prev:",
           ("tests/test_interp.py::test_hull_keeps_only_lines_active_on_an_interval",)),
    Mutant("hull_keeps_an_equal_intercept", "interp.py",
           "if ai <= aj:", "if ai < aj:",
           ("tests/test_interp.py::test_hull_keeps_only_lines_active_on_an_interval",
            "tests/test_interp_properties.py::test_envelope_runs_from_intercept_zero_to_slope_zero")),
    # the Hedberg field against the ratio of the point references: the maximal power keeps mu
    Mutant("hedberg_maximal_power_without_mu", "operators.py",
           "maximal_power = (delta - p * alpha) / (delta - mu * p)",
           "maximal_power = (delta - p * alpha) / delta",
           ("tests/test_operators.py::test_hedberg_field_matches_point_references",)),
    # the dyadic-level sum's one lookup: a level on a threshold reads the plateau to its right
    Mutant("dyadic_levels_left_lookup", "choquet.py",
           "np.searchsorted(dist.thresholds, levels, side=\"right\")",
           "np.searchsorted(dist.thresholds, levels, side=\"left\")",
           ("tests/test_distribution_properties.py::test_dyadic_sum_matches_per_level_lookup",)),
    # strong subadditivity's slack keeps H(A n B) on the right: nested sets read exactly 0.0
    Mutant("subadditivity_slack_without_intersection", "content.py",
           "content_value(a.union(b), delta) + content_value(a.intersection(b), delta)",
           "content_value(a.union(b), delta)",
           ("tests/test_content_properties.py::test_nested_sets_have_zero_slack",)),
    # the content side of the L1 ratio is the content integral of f^(delta/dim) to the dim/delta
    Mutant("l1_content_ratio_outer_power_inverted", "operators.py",
           "** (dim / delta)", "** (delta / dim)",
           ("tests/test_operator_properties.py::test_l1_content_ratio_is_at_most_its_bound",)),
    # grid-shaped center distances sum the squared offsets in axis order, as distance does;
    # in 2D either order gives the same bits, so only the 3D draws tell them apart
    Mutant("center_distances_axes_reversed", "grid.py",
           "total = functools.reduce(np.add.outer, (self._axis_centers() - np.asarray(center)[:, None]) ** 2)",
           "total = functools.reduce(lambda acc, sq: np.add.outer(sq, acc),\n"
           "                                 ((self._axis_centers() - np.asarray(center)[:, None]) ** 2)[::-1])",
           ("tests/test_geometry_properties.py::test_one_distance_rule",)),
    # the DCT-I's even extension mirrors x(m-1) .. x1 behind x0 .. xm
    Mutant("dct1_mirror_off_by_one", "operators.py",
           "even = np.concatenate((slab, slab[:, m - 1 : 0 : -1]), axis=1)",
           "even = np.concatenate((slab, slab[:, m : 1 : -1]), axis=1)",
           ("tests/test_operators.py::test_kernel_spectrum_is_scipy_dct1_bit_for_bit",
            "tests/test_operators.py::test_kernel_spectrum_matches_full_lattice_rfftn")),
    # f's block sits at offsets 0..m-1 of each leading axis of the padded lattice
    Mutant("forward_pad_wrong_half", "operators.py",
           "block[(slice(0, m),) * lead] = part",
           "block[(slice(m, n),) * lead] = part",
           ("tests/test_operators.py::test_pruned_convolution_matches_full_lattice",)),
    # a truncation radius equal to the outer one leaves an empty annulus
    Mutant("eps_outer_radius_admitted", "verify.py",
           "if eps[-1] >= outer_radius:", "if eps[-1] > outer_radius:",
           ("tests/test_verify.py::test_sharpness_eps_list_refused_by_name_before_any_grid",)),
]

EQUIVALENT = [
    Mutant("clipped_sums_no_clip", "operators.py",
           "np.maximum(fft.irfft(lines[chunk], n=2 * m, axis=-1)[:, :m], 0.0, out=sums[chunk])",
           "np.copyto(sums[chunk], fft.irfft(lines[chunk], n=2 * m, axis=-1)[:, :m])",
           evidence="every tier-1 test passes on it (657 tests); GridFunction refuses a "
                    "negative value, so the clip would turn FFT noise below zero into a refusal, "
                    "and no tested input makes it act"),
    Mutant("gauss_legendre_10_12", "interp.py",
           "GL_LOW, GL_HIGH = 10, 20", "GL_LOW, GL_HIGH = 10, 12",
           evidence="every tier-1 test passes on it (657 tests); a (4, 6) pair gave a "
                    "bit-identical interpolation_norm on a 2D depth-7 field, so on smooth "
                    "envelopes the value rule has converged long before 12 nodes"),
]


def _check_text(mutant: Mutant) -> str | None:
    """None if the mutant's old text occurs exactly once in its file, else why not."""
    text = (ROOT / "src" / "capnorm" / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    return None if count == 1 else f"{mutant.name}: old text occurs {count} times in {mutant.file}"


def _copy(tmp: Path, mutant: Mutant | None) -> Path:
    """A copy of the checkout's src/, tests/, schemas/ and pyproject.toml, mutated if asked."""
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tmp / name, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        else:
            shutil.copy2(source, tmp / name)
    if mutant is not None:
        path = tmp / "src" / "capnorm" / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
    return tmp


def _pytest(mutant: Mutant | None, tests: tuple[str, ...]) -> int:
    """pytest's exit code for tests, run with -x on a fresh copy (mutated if mutant is given)."""
    with tempfile.TemporaryDirectory(prefix="capnorm-mutant-") as tmp:
        copy = _copy(Path(tmp), mutant)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        probe = subprocess.run([sys.executable, "-c", "import capnorm; print(capnorm.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True)
        if not probe.stdout.strip().startswith(str(copy)):
            sys.exit(f"capnorm does not import from the copy: {probe.stdout.strip() or probe.stderr}")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode


def main() -> int:
    stale = [why for why in map(_check_text, MUTANTS + EQUIVALENT) if why]
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 2
    code = _pytest(None, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
    if code != 0:
        print(f"the named tests do not pass on the unmutated copy (pytest exit {code})", file=sys.stderr)
        return 2
    survivors = []
    for m in MUTANTS:
        start = time.perf_counter()
        code = _pytest(m, m.tests)
        if code not in (0, 1):
            print(f"{m.name}: pytest exit {code}, neither a pass nor a failure", file=sys.stderr)
            return 2
        print(f"{m.name}: {'killed' if code == 1 else 'SURVIVED'} ({time.perf_counter() - start:.1f} s)")
        if code == 0:
            survivors.append(m.name)
    for m in EQUIVALENT:
        print(f"{m.name}: equivalent, not run ({m.evidence})")
    if survivors:
        print(f"surviving mutants: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
