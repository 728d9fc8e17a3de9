"""capnorm benchmark: one workload, one seed, every output checked.

    python3 perfbench/run.py --workload verify_defaults --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports capnorm from its
src/ directory.  After one warm-up job it repeats passes over the
workload's fixed job list for --seconds: at least two passes, and no
pass that would end after --seconds at the mean pass time so far.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones plus the tracing overhead.  The last line of standard
output is one JSON object; diagnostics go to standard error and the
spans of a traced run to .perfbench_run/trace-<workload>-<seed>.json.

All load comes from this one process with BLAS/OpenMP pinned to one
thread.  Set-up time is measured by starting a fresh interpreter that
imports capnorm, three times, plus generating the inputs, three times.
"""

from __future__ import annotations

import os
import sys

# before numpy is imported anywhere, in this process and its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import argparse
import contextlib
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def import_seconds() -> float:
    """Process start to `import capnorm.cli` done, in a fresh interpreter.

    perf_counter is CLOCK_MONOTONIC, shared by parent and child, so the
    child's reading after its import ends the interval.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import capnorm.cli, time; print(time.perf_counter())"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - start


def fingerprint(result, out: Path, key: str) -> str:
    """Digest of a job's result and of the files it wrote."""
    h = hashlib.sha256()
    if isinstance(result, tuple):
        for part in result:
            h.update(part.tobytes())
    else:
        h.update(repr(result).encode())
    for path in sorted(out.glob(f"{key}.*")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, workload, recorder):
        self.workload = workload
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, job, out: Path):
        self.attempted += 1
        try:
            return job.call(out)
        except (Exception, SystemExit) as exc:  # a failed operation, counted and reported
            self.errors.append(f"{job.key}: {type(exc).__name__}: {exc}")
            return exc

    def one_pass(self, out: Path, traced: bool) -> tuple[dict, dict]:
        """Run every job once; returns (results, seconds), both keyed by job."""
        out.mkdir(parents=True)
        results, seconds = {}, {}
        jobs = self.workload.jobs()
        with self.recorder.installed() if traced else contextlib.nullcontext():
            for job in jobs:
                with self.recorder.span("bench.job", job.key) if traced else contextlib.nullcontext():
                    start = time.perf_counter()
                    results[job.key] = self.call(job, out)
                    seconds[job.key] = time.perf_counter() - start
        return results, seconds


def pass_seconds(passes: list[dict]) -> float:
    """One pass over the job list: the sum of each job's median over passes.

    Per-job medians keep a burst of load on a shared machine, which slows
    a stretch of one pass, out of the figure.
    """
    return sum(statistics.median(p[key] for p in passes) for key in passes[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "capnorm" / "__init__.py").is_file():
        print(f"perfbench: no capnorm sources under {SRC}", file=sys.stderr)
        return 2

    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = args.seed % 2**63
    workload = workloads.WORKLOADS[args.workload]()
    rundir = ROOT / ".perfbench_run" / f"{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        return run(args, seed, workload, rundir, imports, spans)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def run(args, seed, workload, rundir: Path, imports: list[float], spans) -> int:
    generate = []
    for _ in range(SETUP_REPEATS):
        inputs = rundir / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        workload.setup(seed, inputs)
        generate.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(generate)

    recorder = spans.Recorder()
    runner = Runner(workload, recorder)
    warm_dir = rundir / "warmup"
    warm_dir.mkdir(parents=True)
    warm = runner.call(workload.warmup(), warm_dir)
    # the warm-up's verdict is not checked, but it must run and parse its arguments
    if isinstance(warm, BaseException) or (isinstance(warm, int) and warm not in (0, 1)):
        runner.failed += 1

    times = {False: [], True: []}  # per-job seconds of each untraced and traced pass
    traced_metrics, traced_spans, shares = [], [], []
    first = first_prints = None
    mismatched = {}
    begin = time.perf_counter()
    k = 0
    # at least two passes (one of them traced with --trace 1); no pass that
    # would end, at the mean pass time so far, after --seconds
    while k < 2 or (time.perf_counter() - begin) * (k + 1) / k <= args.seconds:
        traced = bool(args.trace) and k % 2 == 1
        out = rundir / f"pass{k}"
        recorder.spans = []
        results, seconds = runner.one_pass(out, traced)
        times[traced].append(seconds)
        prints = {key: fingerprint(r, out, key) for key, r in results.items()}
        if first is None:
            first, first_prints, first_dir = results, prints, out
        else:
            for key in prints:
                if prints[key] != first_prints[key]:
                    mismatched[key] = mismatched.get(key, 0) + 1
            shutil.rmtree(out)
        if traced:
            wall = sum(seconds.values())
            traced_metrics.append(spans.reduce_pass(recorder.spans))
            shares.append(spans.layer_shares(recorder.spans, wall))
            traced_spans.append({"wall_s": wall, "spans": spans.spans_to_json(recorder.spans)})
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        gate = workload.check(first, first_dir)
    except Exception as exc:  # output the gate cannot read: every job counts as failed
        gate = {}
        runner.errors.append(f"gate: {type(exc).__name__}: {exc}")
    max_rel_dev = 0.0
    for key in first:
        check = gate.get(key)
        if check is not None and math.isfinite(check.rel_dev) and check.rel_dev > max_rel_dev:
            max_rel_dev = check.rel_dev
        runner.failed += mismatched.get(key, 0)
        if check is None or not check.ok:
            # the passes that reproduced the first one's output share its fault
            runner.failed += k - mismatched.get(key, 0)
            runner.errors.append(f"{key}: {check.detail if check else 'not checked'}")
        elif mismatched.get(key):
            runner.errors.append(f"{key}: output differs between passes")

    for line in runner.errors:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    untraced = pass_seconds(times[False])
    walls = {traced: [round(sum(p.values()), 3) for p in passes] for traced, passes in times.items()}
    print(f"perfbench: {args.workload} seed {seed}: {k} passes, untraced walls "
          f"{walls[False]}, traced {walls[True]}, "
          f"setup imports {[round(t, 3) for t in imports]} generate {[round(t, 4) for t in generate]}, "
          f"max_rel_dev {max_rel_dev:.3g}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value if spans.UNITS[name] == "s" else round(value),
                          "unit": spans.UNITS[name]}
                   for name, value in spans.median_metrics(traced_metrics).items()}
        metrics["trace_overhead_s"] = {"value": pass_seconds(times[True]) - untraced, "unit": "s"}
        metrics["max_rel_dev"] = {"value": max_rel_dev, "unit": "ratio"}
        metrics["error_rate"] = {"value": runner.failed / runner.attempted, "unit": "ratio"}
        layer = spans.median_metrics(shares)
        print("perfbench: self-time share of the traced pass by layer: "
              + ", ".join(f"{name} {share:.3f}" for name, share in layer.items()), file=sys.stderr)
        trace_path = ROOT / ".perfbench_run" / f"trace-{args.workload}-{seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": seed,
                                          "layer_shares": layer, "passes": traced_spans}))
    else:
        metrics = {
            "wall_s": {"value": untraced, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
