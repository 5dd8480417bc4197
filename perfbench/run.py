"""Seeded benchmark of the anick command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload resolve --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `complete` is dominated by Groebner
completion, `series` by chain enumeration, `resolve` by the Anick
resolution, its verification and Tor.

The run imports `anick` from `src/`, draws the seeded job list, writes its
presentation files under `.perfbench-work/`, and then drives
`anick.cli.main(argv)` in this process with stdout captured: a closed loop,
one client, one thread.  It repeats the whole job list until `--seconds`
would be exceeded (at least once) and checks every output against
`references.json`.

Times are in reference-speed seconds.  The host's CPU speed drifts by
about 20% over tens of seconds on shared machines (measured on a 2-vCPU
VM), more than any change worth detecting, so a fixed pure-Python
calibration loop that uses no anick code runs before the first job and
after every job, and each job's wall time is scaled by REFERENCE_S over
the mean of its two neighbouring calibrations.  The raw wall times and the
median scale factor are printed as well.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json with tracing
off.  Set-up is timed in this process and in fresh processes that do
nothing else, each between two calibrations, and the median is reported.

`--trace 1` spends a third of `--seconds` on untraced passes and the rest
with every public function of the layer modules wrapped by tracing.py,
then reports the per-layer metrics of BENCHMARK.json, as totals per pass,
and writes the spans to `.perfbench-work/`.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 whenever that line is printed, and nonzero
when the benchmark cannot run at all, e.g. without `src/anick`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from check import failure, load_references, self_check
from tracing import Tracer, job_self_sums, layer_metrics, top_self_times
from workloads import WORKLOADS, grid, job_list, job_list_digest, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 7
# job_s.tail is read at the highest whole percentile that leaves TAIL_JOBS
# jobs beyond it in TAIL_PASSES passes.  Fixing the percentile per workload,
# rather than per run, keeps it on the same jobs however many passes fit.
TAIL_JOBS = 10
TAIL_PASSES = 3
# About the median time of calibrate() on a 2-vCPU x86 VM under Python 3.11.
REFERENCE_S = 0.009


@dataclass
class Result:
    job: object
    seconds: float          # wall time
    scale: float            # REFERENCE_S / calibration time around the job
    failure: str | None
    out_bytes: int
    exactness_degree: int | None

    @property
    def scaled(self):
        return self.seconds * self.scale


def calibrate(_zero=Fraction(0)):
    """Time a fixed piece of work that uses no anick code: Fraction
    arithmetic and dict updates, like anick's inner loops."""
    start = time.perf_counter()
    acc = {}
    for i in range(3000):
        key = (i % 13, i * 7 % 11)
        acc[key] = acc.get(key, _zero) + Fraction(i % 19 + 1, i % 23 + 1)
    return time.perf_counter() - start


def setup(workload, seed):
    """Import anick, draw the job list, write its inputs.  Returns them with
    the scaled set-up time."""
    calibrate()
    before = calibrate()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("anick.cli")
    jobs = job_list(workload, seed)
    inputs = WORK / "inputs" / f"{workload}-{seed}"
    write_inputs(jobs, inputs)
    elapsed = time.perf_counter() - start
    scaled = elapsed * 2 * REFERENCE_S / (before + calibrate())
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"anick was imported from {cli.__file__}, not {SRC}")
    return cli, jobs, inputs, scaled


def setup_in_fresh_process(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def run_checked(cli, job, inputs, refs):
    seconds, rc, out, err = run_job(cli, job.argv(inputs))
    why = failure(job, rc, out, refs)
    if why is not None:
        print(f"perfbench: FAILED {job.key}: {why} {err.strip()}",
              file=sys.stderr)
    degree = None
    if job.command == "anick" and why is None:
        degree = json.loads(out)["verification"]["exactness"]["degree"]
    return Result(job, seconds, 1.0, why, len(out.encode("utf-8")), degree), out


def warm_up(cli, workload, inputs, refs):
    """Run the first grid variant of each kind of job once, untimed, and
    check that the checker rejects corrupted copies of their outputs."""
    kinds = {}
    for job in grid(workload):
        kinds.setdefault((job.command, bool(job.factors)), job)
    write_inputs(kinds.values(), inputs)
    samples, problems = [], []
    for job in kinds.values():
        result, out = run_checked(cli, job, inputs, refs)
        if result.failure is None:
            samples.append((job, out))
        else:
            problems.append(f"warm-up job failed: {job.key}")
    problems += [f"checker missed: {m}" for m in self_check(samples, refs)]
    return problems


def measure(cli, jobs, inputs, refs, budget, tracer=None):
    """Repeat the job list until another pass would exceed budget seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        results = []
        before = calibrate()
        for job in jobs:
            if tracer is not None:
                tracer.job += 1
            # Each CLI run starts from a collected heap, as in a new process.
            gc.collect()
            result = run_checked(cli, job, inputs, refs)[0]
            after = calibrate()
            result.scale = 2 * REFERENCE_S / (before + after)
            before = after
            results.append(result)
        passes.append(results)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > budget:
            return passes


def pass_walls(passes, raw=False):
    return [sum(r.seconds if raw else r.scaled for r in results)
            for results in passes]


def tail(values, jobs_per_pass):
    """Nearest-rank value at the tail percentile, and that percentile."""
    n = TAIL_PASSES * jobs_per_pass
    pct = max(0, math.floor(100 * (n - TAIL_JOBS) / n))
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)], pct


def end_to_end(passes, setup_times):
    results = [r for p in passes for r in p]
    times = [r.scaled for r in results]
    raw = [r.seconds for r in results]
    failed = sum(r.failure is not None for r in results)
    value, pct = tail(times, len(passes[0]))
    metrics = {
        "wall_s": statistics.median(pass_walls(passes)),
        "job_s.p50": statistics.median(times),
        "job_s.tail": value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - failed / len(times),
    }
    notes = (f"passes={len(passes)} jobs_timed={len(times)} "
             f"tail_percentile=p{pct} failed_ratio={failed / len(times):g}\n"
             f"perfbench: raw wall_s={statistics.median(pass_walls(passes, True)):.4f} "
             f"job_s.p50={statistics.median(raw):.4f} "
             f"job_s.tail={tail(raw, len(passes[0]))[0]:.4f} "
             f"median scale={statistics.median(r.scale for r in results):.4f}")
    return metrics, notes


def per_layer(untraced, traced, tracer):
    results = [r for p in traced for r in p]
    metrics = layer_metrics(tracer.spans, len(traced), [r.scale for r in results])
    metrics["cli.output_bytes"] = sum(r.out_bytes for r in results) / len(traced)
    degrees = [r.exactness_degree for r in results if r.exactness_degree is not None]
    metrics["resolution.exactness_degree"] = (
        statistics.mean(degrees) if degrees else 0.0)
    metrics["trace.overhead_ratio"] = (statistics.median(pass_walls(traced))
                                       / statistics.median(pass_walls(untraced)))
    problems = []
    sums = job_self_sums(tracer.spans)
    for job_id, result in enumerate(results):
        if sums.get(job_id, 0.0) > result.seconds:
            problems.append(f"self times exceed the traced wall time of "
                            f"{result.job.key}")
    top = ", ".join(f"{name} {seconds / len(traced):.3f} s"
                    for name, seconds in top_self_times(tracer.spans)[:5])
    return metrics, problems, f"top raw self time per pass: {top}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "anick" / "cli.py").is_file():
        print(f"perfbench: no anick sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[3]}))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    setup_times = []
    if not args.trace:
        setup_times = [setup_in_fresh_process(args)
                       for _ in range(SETUP_REPEATS - 1)]
    cli, jobs, inputs, seconds = setup(args.workload, args.seed)
    setup_times.append(seconds)
    refs = load_references()
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"jobs={len(jobs)} job_list={job_list_digest(jobs)} "
          f"python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} trace={args.trace}")
    problems = warm_up(cli, args.workload, inputs, refs)

    if args.trace:
        untraced = measure(cli, jobs, inputs, refs, args.seconds / 3)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(cli, jobs, inputs, refs, args.seconds * 2 / 3,
                             tracer)
        finally:
            tracer.uninstall()
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        passes = untraced + traced
        metrics, more, notes = per_layer(untraced, traced, tracer)
        problems += more
        wanted = spec["per_layer"]
    else:
        passes = measure(cli, jobs, inputs, refs, args.seconds)
        metrics, notes = end_to_end(passes, setup_times)
        wanted = spec["end_to_end"]

    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError("computed metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    print(f"perfbench: {notes}")
    for problem in problems:
        print(f"perfbench: PROBLEM {problem}")
    for m in wanted:
        print(f"  {m['name']:<52} {metrics[m['name']]:>14.6g} {m['unit']}")
    attempted = sum(len(p) for p in passes)
    failed = sum(r.failure is not None for p in passes for r in p)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
