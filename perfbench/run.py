"""Benchmark of the braidrep command line, end to end and per layer.

    python3 perfbench/run.py --workload kernel|symbolic|motions --seed N
                             --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it measures set-up time in
fresh processes, then starts one timed process (worker.py) that runs the
workload's seeded jobs through braidrep.cli.main for about S seconds of
job time.  Afterwards every job's stdout is checked against the exact
answers of reference.py.  With --trace 1 the timed process also records
spans per module (tracing.py) and the per-layer metrics are reported.

Every metric of the mode is printed by name with its unit; a record line
gives the Python version, CPU count, git SHA, seed, job count and the
percentile of job_ms.tail; the last line is the JSON result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
`failed` counts jobs whose exit code, stdout or answer is wrong, with
one exception: a trajectory file whose exact events come out with some
left out.  That is a known defect of the float grid detector, and its
rate is a measurement, not a broken run: the record line gives it as
`failed_ratio` (every job whose output differs from the reference,
dropped events included) and `miss_ratio`, and the traced run as
collinearity.miss_files and collinearity.missed_events.
`correct` is false when any job fails, when a traced job prints
something else than its untraced twin, or when a known answer from the
literature does not come out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402

SETUP_RUNS = 9
TAIL_BEYOND = 10   # jobs that must lie beyond the reported tail percentile

SETUP_CODE = """\
import contextlib, io, sys
sys.path.insert(0, {src!r})
from braidrep import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
sys.exit(code)
"""


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def measure_setup(workload):
    """Median wall time of a fresh interpreter importing braidrep and
    finishing the warm-up job; one unmeasured run first fills the
    bytecode and file caches."""
    code = SETUP_CODE.format(src=str(SRC), argv=jobs.WARMUP[workload])
    samples = []
    for _ in range(SETUP_RUNS + 1):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        samples.append(perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up run exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return statistics.median(samples[1:])


def run_worker(args, work):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", str(SRC), "--work", str(work)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=2 * args.seconds + 60)
    if proc.returncode != 0:
        fail(f"timed process failed: {proc.stderr.strip()[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    with open(work / "result.json") as fh:
        return json.load(fh)


def verify(args, work):
    """Check every saved output against the reference; returns per-job
    outcomes and the number of jobs whose input repeats an earlier one."""
    checker = check.Checker()
    outcomes, seen, repeats = [], set(), 0
    stream = jobs.stream(args.workload, args.seed)
    with open(work / "outputs.jsonl") as fh:
        for line in fh:
            record = json.loads(line)
            _, job = next(stream)
            key = (tuple(job.argv), json.dumps(job.motion))
            repeats += key in seen
            seen.add(key)
            outcome = checker.check(job, record["code"], record["stdout"])
            if outcome.status != "ok":
                outcome.detail = f"job {record['index']} {job.kind}: {outcome.detail}"
                if record["stderr"]:
                    outcome.detail += f" [stderr: {record['stderr'].strip()[-200:]}]"
            outcomes.append((outcome, record.get("traced_same", True)))
    return outcomes, repeats, checker.known_answers()


def tail(times):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def end_to_end(result, setup_s):
    times = result["job_ms"]
    tail_ms, tail_pct = tail(times)
    metrics = {
        "job_ms.p50": statistics.median(times),
        "job_ms.tail": tail_ms,
        "jobs_per_s": len(times) / (sum(times) / 1000.0),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return metrics, tail_pct


def per_layer(result, outcomes, repeat_share):
    totals = tracing.layer_totals(result["spans"])

    def layer(name, key):
        return totals.get(name, {}).get(key, 0)

    metrics = {
        "cli.self_ms": layer("cli", "self_ms"),
        "cli.calls": layer("cli", "calls"),
        "braids.parse_ms": layer("braids.parse", "self_ms"),
        "braids.parse_calls": layer("braids.parse", "calls"),
        "braids.letters": layer("braids.parse", "letters"),
        "gn3.phi_ms": layer("gn3.phi", "self_ms"),
        "gn3.phi_calls": layer("gn3.phi", "calls"),
        "gn3.phi_letters_in": layer("gn3.phi", "phi_letters_in"),
        "gn3.phi_letters_out": layer("gn3.phi", "phi_letters_out"),
    }
    for name in ("fold_unit", "fold_rational", "specialize", "symbolic", "burau", "check"):
        metrics[f"matrixrep.{name}_ms"] = layer(f"matrixrep.{name}", "self_ms")
        metrics[f"matrixrep.{name}_calls"] = layer(f"matrixrep.{name}", "calls")
    metrics["matrixrep.fold_letters"] = (layer("matrixrep.fold_unit", "fold_letters")
                                         + layer("matrixrep.fold_rational", "fold_letters"))
    for name in ("load", "detect", "calibrate"):
        metrics[f"collinearity.{name}_ms"] = layer(f"collinearity.{name}", "self_ms")
        metrics[f"collinearity.{name}_calls"] = layer(f"collinearity.{name}", "calls")

    counts = [o.counts for o, _ in outcomes]

    def gather(key, reduce, default=0):
        values = [c[key] for c in counts if key in c]
        return reduce(values) if values else default

    metrics.update({
        "matrixrep.dim": gather("dim", max),
        "matrixrep.nonzeros": gather("nonzeros", sum),
        "laurent.max_terms": gather("max_terms", max),
        "laurent.max_coeff_bits": gather("max_coeff_bits", max),
        "laurent.total_terms": gather("total_terms", sum),
        "collinearity.events": gather("events", sum),
        "collinearity.miss_files": sum(1 for o, _ in outcomes if o.status == "miss"),
        "collinearity.missed_events": gather("missed", sum),
        "collinearity.min_gap": gather("min_gap", min, 0.0),
        "trace.overhead_ms": (statistics.median(result["traced_job_ms"])
                              - statistics.median(result["job_ms"])),
        "jobs.repeat_share": repeat_share,
    })
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WARMUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "braidrep" / "cli.py").is_file():
        fail(f"no braidrep sources under {SRC}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s = None if args.trace else measure_setup(args.workload)
        result = run_worker(args, work)
        outcomes, repeats, known_failures = verify(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    inputs = len(outcomes)
    failed_inputs = [o for o, _ in outcomes if o.status != "ok"]
    fatal = [o for o in failed_inputs if o.status != "miss"]
    misses = len(failed_inputs) - len(fatal)
    differs = sum(1 for _, same in outcomes if not same)
    if args.trace:
        attempted = 2 * inputs
        failed = sum(2 if o.status not in ("ok", "miss") else (0 if same else 1)
                     for o, same in outcomes)
        metrics = per_layer(result, outcomes, repeats / inputs)
        tail_pct = None
    else:
        attempted, failed = inputs, len(fatal)
        metrics, tail_pct = end_to_end(result, setup_s)

    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        fail(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")

    for o in fatal[:5] + [o for o in failed_inputs if o.status == "miss"][:3]:
        print(f"failed ({o.status}): {o.detail}")
    for message in known_failures:
        print(f"known answer wrong: {message}")
    if differs:
        print(f"{differs} traced jobs printed something else than their untraced twin")
    if result.get("unwrapped"):
        print(f"not traced (name not found): {', '.join(result['unwrapped'])}")
    for m in wanted:
        print(f"{m['name']:30s} {metrics[m['name']]:>16.6g} {m['unit']}")
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": inputs,
        "job_ms.tail_percentile": tail_pct,
        "failed_ratio": len(failed_inputs) / inputs,
        "miss_ratio": misses / inputs,
        "failed_by_reason": {s: sum(1 for o in failed_inputs if o.status == s)
                             for s in ("exit", "parse", "answer", "miss")},
        "repeat_share": repeats / inputs,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not fatal and not known_failures and not differs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
