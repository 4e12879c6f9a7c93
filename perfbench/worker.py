"""The timed process: one thread, one client, closed loop.

Runs one workload's job stream in-process through braidrep.cli.main,
capturing stdout, until the jobs have taken about --seconds in total.
Each job starts when the previous one has returned.  Input files are
written, and outputs saved, outside the timed call.  Whole cycles run,
so every run has the same job mix.

With --trace 1 every input runs twice, untraced and traced, in an order
that alternates from input to input; the difference of the two medians
is the tracing overhead.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --src DIR --work DIR
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
from time import perf_counter

import jobs


def run_job(main, argv):
    gc.collect()   # every job starts from a collected heap
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is a failed job, not a dead run
            code = f"exception {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WARMUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from braidrep import cli

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

        def traced_main(argv):
            return tracer.run(cli.main, argv)

    code, _, _, err = run_job(cli.main, jobs.WARMUP[args.workload])
    if code != 0:
        sys.exit(f"warm-up job failed ({code}): {err.strip()}")

    motion_file = os.path.join(args.work, "motion.json")
    busy, cycle_busy, last_cycle = 0.0, 0.0, 0   # cycle_busy: job time of the current cycle
    untraced, traced = [], []
    with open(os.path.join(args.work, "outputs.jsonl"), "w") as outputs:
        for index, (cycle, job) in enumerate(jobs.stream(args.workload, args.seed)):
            if cycle != last_cycle:
                # stop before a cycle that, taking as long as the last one,
                # would overrun the measuring time
                if busy + cycle_busy > args.seconds:
                    break
                last_cycle, cycle_busy = cycle, 0.0
            argv = job.argv
            if job.motion is not None:
                with open(motion_file, "w") as fh:
                    json.dump(job.motion, fh)
                argv = [motion_file if a == "{file}" else a for a in argv]
            record = {"index": index}
            # with tracing, untraced and traced twins; which goes first alternates
            plain = run_job(cli.main, argv) if tracer is None or index % 2 == 0 else None
            spent = 0.0
            if tracer is not None:
                t_code, spent, t_text, _ = run_job(traced_main, argv)
                plain = plain or run_job(cli.main, argv)
                traced.append(spent)
                record["traced_same"] = (t_code, t_text) == (plain[0], plain[2])
            code, elapsed, text, err = plain
            untraced.append(elapsed)
            busy += elapsed + spent
            cycle_busy += elapsed + spent
            record.update(code=code, ms=elapsed * 1000.0, stdout=text, stderr=err[-500:])
            outputs.write(json.dumps(record) + "\n")

    result = {
        "job_ms": [t * 1000.0 for t in untraced],
        "traced_job_ms": [t * 1000.0 for t in traced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["unwrapped"] = tracer.missing
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
