"""One pass of a workload, in a fresh interpreter.

Imports grpf from the checkout's ``src``, writes the pass's input files,
then runs every job once through ``grpf.cli.run``, timing each call.  With
``--setup-only`` it stops once the inputs are written.  The pass record
(including the monotonic time at which set-up ended, which run.py compares
with the time it launched this process) is written as JSON to ``--out``.

    python3 perfbench/worker.py --workload W --seed S --pass I --trace 0|1 \
        --work DIR --out FILE [--setup-only]
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(job.argv) + ["--json"])
    except Exception:  # a traceback is a failed operation, not a crashed pass
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return {"name": job.name, "code": code, "seconds": seconds,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    from grpf import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"grpf was imported from {cli.__file__}, not from {SRC}")
    import calibrate
    import jobs

    os.makedirs(args.work, exist_ok=True)
    job_list = jobs.build(args.workload, args.seed, args.pass_index, args.work, True)
    record = {"setup_done": time.monotonic()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import layers

            tracer = layers.Tracer()
            tracer.install()
        results = []
        reference = [calibrate.reference_seconds()]
        for job in job_list:
            results.append(_run_job(cli, job))
            reference.append(calibrate.reference_seconds())
            if tracer:
                tracer.end_job()
        record["results"] = results
        record["reference_s"] = reference
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            probe_dir = os.path.join(args.work, "probe")
            os.makedirs(probe_dir, exist_ok=True)
            own = tracer.metrics()
            for job in jobs.probe(args.seed, probe_dir, True):
                record["results"].append(_run_job(cli, job))
                tracer.end_job()
            record["layers"] = layers.fill_from_probe(own, tracer.metrics())
            record["missing"] = tracer.missing
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
