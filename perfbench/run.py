"""The grpf benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload grassmannian|pfaffian \
        --seed N --seconds S --trace 0|1

Each pass runs the workload's whole job list once, in a fresh interpreter
(perfbench/worker.py), with the pass's own inputs and job order drawn from
the seed.  Passes repeat until the next one would end after ``--seconds``,
but at least MIN_PASSES run.  Each job time is scaled to reference speed
(calibrate.py), and a job's time is its mean over the passes without the
fastest and the slowest, so a slow spell of the host drops out.  Set-up
time is summarised the same way over the launches, SETUP_LAUNCHES_PER_PASS
before each pass, that stop once grpf is imported and the inputs are
written.  Every report is checked by perfbench/jobs.py.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Details of the
run go to perfbench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import jobs
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 5
SETUP_LAUNCHES_PER_PASS = 4
DEADLINE_S = 150  # every run must end well inside 180 s


class BenchError(Exception):
    pass


def _launch(args, pass_index, work, setup_only, deadline):
    out = os.path.join(work, f"pass-{pass_index}-record.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass", str(pass_index), "--trace", str(args.trace),
           "--work", os.path.join(work, f"pass-{pass_index}"), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # Bytecode is cached as users have it; the untimed first launch writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a launch")
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {pass_index} overran the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record["setup_done"] - launched
    return record


def _check_pass(args, pass_index, work, record, cache, tally):
    pass_dir = os.path.join(work, f"pass-{pass_index}")
    job_list = jobs.build(args.workload, args.seed, pass_index, pass_dir, False)
    if args.trace:
        job_list += jobs.probe(args.seed, os.path.join(pass_dir, "probe"), False)
    by_name = {r["name"]: r for r in record["results"]}
    for job in job_list:
        result = by_name[job.name]
        problems = jobs.check(job, result["code"], result["stdout"], cache)
        if problems and result["stderr"]:
            problems.append("stderr: " + result["stderr"].strip().splitlines()[-1])
        probe = job.name.startswith("probe-")
        tally["attempted"] += not probe
        if problems:
            tally["failed"] += not probe
            if job.name not in jobs.KNOWN_FAULTS:
                tally["unexpected"].append({"job": job.name, "pass": pass_index,
                                            "problems": problems})


def _trimmed_mean(samples):
    """A time from its (seconds, reference before, reference after) samples.

    Each sample is scaled to reference speed; the result is their mean
    without the fastest and the slowest (of all, if there are fewer than 3).
    """
    times = sorted(calibrate.scaled(*s) for s in samples)
    return statistics.mean(times[1:-1] or times)


def measure(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "grpf", "__init__.py")):
        raise BenchError(f"no grpf sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        # One untimed launch compiles bytecode and warms the file cache.
        _launch(args, 0, work, True, deadline)
        setup = []
        cache = {}
        tally = {"attempted": 0, "failed": 0, "unexpected": []}
        per_job, rss, traced, pass_seconds = {}, [], [], []
        budget_end = time.monotonic() + args.seconds
        while True:
            start = time.monotonic()
            index = len(pass_seconds)
            # Set-up launches are spread over the run, between the passes, so
            # that they sample the same host conditions as the jobs.
            if not args.trace:
                for _ in range(SETUP_LAUNCHES_PER_PASS):
                    before = calibrate.reference_seconds()
                    seconds = _launch(args, index, work, True, deadline)["setup_s"]
                    setup.append((seconds, before, calibrate.reference_seconds()))
            record = _launch(args, index, work, False, deadline)
            _check_pass(args, index, work, record, cache, tally)
            ref = record["reference_s"]
            for i, r in enumerate(record["results"][:len(ref) - 1]):
                per_job.setdefault(r["name"], []).append((r["seconds"], ref[i], ref[i + 1]))
            rss.append(record["peak_rss_mb"])
            if args.trace:
                traced.append(record)
            pass_seconds.append(time.monotonic() - start)
            next_end = time.monotonic() + statistics.mean(pass_seconds)
            if len(pass_seconds) >= MIN_PASSES and next_end > budget_end:
                break
            if next_end > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    job_time = {name: _trimmed_mean(samples) for name, samples in per_job.items()}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(pass_seconds), "pass_seconds": pass_seconds,
        "jobs": len(job_time), "job_seconds": per_job, "setup_launches_s": setup,
        "peak_rss_mb_per_pass": rss, "unexpected_failures": tally["unexpected"],
        "wall_s": sum(job_time.values()),
    }
    if args.trace:
        values = {}
        for name, _, _ in layers.metric_names():
            values[name] = statistics.median(r["layers"].get(name, 0) for r in traced)
        summary["missing_layers"] = traced[0]["missing"]
        units = {name: unit for name, unit, _ in layers.metric_names()}
    else:
        values = {
            "setup_s": _trimmed_mean(setup),
            "wall_s": sum(job_time.values()),
            "job_p50_ms": 1000 * statistics.median(job_time.values()),
            "peak_rss_mb": max(rss),
        }
        units = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "peak_rss_mb": "MiB"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {"correct": not tally["unexpected"], "attempted": tally["attempted"],
              "failed": tally["failed"], "metrics": metrics}
    return result, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, summary = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "summary": summary}, fh, indent=1, sort_keys=True)
    for failure in summary["unexpected_failures"]:
        print(f"UNEXPECTED FAILURE {failure['job']} pass {failure['pass']}: "
              f"{'; '.join(failure['problems'])}", file=sys.stderr)
    print(f"{args.workload}: {summary['passes']} passes of {summary['jobs']} jobs; "
          f"attempted {result['attempted']}, failed {result['failed']}; "
          f"{'traced' if args.trace else 'untraced'} wall_s {summary['wall_s']:.4f} s")
    if summary.get("missing_layers"):
        print(f"  missing layers (reported as 0): {', '.join(summary['missing_layers'])}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
