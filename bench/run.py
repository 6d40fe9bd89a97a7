"""Benchmark of momangle's command line, driven in-process.

    python3 bench/run.py --workload cellular|taylor|realise --seed N \
        --seconds S --trace 0|1

One closed-loop caller on one thread runs a fixed, seeded list of jobs
(workloads.py); each job is one or more `momangle.cli.main(argv)` calls with
stdout captured, and starts when the previous one has finished.  The list
holds a fixed number of jobs per second of --seconds (workloads.WORKLOADS),
sized to take about that long, and always runs to its end: there is no time
cut-off, so every run of a seed does the same work.  Outputs are parsed and checked after the timed loop, against answers
computed apart from momangle (oracle.py).

The host is shared and its speed drifts by 10-20 % over seconds (see
README.md), so every time is rescaled by the host speed measured in the same
run: after each job (and each set-up) the run spends a tenth of the time it
took on `reference()`, a fixed piece of pure-Python work, with the garbage
collector off.  A job's time is multiplied by REFERENCE_S / (mean time of
one reference call over the WINDOW jobs on either side of it).  The figures
are then the times on a host where `reference()` takes REFERENCE_S; the raw
wall-clock figures go to stderr.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
the layers are wrapped (tracing.py) and the metrics are the per-layer ones,
and the spans go to .bench_out/trace-<workload>-<seed>.jsonl.gz.

The program is imported from src/ next to this directory; without it the
run stops with exit code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import oracle
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
REFERENCE_S = 0.0025          # nominal time of one reference() call
REFERENCE_SHARE = 0.1         # reference time per second measured
WINDOW = 10                   # jobs on either side whose samples rescale a job
_TABLE = {i: (i * 7919) % 10007 for i in range(4096)}


def reference():
    """Fixed integer and dict work, the kind momangle does, allocating nothing."""
    acc = 0
    for i in range(10000):
        acc = (acc + _TABLE[(i * 31 + acc) & 4095] * 3) % 1000003
    return acc


def host_sample(seconds):
    """(calls, seconds) of reference() run for about REFERENCE_SHARE of
    `seconds`, with the collector off so that momangle's garbage is not
    collected on the reference's time."""
    calls = max(1, round(REFERENCE_SHARE * seconds / REFERENCE_S))
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(calls):
            reference()
        return calls, perf_counter() - start
    finally:
        gc.enable()


def host_scale(samples):
    """REFERENCE_S over the mean time of one reference() call."""
    return REFERENCE_S * sum(c for c, _ in samples) / sum(t for _, t in samples)


def import_cli():
    """A fresh import of momangle from src/, as a new process would do it."""
    for name in [n for n in sys.modules if n == "momangle" or n.startswith("momangle.")]:
        del sys.modules[name]
    return importlib.import_module("momangle.cli")


def call(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            # the CLI promises exit codes, not tracebacks: record and go on
            traceback.print_exc(file=err)
            code = "traceback"
    return code, out.getvalue(), err.getvalue()


def judge(job, results, check, hochster):
    """Problems of one job, and whether a call failed outright (exit code not
    0) rather than returned an output that the check rejects."""
    reports = []
    for argv, (code, out, err) in zip(job.argvs, results):
        if code != 0:
            return [f"{argv[0]} exited {code}: {err.strip()[-300:]}"], True
        reports.append(json.loads(out))
    try:
        return check(job, reports, hochster), False
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report unreadable: {exc!r}"], False


def setup(workload, seed, count, inputs):
    """Import momangle and write the inputs; returns (cli, jobs, seconds)."""
    start = perf_counter()
    cli = import_cli()
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    make, _, _ = WORKLOADS[workload]
    jobs = make(random.Random(seed), count, str(inputs))
    return cli, jobs, perf_counter() - start


def run(args):
    _, check, rate = WORKLOADS[args.workload]
    count = rate * args.seconds
    work = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            cli, jobs, took = setup(args.workload, args.seed, count, work / "inputs")
            setups.append(took * host_scale([host_sample(took)]))
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        times, results, refs = [], [], []
        for k, job in enumerate(jobs):
            if tracer:
                tracer.job = k
            t0 = perf_counter()
            results.append([call(cli, argv) for argv in job.argvs])
            times.append(perf_counter() - t0)
            refs.append(host_sample(times[-1]))
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
    scale = host_scale(refs)
    print(f"wall clock: {len(jobs) / sum(times):.4f} jobs/s, median job "
          f"{1e3 * statistics.median(times):.2f} ms; host scale {scale:.4f}", file=sys.stderr)
    times = [t * host_scale(refs[max(0, k - WINDOW):k + WINDOW + 1])
             for k, t in enumerate(times)]

    hochster = oracle.Hochster()
    failed = 0
    correct = True
    for k, (job, res) in enumerate(zip(jobs, results)):
        problems, crashed = judge(job, res, check, hochster)
        if problems:
            failed += 1
            correct = correct and crashed
            print(f"job {k}: {'; '.join(problems)}", file=sys.stderr)

    if tracer:
        metrics = tracer.metrics(scale)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz",
                     {"workload": args.workload, "seed": args.seed, "jobs": len(jobs),
                      "jobs_per_s": len(jobs) / sum(times), "scale": scale,
                      "metrics": {k: v["value"] for k, v in metrics.items()}})
    else:
        metrics = {
            "jobs_per_s": {"value": len(jobs) / sum(times), "unit": "1/s"},
            "job_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
            "job_p90_ms": {"value": 1e3 * statistics.quantiles(times, n=10)[8], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
        }
    return {"correct": correct, "attempted": len(jobs), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "momangle" / "__init__.py").is_file():
        print(f"error: no momangle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
