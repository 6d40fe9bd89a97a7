"""Steadiness of the benchmark: two alternated sets of runs of one commit.

    python3 bench/steady.py --workload cellular [--runs 10] [--seed 1]

Runs bench/run.py 2 x --runs times, alternating set A and set B, each run
with its own seed (A: seed, seed+1, ...; B: seed+1000, seed+1001, ...), and
prints for every end-to-end metric of BENCHMARK.json both medians, both
quartiles, the spread of each set (interquartile range over median) and
whether the sets agree: each spread within the metric's bound (setup_s
excepted) and B's median no worse than A's by more than the bound.  The
share of failed operations must be the same in both sets.  Exits 1 when
they do not agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def compare(spec, a_runs, b_runs):
    """Lines of the report and whether the two sets agree."""
    ok = True
    lines = [f"{'metric':<12} {'bound':>5}  {'A median [Q1, Q3]':>30} {'spread':>6}"
             f"  {'B median [Q1, Q3]':>30} {'spread':>6} {'B vs A':>7}  agree"]
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = summary([r["metrics"][name]["value"] for r in a_runs])
        b = summary([r["metrics"][name]["value"] for r in b_runs])
        change = b[0] / a[0] - 1
        worse = -change if metric["better"] == "higher" else change
        agree = worse <= bound and (name == "setup_s" or max(a[3], b[3]) <= bound)
        ok = ok and agree
        lines.append(f"{name:<12} {bound:>5.2f}  {a[0]:>10.4g} [{a[1]:>8.4g}, {a[2]:>8.4g}]"
                     f" {a[3]:>6.3f}  {b[0]:>10.4g} [{b[1]:>8.4g}, {b[2]:>8.4g}] {b[3]:>6.3f}"
                     f" {change:>+7.3f}  {'yes' if agree else 'NO'}")
    shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in (a_runs, b_runs)]
    lines.append(f"failed share: A {shares[0]}, B {shares[1]}")
    return lines, ok and shares[0] == shares[1] and len(shares[0]) == 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = [], []
    for i in range(args.runs):
        pair = [("A", a_runs, args.seed + i), ("B", b_runs, args.seed + 1000 + i)]
        for label, runs, seed in (pair if i % 2 == 0 else pair[::-1]):
            runs.append(one_run(args.workload, seed, spec["run_seconds"]))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(f"{label} seed {seed}: {values}", flush=True)
    lines, ok = compare(spec, a_runs, b_runs)
    print(f"\n{args.workload}: {args.runs} runs per set, run_seconds {spec['run_seconds']}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
